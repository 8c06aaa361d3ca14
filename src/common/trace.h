// Chrome trace-event recording (chrome://tracing / Perfetto JSON).
//
// The placer is a training loop; understanding where iterations spend
// their time needs a timeline, not just stage totals. TraceRecorder
// collects duration ("X") and counter ("C") events and
// serializes them in the Trace Event Format that chrome://tracing,
// Perfetto, and speedscope all load. Recording is off by default: every
// entry point first checks an atomic flag, so instrumented code costs a
// relaxed load when tracing is disabled. ScopedTimer emits trace events
// for its timing scope automatically, so the existing "gp/op/..."
// hierarchy shows up on the timeline without extra instrumentation.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace dreamplace {

/// One trace event; `args` holds pre-rendered JSON ("" => no args).
struct TraceEvent {
  std::string name;
  char phase = 'X';     ///< 'X' complete, 'C' counter.
  double tsUs = 0.0;    ///< Microseconds since recorder epoch.
  double durUs = 0.0;   ///< Complete events only.
  int tid = 0;
  std::string args;
};

/// Trace-event collector. The process has one shared default recorder
/// (owned by FlowContext::defaultContext()); flows that request a
/// trace file get a private recorder so concurrent timelines stay
/// isolated (common/flow_context.h).
///
/// Thread-safe: events from concurrent scopes are appended under a mutex
/// (recording is rare enough that contention is irrelevant; the disabled
/// path never takes the lock).
///
/// The event buffer is bounded (setCapacity, default 1M events): long
/// flows emit scope events every GP iteration and an unbounded vector
/// would eventually take the process down. Events beyond the cap are
/// dropped and counted in the `trace/dropped` counter so a truncated
/// trace is detectable instead of silently partial.
class TraceRecorder {
 public:
  /// Default event-buffer capacity (~150 MB worst case of event strings).
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Enabling (re)starts the time epoch so timestamps start near zero.
  void setEnabled(bool enabled);
  void clear();
  std::size_t size() const;

  /// Caps the event buffer; 0 means unbounded. Applies to future events
  /// only (an already-larger buffer is kept).
  void setCapacity(std::size_t maxEvents);
  std::size_t capacity() const;
  /// Events dropped since the last clear() because the buffer was full
  /// (mirrors the `trace/dropped` counter, which is cumulative).
  std::size_t dropped() const;

  /// Records a duration event that ends now and lasted `seconds`.
  void completeEvent(std::string_view name, double seconds);
  /// Records a counter sample (rendered as a stacked chart in the UI).
  void counterEvent(std::string_view name, double value);

  /// Serializes all events as a Trace Event Format JSON object.
  std::string toJson() const;
  /// Writes toJson() to `path`; returns false on I/O failure.
  bool writeJson(const std::string& path) const;

 private:
  int threadId();
  /// Caller holds mutex_. True if an event slot is available; otherwise
  /// records the drop.
  bool reserveSlot();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, int> thread_ids_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t dropped_ = 0;
};

/// The current flow's trace recorder (common/flow_context.h).
TraceRecorder& currentTraceRecorder();

/// Escapes a string for inclusion inside a JSON string literal.
std::string jsonEscape(std::string_view s);

}  // namespace dreamplace
