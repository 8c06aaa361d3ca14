// Wall-clock timing with a hierarchical, self-time-attributing registry.
//
// The paper's evaluation is a set of runtime *reports*: per-stage columns
// (GP / LG / DP / IO of Tables II-V), stage breakdowns (Figs. 3 and 9),
// and per-op kernel breakdowns (Figs. 10 and 12). The registry
// accumulates named scopes so a flow run can assemble those reports
// without threading timers through every API. Each key records call
// count, inclusive seconds, and *self* seconds (inclusive minus time
// spent in nested ScopedTimer scopes on the same thread), so nested
// hierarchies like "gp" > "gp/op/density" > "gp/op/density/poisson" can
// be broken down without double counting.
//
// Thread-safety: the registry is mutex-guarded (multithreaded kernels
// destroy ScopedTimers concurrently); the nesting bookkeeping is a
// thread-local scope stack, so scopes on different threads never see
// each other as parents. Invariants (pinned by tests/profiler_test.cpp):
//   * self <= inclusive for every key,
//   * the self times of a root scope's subtree sum to the root's
//     inclusive time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace dreamplace {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulated statistics of one timing key.
struct TimingStat {
  std::int64_t count = 0;   ///< Number of completed scopes.
  double seconds = 0.0;     ///< Inclusive wall seconds.
  double selfSeconds = 0.0; ///< Inclusive minus nested-scope seconds.
};

/// Accumulator of named timing scopes (one per FlowContext).
///
/// Scope keys are '/'-separated paths, e.g. "gp/density/fft". Accumulation
/// is additive across calls; the registry can be cleared between runs.
/// All entry points are thread-safe.
class TimingRegistry {
 public:
  TimingRegistry() = default;
  TimingRegistry(const TimingRegistry&) = delete;
  TimingRegistry& operator=(const TimingRegistry&) = delete;

  /// Records one completed scope with its self-time attribution
  /// (ScopedTimer's entry point).
  void addScope(const std::string& key, double seconds, double selfSeconds);

  /// Inclusive seconds of `key` (0 when absent).
  double total(const std::string& key) const;
  /// Sum of inclusive seconds over all keys that start with `prefix`.
  double totalPrefix(const std::string& prefix) const;

  /// Full statistics per key.
  std::map<std::string, TimingStat> statsSnapshot() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, TimingStat> totals_;
};

/// The current flow's timing registry (common/flow_context.h).
TimingRegistry& currentTimingRegistry();

/// RAII scope that adds its lifetime to the registry under `key`.
///
/// Maintains a thread-local scope stack for self-time attribution: the
/// only per-scope overhead beyond the pre-existing registry add is one
/// push in the constructor and one pop in the destructor. When trace
/// recording is enabled (common/trace.h) the scope also emits a duration
/// event, so every timed region shows up on the timeline.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string key);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string key_;
  Timer timer_;
};

}  // namespace dreamplace
