// Per-flow observability context: the registries one placement flow
// writes into, bundled behind a thread-local "current context" pointer.
//
// Historically the counter/timing/trace/memory registries were process
// singletons, which made two concurrent placeDesign() calls corrupt each
// other's run reports (and made even *sequential* flows report deltas
// instead of absolute per-run numbers). A FlowContext owns one private
// CounterRegistry, TimingRegistry and MemoryTracker — plus either a
// private TraceRecorder or a reference to the shared default one — and a
// pointer to the ThreadPool the flow should run on.
//
// Resolution model (lock-free, one thread-local read):
//   * FlowContext::current() returns the context installed on this thread
//     by a FlowContextScope, falling back to the process-wide default
//     context (defaultContext()). A FlowContext is the only way to reach
//     a registry: there are no per-registry singletons. Tests install a
//     test-local context; work outside any flow (Bookshelf reads before
//     placeDesign, a bench's session-wide trace) lands on the default.
//   * Instrumentation primitives (Counter, ScopedTimer, TrackedBytes)
//     resolve the current context per call instead of caching a registry
//     reference, so the same static Counter in a hot kernel charges
//     whichever flow is running on the calling thread.
//   * ThreadPool workers inherit the submitting flow's context for the
//     duration of each parallel job, so kernels instrumented inside
//     worker threads attribute to the right flow.
//
// Interruption: a context can carry a deadline and a cancel flag; flows
// poll throwIfInterrupted() at iteration/stage boundaries (cooperative —
// there is no preemption). PlacementEngine (place/engine.h) uses this for
// per-job timeouts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/counters.h"
#include "common/heartbeat.h"
#include "common/memory.h"
#include "common/timer.h"
#include "common/trace.h"

namespace dreamplace {

class ThreadPool;

/// Base of the cooperative-interruption exceptions so callers can catch
/// "the flow was interrupted" without distinguishing why.
class FlowInterruptedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by throwIfInterrupted() once the context deadline has passed.
class FlowTimeoutError : public FlowInterruptedError {
 public:
  using FlowInterruptedError::FlowInterruptedError;
};

/// Thrown by throwIfInterrupted() after requestCancel().
class FlowCancelledError : public FlowInterruptedError {
 public:
  using FlowInterruptedError::FlowInterruptedError;
};

/// Registries and runtime bindings of one placement flow.
class FlowContext {
 public:
  struct Config {
    /// Pool parallel work runs on; nullptr = the process-wide pool.
    ThreadPool* pool = nullptr;
    /// Own a private TraceRecorder instead of sharing the default one.
    /// Private recorders isolate a flow's timeline (and its dropped-event
    /// accounting) from every other flow in the process.
    bool privateTrace = false;
    /// Event-buffer capacity of a private recorder; 0 keeps
    /// TraceRecorder::kDefaultCapacity. Ignored when privateTrace=false.
    std::size_t traceCapacity = 0;
  };

  FlowContext() : FlowContext(Config{}) {}
  explicit FlowContext(const Config& config);
  ~FlowContext();

  FlowContext(const FlowContext&) = delete;
  FlowContext& operator=(const FlowContext&) = delete;

  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }
  TimingRegistry& timing() { return timing_; }
  const TimingRegistry& timing() const { return timing_; }
  MemoryTracker& memory() { return *memory_; }
  const MemoryTracker& memory() const { return *memory_; }
  /// Shared-ownership handle; TrackedBytes keeps it so releases always
  /// reach the tracker they were charged to, even after the flow ends.
  const std::shared_ptr<MemoryTracker>& memoryPtr() const { return memory_; }
  TraceRecorder& trace() { return *trace_; }
  /// Liveness heartbeat of this flow: the GP loop and the flow driver
  /// publish into it; the engine watchdog reads it from another thread
  /// (common/heartbeat.h).
  HeartbeatState& heartbeat() { return heartbeat_; }
  const HeartbeatState& heartbeat() const { return heartbeat_; }
  ThreadPool& pool();

  /// True for the process-wide default context.
  bool isDefault() const;

  // --- Cooperative interruption -------------------------------------------
  void setDeadline(std::chrono::steady_clock::time_point deadline);
  void requestCancel() { cancel_.store(true, std::memory_order_relaxed); }
  /// Throws FlowCancelledError / FlowTimeoutError when the flow should
  /// stop. Called at GP-iteration and flow-stage boundaries.
  void throwIfInterrupted() const;

  // --- Pool accounting ------------------------------------------------------
  /// Snapshots the pool's busy/capacity clocks; RunReport subtracts them
  /// to attribute pool time to this flow (the pool may be shared).
  void markFlowStart();
  std::int64_t poolBusyStartMicros() const { return pool_busy_start_us_; }
  std::int64_t poolCapacityStartMicros() const {
    return pool_capacity_start_us_;
  }

  /// The context installed on this thread (by FlowContextScope or a pool
  /// job), or the default context.
  static FlowContext& current();
  /// Process-wide context current on threads with no installed scope; it
  /// owns the shared trace recorder. Never destroyed, so releases from
  /// thread-local caches at exit stay safe.
  static FlowContext& defaultContext();

 private:
  friend class FlowContextScope;
  struct DefaultTag {};
  FlowContext(const Config& config, DefaultTag);

  CounterRegistry counters_;
  TimingRegistry timing_;
  HeartbeatState heartbeat_;
  std::shared_ptr<MemoryTracker> memory_;
  std::unique_ptr<TraceRecorder> trace_owned_;
  TraceRecorder* trace_ = nullptr;
  ThreadPool* pool_ = nullptr;  ///< nullptr = resolve the process pool.

  std::atomic<bool> cancel_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};

  std::int64_t pool_busy_start_us_ = 0;
  std::int64_t pool_capacity_start_us_ = 0;
};

/// RAII installer: makes `context` the current one on this thread,
/// restoring the previous current context on destruction.
class FlowContextScope {
 public:
  explicit FlowContextScope(FlowContext& context);
  ~FlowContextScope();

  FlowContextScope(const FlowContextScope&) = delete;
  FlowContextScope& operator=(const FlowContextScope&) = delete;

 private:
  FlowContext* previous_;
};

}  // namespace dreamplace
