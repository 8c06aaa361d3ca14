// Deterministic parallel runtime: an owned ThreadPool plus parallel-for /
// parallel-reduce helpers that replace the ad-hoc `#pragma omp` sites.
//
// Why own the runtime instead of leaning on OpenMP:
//  * Determinism. Every helper partitions work into fixed blocks whose
//    boundaries depend only on (n, grain) — never on the thread count —
//    and reductions combine per-block partials in ascending block order.
//    Floating-point results are therefore bit-identical whether the flow
//    runs with 1, 2, or 64 threads, which is what lets the count-based
//    regression gate and the determinism test suite pin flow results.
//  * Observability. Jobs and tasks are counted (`parallel/jobs`,
//    `parallel/tasks`, `parallel/steals`, and per job label
//    `parallel/jobs/<label>` / `parallel/inline/<label>`), each worker
//    emits its own chrome-trace lane when recording is on, and
//    busy/capacity time is accumulated so the run report can state pool
//    utilization.
//  * Control. Thread count comes from PlacerOptions::threads or the
//    DREAMPLACE_THREADS environment variable (default: hardware
//    concurrency); 1 means strictly serial inline execution with zero
//    thread machinery.
//
// Scheduling model: a job splits [0, n) into ceil(n/grain) blocks; the
// caller and the pool workers claim blocks dynamically from a shared
// atomic cursor (cheap work stealing, good load balance for skewed block
// costs such as sorted-by-area density scatter). Dynamic claiming is safe
// for determinism because *which thread* runs a block never influences
// the result — blocks write disjoint state or produce ordered partials.
// For the same reason a job may run inline: while two or more engine
// lanes are busy, the lanes themselves hold the cores and each job runs
// on its lane's thread alone (ThreadPool::LaneScope).
//
// Grain-size guidance (see docs/PARALLEL.md): pick a grain so one block
// costs ~10µs or more. Elementwise loops over cells/pins: 1024–8192.
// Per-net or per-row loops that do real work each iteration: 1–64.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace dreamplace {

class FlowContext;

/// Worker pool. Lazily started: no threads exist until the first parallel
/// job with threads() > 1 runs. Thread count is reconfigurable between
/// jobs via setThreads(); configuring while a job is in flight is not
/// supported.
///
/// instance() is the process-wide pool used by flows on the default
/// context; a PlacementEngine constructs its own so concurrent jobs share
/// one bounded worker set. A pool accepts run() from several threads at
/// once: one caller's job occupies the workers, the others execute their
/// tasks inline on the calling thread (the determinism contract makes
/// the result identical either way — only wall time differs). While two
/// or more engine lanes are busy (LaneScope), every job runs inline on
/// its lane. Workers adopt the submitting flow's FlowContext for the
/// duration of a job, so per-flow counters/timers/traces attribute
/// correctly from inside kernels.
class ThreadPool {
 public:
  ThreadPool() = default;
  static ThreadPool& instance();

  /// Marks one busy engine lane for its lifetime; PlacementEngine holds
  /// one around each job. With two or more lanes marked, run() executes
  /// every job inline: the lanes already keep the cores busy. Outside an
  /// engine, or with one lane, a job gets the whole pool.
  class LaneScope {
   public:
    explicit LaneScope(ThreadPool& pool) : pool_(pool) { ++pool_.busy_lanes_; }
    ~LaneScope() { --pool_.busy_lanes_; }
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    ThreadPool& pool_;
  };

  /// Requests a pool size: n >= 1 forces n, 0 re-resolves from
  /// DREAMPLACE_THREADS / hardware concurrency. If the resolved size
  /// changes, running workers are joined and respawn lazily. Resolving
  /// from a DREAMPLACE_THREADS that is not a whole number >= 0 throws
  /// std::invalid_argument naming the variable and its value.
  void setThreads(int threads);

  /// Resolved pool size (>= 1). Resolves lazily on first use (and throws
  /// like setThreads on a malformed DREAMPLACE_THREADS).
  int threads();

  /// Runs `numTasks` tasks, calling fn(taskIndex, workerIndex) for each
  /// task exactly once. workerIndex is in [0, threads()); the calling
  /// thread participates as worker 0. Serial inline when threads() == 1,
  /// numTasks <= 1, when called from inside a pool task (nested
  /// parallelism degrades to serial rather than deadlocking), while two or
  /// more engine lanes are busy, or when another caller's job holds the
  /// workers.
  void run(const char* label, Index numTasks,
           const std::function<void(Index, int)>& fn);

  /// Cumulative worker-busy microseconds across all jobs.
  std::int64_t busyMicros() const;
  /// Cumulative capacity: job wall time times pool size (1 for a job run
  /// inline), summed.
  std::int64_t capacityMicros() const;
  /// busyMicros / capacityMicros in [0, 1]; 0 before any job ran.
  double utilization() const;

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  struct Job;

  void ensureStarted(int threads);
  /// Joins all workers. Caller holds config_mutex_.
  void stopWorkersLocked();
  void workerMain(int worker);
  void participate(Job& job, int worker);

  std::mutex config_mutex_;
  int requested_ = 0;
  std::atomic<int> resolved_{0};  ///< 0 = not yet resolved.

  /// Single job slot: true while a pooled job is in flight. A second
  /// concurrent run() caller falls back to inline-serial execution.
  std::atomic<bool> job_inflight_{false};
  /// Engine lanes currently running a job (LaneScope).
  std::atomic<int> busy_lanes_{0};

  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Job* current_job_ = nullptr;
  std::uint64_t job_generation_ = 0;
  bool stop_ = false;

  std::atomic<std::int64_t> busy_us_{0};
  std::atomic<std::int64_t> capacity_us_{0};
};

/// The current flow's pool (common/flow_context.h): the engine pool for
/// engine jobs, the process-wide pool otherwise. The helpers below run on
/// it, so kernels need no pool plumbing.
ThreadPool& currentThreadPool();

/// Elementwise parallel loop: fn(i) for every i in [0, n), grouped into
/// ceil(n/grain) dynamically-claimed blocks. Use when iterations write
/// disjoint state (fn must not race with itself on shared writes).
template <typename Fn>
void parallelFor(const char* label, Index n, Index grain, Fn&& fn) {
  if (n <= 0) return;
  const Index g = grain > 0 ? grain : 1;
  const Index blocks = (n + g - 1) / g;
  currentThreadPool().run(label, blocks, [&](Index block, int) {
    const Index lo = block * g;
    const Index hi = std::min<Index>(lo + g, n);
    for (Index i = lo; i < hi; ++i) fn(i);
  });
}

/// Block-granular parallel loop: fn(begin, end, worker) per block. The
/// worker index (in [0, threads())) lets blocks borrow per-worker scratch
/// (e.g. FFT row buffers) without allocation.
template <typename Fn>
void parallelForBlocked(const char* label, Index n, Index grain, Fn&& fn) {
  if (n <= 0) return;
  const Index g = grain > 0 ? grain : 1;
  const Index blocks = (n + g - 1) / g;
  currentThreadPool().run(label, blocks, [&](Index block, int worker) {
    const Index lo = block * g;
    const Index hi = std::min<Index>(lo + g, n);
    fn(lo, hi, worker);
  });
}

/// Deterministic parallel reduction. map(begin, end) computes one block's
/// partial; partials are combined with combine(acc, partial) in ascending
/// block order starting from init. Because block boundaries depend only
/// on (n, grain) and combination order is fixed, the result is
/// bit-identical for any thread count — and identical to the serial loop
/// the block decomposition implies.
template <typename R, typename Map, typename Combine>
R parallelReduce(const char* label, Index n, Index grain, R init, Map&& map,
                 Combine&& combine) {
  if (n <= 0) return init;
  const Index g = grain > 0 ? grain : 1;
  const Index blocks = (n + g - 1) / g;
  std::vector<R> partial(static_cast<std::size_t>(blocks), init);
  currentThreadPool().run(label, blocks, [&](Index block, int) {
    const Index lo = block * g;
    const Index hi = std::min<Index>(lo + g, n);
    partial[static_cast<std::size_t>(block)] = map(lo, hi);
  });
  R acc = init;
  for (Index block = 0; block < blocks; ++block) {
    acc = combine(acc, partial[static_cast<std::size_t>(block)]);
  }
  return acc;
}

/// parallelReduce with a worker index: map(begin, end, worker) may use
/// per-worker scratch (worker in [0, threads())), exactly like
/// parallelForBlocked. Same determinism guarantee — which worker runs a
/// block never affects the partial it produces, and partials combine in
/// ascending block order.
template <typename R, typename Map, typename Combine>
R parallelReduceBlocked(const char* label, Index n, Index grain, R init,
                        Map&& map, Combine&& combine) {
  if (n <= 0) return init;
  const Index g = grain > 0 ? grain : 1;
  const Index blocks = (n + g - 1) / g;
  std::vector<R> partial(static_cast<std::size_t>(blocks), init);
  currentThreadPool().run(label, blocks, [&](Index block, int worker) {
    const Index lo = block * g;
    const Index hi = std::min<Index>(lo + g, n);
    partial[static_cast<std::size_t>(block)] = map(lo, hi, worker);
  });
  R acc = init;
  for (Index block = 0; block < blocks; ++block) {
    acc = combine(acc, partial[static_cast<std::size_t>(block)]);
  }
  return acc;
}

}  // namespace dreamplace
