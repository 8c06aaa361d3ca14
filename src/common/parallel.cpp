#include "common/parallel.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/parse.h"
#include "common/trace.h"

namespace dreamplace {
namespace {

/// Thread count resolution order: explicit request > DREAMPLACE_THREADS
/// environment variable > hardware concurrency > 1. A set variable must
/// be a whole number >= 0 (0 = auto); anything else throws
/// std::invalid_argument naming it.
int resolveThreadCount(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("DREAMPLACE_THREADS")) {
    const int value = parseNumber<int>(env, "DREAMPLACE_THREADS");
    if (value < 0) {
      throw std::invalid_argument("DREAMPLACE_THREADS: '" + std::string(env) +
                                  "' must be >= 0");
    }
    if (value > 0) return value;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// True while this thread executes a pool task; nested run() calls see it
/// and degrade to serial inline execution instead of deadlocking.
thread_local bool tl_in_pool_task = false;

/// Counter keys of one job label: `parallel/jobs/<label>`,
/// `parallel/inline/<label>`, `parallel/wall_us/<label>` and
/// `parallel/busy_us/<label>`.
struct LabelKeys {
  std::string jobs;
  std::string inlined;
  std::string wall_us;
  std::string busy_us;
};

/// Labels are string literals, so each thread builds a label's keys once
/// and finds them by address afterwards: no allocation per job.
const LabelKeys& labelKeys(const char* label) {
  thread_local std::unordered_map<const char*, LabelKeys> cache;
  auto it = cache.find(label);
  if (it == cache.end()) {
    const std::string name(label);
    it = cache
             .emplace(label, LabelKeys{"parallel/jobs/" + name,
                                       "parallel/inline/" + name,
                                       "parallel/wall_us/" + name,
                                       "parallel/busy_us/" + name})
             .first;
  }
  return it->second;
}

std::int64_t elapsedMicros(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// One in-flight parallel job. Lives on the caller's stack for the
/// duration of run(); workers may only touch it between registering as a
/// participant (under job_mutex_) and deregistering (ditto), which is
/// what the caller's done-wait synchronizes on.
struct ThreadPool::Job {
  const std::function<void(Index, int)>* fn = nullptr;
  const char* label = "";
  Index numTasks = 0;
  /// Submitting flow's context; workers adopt it while participating so
  /// instrumentation inside tasks attributes to the right flow.
  FlowContext* context = nullptr;
  std::atomic<Index> next{0};       ///< Shared claim cursor.
  std::atomic<Index> completed{0};  ///< Tasks fully executed.
  std::atomic<std::int64_t> busy_us{0};  ///< Participants' busy time.
  int active = 0;  ///< Participants inside participate(); job_mutex_.
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  std::lock_guard<std::mutex> lock(config_mutex_);
  stopWorkersLocked();
}

void ThreadPool::setThreads(int threads) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  requested_ = threads < 0 ? 0 : threads;
  const int resolved = resolveThreadCount(requested_);
  if (resolved != resolved_.load(std::memory_order_relaxed)) {
    // Workers respawn lazily at the new size on the next parallel job.
    stopWorkersLocked();
  }
  resolved_.store(resolved, std::memory_order_release);
}

int ThreadPool::threads() {
  int resolved = resolved_.load(std::memory_order_acquire);
  if (resolved == 0) {
    std::lock_guard<std::mutex> lock(config_mutex_);
    resolved = resolved_.load(std::memory_order_relaxed);
    if (resolved == 0) {
      resolved = resolveThreadCount(requested_);
      resolved_.store(resolved, std::memory_order_release);
    }
  }
  return resolved;
}

std::int64_t ThreadPool::busyMicros() const {
  return busy_us_.load(std::memory_order_relaxed);
}

std::int64_t ThreadPool::capacityMicros() const {
  return capacity_us_.load(std::memory_order_relaxed);
}

double ThreadPool::utilization() const {
  const std::int64_t capacity = capacityMicros();
  if (capacity <= 0) return 0.0;
  const double ratio = static_cast<double>(busyMicros()) /
                       static_cast<double>(capacity);
  return ratio < 0.0 ? 0.0 : (ratio > 1.0 ? 1.0 : ratio);
}

void ThreadPool::ensureStarted(int threads) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  if (static_cast<int>(workers_.size()) == threads - 1) return;
  stopWorkersLocked();
  static Counter pool_start("parallel/pool_start");
  pool_start.add();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int worker = 1; worker < threads; ++worker) {
    workers_.emplace_back([this, worker] { workerMain(worker); });
  }
}

void ThreadPool::stopWorkersLocked() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    stop_ = false;
  }
}

void ThreadPool::workerMain(int worker) {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(job_mutex_);
  for (;;) {
    job_cv_.wait(lock, [&] {
      return stop_ || job_generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = job_generation_;
    Job* job = current_job_;
    // The job may already be finished and retired (all tasks were claimed
    // before this worker woke); nothing to do for this generation.
    if (job == nullptr) continue;
    ++job->active;
    lock.unlock();
    {
      // Adopt the submitting flow's context for the job's duration.
      FlowContextScope scope(*job->context);
      participate(*job, worker);
    }
    lock.lock();
    --job->active;
    done_cv_.notify_all();
  }
}

void ThreadPool::participate(Job& job, int worker) {
  static Counter steals("parallel/steals");
  const bool was_in_task = tl_in_pool_task;
  tl_in_pool_task = true;
  const auto start = std::chrono::steady_clock::now();
  Index executed = 0;
  for (Index task = job.next.fetch_add(1, std::memory_order_relaxed);
       task < job.numTasks;
       task = job.next.fetch_add(1, std::memory_order_relaxed)) {
    (*job.fn)(task, worker);
    ++executed;
    job.completed.fetch_add(1, std::memory_order_release);
  }
  tl_in_pool_task = was_in_task;
  if (executed > 0) {
    const std::int64_t busy = elapsedMicros(start);
    busy_us_.fetch_add(busy, std::memory_order_relaxed);
    job.busy_us.fetch_add(busy, std::memory_order_relaxed);
    if (worker != 0) steals.add(executed);
    TraceRecorder& recorder = currentTraceRecorder();
    if (recorder.enabled()) {
      // One lane per worker thread: the recorder assigns tids per thread,
      // so each worker's share of the job shows as its own track.
      recorder.completeEvent(
          job.label,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
    }
  }
}

void ThreadPool::run(const char* label, Index numTasks,
                     const std::function<void(Index, int)>& fn) {
  if (numTasks <= 0) return;
  static Counter jobs("parallel/jobs");
  static Counter tasks("parallel/tasks");
  jobs.add();
  tasks.add(numTasks);
  CounterRegistry& counters = currentCounterRegistry();
  const LabelKeys& keys = labelKeys(label);
  counters.add(keys.jobs);
  const int num_threads = threads();
  const auto start = std::chrono::steady_clock::now();
  const auto run_inline = [&] {
    // Strictly serial inline execution: no pool, no synchronization.
    counters.add(keys.inlined);
    for (Index task = 0; task < numTasks; ++task) fn(task, 0);
    const std::int64_t wall = elapsedMicros(start);
    busy_us_.fetch_add(wall, std::memory_order_relaxed);
    capacity_us_.fetch_add(wall, std::memory_order_relaxed);
    counters.add(keys.wall_us, wall);
    counters.add(keys.busy_us, wall);
  };
  if (num_threads <= 1 || numTasks <= 1 || tl_in_pool_task) {
    run_inline();
    return;
  }
  // Two or more busy engine lanes already hold the cores: a job pools
  // only while its lane is the one busy lane (docs/PARALLEL.md).
  if (busy_lanes_.load(std::memory_order_relaxed) > 1) {
    static Counter narrowed("parallel/narrowed");
    narrowed.add();
    run_inline();
    return;
  }
  // Single job slot: when another flow's job already occupies the pool,
  // run this job inline on the calling thread. The deterministic block
  // decomposition makes the result identical; only wall time differs.
  bool expected = false;
  if (!job_inflight_.compare_exchange_strong(expected, true,
                                             std::memory_order_acquire)) {
    static Counter contended("parallel/contended");
    contended.add();
    run_inline();
    return;
  }
  struct SlotRelease {
    std::atomic<bool>& flag;
    ~SlotRelease() { flag.store(false, std::memory_order_release); }
  } slot_release{job_inflight_};
  ensureStarted(num_threads);
  Job job;
  job.fn = &fn;
  job.label = label;
  job.numTasks = numTasks;
  job.context = &FlowContext::current();
  job.active = 1;  // The caller participates as worker 0.
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    current_job_ = &job;
    ++job_generation_;
  }
  job_cv_.notify_all();
  participate(job, 0);
  {
    std::unique_lock<std::mutex> lock(job_mutex_);
    --job.active;
    done_cv_.wait(lock, [&] {
      return job.active == 0 &&
             job.completed.load(std::memory_order_acquire) == job.numTasks;
    });
    // Retire the job before releasing the lock so late-waking workers see
    // nullptr instead of a dangling stack pointer.
    current_job_ = nullptr;
  }
  const std::int64_t wall = elapsedMicros(start);
  capacity_us_.fetch_add(wall * num_threads, std::memory_order_relaxed);
  counters.add(keys.wall_us, wall);
  counters.add(keys.busy_us, job.busy_us.load(std::memory_order_relaxed));
}

}  // namespace dreamplace
