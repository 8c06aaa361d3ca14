// PlacementEngine: a long-lived runner for batches of placement flows.
//
// The paper's evaluation runs many designs through the same flow; doing
// that one process per design wastes the expensive process-level state
// (worker pool threads). The engine owns that state once and accepts
// PlacementJobs — a database plus flow-scoped PlacerOptions — running up
// to maxConcurrentJobs of them at a time, each under its own FlowContext
// (place/report.h registries, private trace, cooperative deadline), with
// bounded retry on failure.
//
// Determinism: every flow owns its transform state (FFT plans and
// scratch live in the flow's PoissonSolver), so a job's work does not
// depend on which lane thread runs it or what ran before; per-flow
// registries keep counters/timers isolated; and the deterministic
// parallel runtime (docs/PARALLEL.md) makes kernel results independent
// of which pool threads execute them. Per-job reports are therefore
// bit-identical (float64) between maxConcurrentJobs=1 and
// maxConcurrentJobs=N — except for the order-dependent counters listed in
// isOrderDependentCounter(), which record pool scheduling and wall-clock
// sampling rather than algorithmic work. docs/ENGINE.md has the full
// contract.
//
// Health: an optional per-engine monitor thread samples each job's
// heartbeat (common/heartbeat.h) and applies the stall/divergence
// policies in EngineOptions, cancelling sick flows cooperatively via
// FlowContext::requestCancel() — terminal states kDiverged/kStalled,
// never retried. The monitor only reads flow state, so determinism is
// unaffected; its bookkeeping counter (health/checks) is wall-clock-
// dependent and listed order-dependent. docs/OBSERVABILITY.md documents
// the policies.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "place/placer.h"
#include "place/report.h"

namespace dreamplace {

class ThreadPool;

/// Engine/process-scoped settings: everything shared across the jobs of a
/// batch. Flow-scoped settings stay in PlacerOptions.
struct EngineOptions {
  /// Worker threads of the engine-owned pool (shared by all jobs).
  /// 0 = auto (DREAMPLACE_THREADS env var, else hardware concurrency).
  int threads = 0;
  /// Jobs placed concurrently. Each extra lane costs one resident design
  /// (positions, nets, density grids); the worker pool stays one bounded
  /// set regardless.
  int maxConcurrentJobs = 1;
  /// Per-job wall-clock budget, enforced cooperatively at GP-iteration
  /// and flow-stage boundaries. Retries share one budget (the deadline is
  /// fixed before the first attempt). 0 = no timeout.
  double jobTimeoutSeconds = 0.0;
  /// Attempts per job: on a thrown failure the job is retried until this
  /// many attempts were made. Timeouts are never retried. Must be >= 1.
  int maxJobAttempts = 1;
  /// Event capacity of each job's private trace recorder; 0 = default.
  std::size_t traceCapacity = 0;

  // --- Live health (docs/OBSERVABILITY.md) --------------------------------
  /// Stall policy: a job whose heartbeat has not advanced for this many
  /// seconds is cancelled with terminal status `stalled`. Must exceed the
  /// longest heartbeat gap of a healthy flow (LG/DP stages publish only
  /// at their boundaries). 0 disables stall detection.
  double stallSeconds = 0.0;
  /// Divergence policy: a job whose published HPWL exceeds this ratio
  /// times its running-best HPWL for `divergenceSamples` consecutive
  /// watchdog observations of *fresh* GP iterations is cancelled with
  /// terminal status `diverged`. A non-finite HPWL is fatal immediately.
  /// 0 disables the ratio check; otherwise must be > 1.
  double divergenceHpwlRatio = 0.0;
  /// Consecutive over-ratio observations before the diverged verdict; a
  /// healthy sample resets the run. Must be >= 1.
  int divergenceSamples = 3;
  /// Watchdog sampling period. Must be > 0.
  double watchdogPeriodSeconds = 0.05;

  /// True when a health policy is configured (the monitor thread runs and
  /// samples heartbeats).
  bool watchdogEnabled() const {
    return stallSeconds > 0.0 || divergenceHpwlRatio > 0.0;
  }

  /// Throws std::invalid_argument listing every violated constraint.
  void validate() const;
};

/// One unit of work: a design to place and how to place it.
struct PlacementJob {
  /// Placed in-place; must stay alive for the whole batch and must not be
  /// shared between jobs of one batch.
  Database* db = nullptr;
  PlacerOptions options;
  std::string name;  ///< Job label in the BatchReport ("" = index).
  /// Optional hook called at the start of every attempt (1-based) on the
  /// job's thread, before the flow but with the attempt's FlowContext
  /// already installed — so a hook can poll
  /// FlowContext::current().throwIfInterrupted() and be cancelled by the
  /// watchdog like the flow itself. A throw counts as a failed attempt —
  /// tests use this to inject failures and observe retries.
  std::function<void(int attempt)> attemptHook;
};

enum class JobStatus {
  kSucceeded,  ///< Flow completed; result and report are valid.
  kFailed,     ///< Every attempt threw (last error recorded).
  kTimedOut,   ///< Deadline passed (FlowTimeoutError); not retried.
  kDiverged,   ///< Watchdog divergence verdict (terminal, never retried).
  kStalled,    ///< Watchdog stall verdict (terminal, never retried).
};

const char* statusName(JobStatus status);

/// Watchdog view of one job, accumulated over its attempts. Populated
/// whenever the engine monitor ran for the job (even without a verdict).
struct JobHealth {
  bool watchdogEnabled = false;  ///< A health policy was active.
  std::int64_t checks = 0;       ///< Watchdog samples across all attempts.
  std::string verdict;           ///< "", "diverged" or "stalled".
  std::string detail;            ///< Human-readable policy explanation.
  std::string lastStage;         ///< Flow stage at the last sample.
  int lastIteration = -1;        ///< Last GP iteration observed.
  double lastHpwl = 0.0;
  double bestHpwl = 0.0;
  double lastOverflow = 0.0;
};

/// Outcome of one job.
struct JobReport {
  std::string name;
  JobStatus status = JobStatus::kFailed;
  int attempts = 0;        ///< Attempts actually made (>= 1).
  /// A retry attempt continued from a flow checkpoint instead of
  /// restarting from scratch (requires PlacerOptions::checkpointDir).
  bool resumed = false;
  std::string error;       ///< Last failure message; empty on success.
  FlowResult result;       ///< Valid only when status == kSucceeded.
  RunReport report;        ///< Valid only when status == kSucceeded.
  JobHealth health;        ///< Watchdog view (see JobHealth).
  double wallSeconds = 0.0;
};

/// Outcome of a whole batch: per-job reports plus aggregate accounting.
struct BatchReport {
  static constexpr const char* kSchema = "dreamplace.batch_report.v1";

  std::string label;
  std::vector<JobReport> jobs;
  double wallSeconds = 0.0;       ///< Batch wall time (concurrent lanes).
  double aggregateSeconds = 0.0;  ///< Sum of per-job wall times.
  int succeeded = 0;
  int failed = 0;
  int timedOut = 0;
  int diverged = 0;
  int stalled = 0;

  bool allSucceeded() const {
    return failed == 0 && timedOut == 0 && diverged == 0 && stalled == 0 &&
           succeeded == static_cast<int>(jobs.size());
  }

  /// One JSON document (schema dreamplace.batch_report.v1): batch counts
  /// and timings plus a "jobs" array embedding each succeeded job's full
  /// RunReport under "report". tools/check_report understands this shape
  /// and applies the per-run baseline to every job.
  std::string toJson() const;
};

/// True for counter keys whose values legitimately differ between serial
/// and concurrent batch runs: they attribute *shared infrastructure* (pool
/// start/steal/contention, busy-lane inline runs and the per-label inline
/// runs depend on scheduling) or wall-clock sampling (watchdog checks), not
/// algorithmic work. Everything else — op evaluate/solve counts, FFT plan
/// and transform counts, optimizer steps, parallel/jobs, parallel/tasks
/// and parallel/jobs/<label> — is deterministic per flow and safe to
/// compare bit-for-bit.
bool isOrderDependentCounter(std::string_view key);

/// Copy of `counters` with the order-dependent keys removed — the subset
/// a determinism comparison may EXPECT_EQ across concurrency levels.
std::map<std::string, CounterRegistry::Value> deterministicCounters(
    const std::map<std::string, CounterRegistry::Value>& counters);

/// True for counter keys whose values legitimately differ between an
/// uninterrupted flow and the same flow interrupted and resumed from a
/// checkpoint: the order-dependent set above, checkpoint bookkeeping
/// itself, lazy workspace allocation/reuse counters (a resumed segment
/// re-allocates scratch the original run reused) and `fft/plan/create`
/// (a resumed segment rebuilds its plans). All
/// *algorithmic-work* counters — op evaluations, optimizer steps,
/// parallel/jobs — are resume-invariant and excluded from this set.
bool isResumeVariantCounter(std::string_view key);

/// Copy of `counters` with the resume-variant keys removed — the subset a
/// resume-determinism comparison may EXPECT_EQ against an uninterrupted
/// baseline.
std::map<std::string, CounterRegistry::Value> resumeComparableCounters(
    const std::map<std::string, CounterRegistry::Value>& counters);

/// The long-lived engine. Owns its worker pool; safe to run() multiple
/// batches over its lifetime. Not itself thread-safe: drive one engine
/// from one thread (it parallelizes internally).
class PlacementEngine {
 public:
  explicit PlacementEngine(EngineOptions options = {});
  ~PlacementEngine();

  PlacementEngine(const PlacementEngine&) = delete;
  PlacementEngine& operator=(const PlacementEngine&) = delete;

  /// Runs every job, up to options().maxConcurrentJobs at a time, and
  /// returns the batch outcome. Job order in the result matches the input
  /// order regardless of completion order.
  BatchReport run(std::vector<PlacementJob> jobs);

  const EngineOptions& options() const { return options_; }
  ThreadPool& pool() { return *pool_; }

 private:
  /// Monitor-side state of one registered (running) flow; see engine.cpp.
  struct FlowWatch;

  JobReport runJob(PlacementJob& job);

  // Monitor thread lifecycle (run()-scoped). All FlowWatch access —
  // including the context pointer a watch holds — happens under
  // monitor_mutex_; runJob() unregisters a watch under the same mutex
  // before its stack-local FlowContext dies.
  void startMonitor();
  void stopMonitor();
  void monitorLoop();
  std::shared_ptr<FlowWatch> registerFlow(const std::string& name,
                                          FlowContext* context);
  void unregisterFlow(const std::shared_ptr<FlowWatch>& watch,
                      JobHealth& health);
  void sampleWatch(FlowWatch& watch,
                   std::chrono::steady_clock::time_point now);

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;
  std::vector<std::shared_ptr<FlowWatch>> active_;
  std::thread monitor_;
};

}  // namespace dreamplace
