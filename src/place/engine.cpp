#include "place/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/flow_context.h"
#include "common/heartbeat.h"
#include "common/json_writer.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "place/checkpoint.h"

namespace dreamplace {

void EngineOptions::validate() const {
  std::string errors;
  const auto fail = [&errors](const std::string& message) {
    errors += (errors.empty() ? "" : "; ") + message;
  };

  if (threads < 0) {
    fail("threads must be >= 0 (got " + std::to_string(threads) +
         "); 0 means auto (DREAMPLACE_THREADS or hardware concurrency)");
  }
  if (maxConcurrentJobs < 1) {
    fail("maxConcurrentJobs must be >= 1 (got " +
         std::to_string(maxConcurrentJobs) + ")");
  }
  if (jobTimeoutSeconds < 0.0) {
    fail("jobTimeoutSeconds must be >= 0 (got " +
         std::to_string(jobTimeoutSeconds) + "); 0 disables the timeout");
  }
  if (maxJobAttempts < 1) {
    fail("maxJobAttempts must be >= 1 (got " +
         std::to_string(maxJobAttempts) + ")");
  }
  if (stallSeconds < 0.0) {
    fail("stallSeconds must be >= 0 (got " + std::to_string(stallSeconds) +
         "); 0 disables stall detection");
  }
  if (divergenceHpwlRatio != 0.0 && divergenceHpwlRatio <= 1.0) {
    fail("divergenceHpwlRatio must be 0 (disabled) or > 1 (got " +
         std::to_string(divergenceHpwlRatio) +
         "); it multiplies the running-best HPWL");
  }
  if (divergenceSamples < 1) {
    fail("divergenceSamples must be >= 1 (got " +
         std::to_string(divergenceSamples) + ")");
  }
  if (!(watchdogPeriodSeconds > 0.0)) {
    fail("watchdogPeriodSeconds must be > 0 (got " +
         std::to_string(watchdogPeriodSeconds) + ")");
  }

  if (!errors.empty()) {
    throw std::invalid_argument("EngineOptions: " + errors);
  }
}

const char* statusName(JobStatus status) {
  switch (status) {
    case JobStatus::kSucceeded: return "succeeded";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimedOut: return "timed_out";
    case JobStatus::kDiverged: return "diverged";
    case JobStatus::kStalled: return "stalled";
  }
  return "unknown";
}

bool isOrderDependentCounter(std::string_view key) {
  // Watchdog samples are wall-clock sampling: how many land on a flow
  // depends on machine speed, never on the flow's algorithmic work.
  if (key.substr(0, 7) == "health/") {
    return true;
  }
  // Pool scheduling: who started the workers, how blocks were claimed,
  // whether a second run() caller hit the occupied job slot, how many
  // sibling lanes were busy, and so which jobs ran inline; and the
  // wall-clock time each label's jobs took.
  if (key.substr(0, 16) == "parallel/inline/" ||
      key.substr(0, 17) == "parallel/wall_us/" ||
      key.substr(0, 17) == "parallel/busy_us/") {
    return true;
  }
  return key == "parallel/steals" || key == "parallel/pool_start" ||
         key == "parallel/contended" || key == "parallel/narrowed";
}

std::map<std::string, CounterRegistry::Value> deterministicCounters(
    const std::map<std::string, CounterRegistry::Value>& counters) {
  std::map<std::string, CounterRegistry::Value> out;
  for (const auto& [key, value] : counters) {
    if (!isOrderDependentCounter(key)) {
      out.emplace(key, value);
    }
  }
  return out;
}

bool isResumeVariantCounter(std::string_view key) {
  if (isOrderDependentCounter(key)) return true;
  // Checkpoint bookkeeping: the uninterrupted baseline loads nothing and
  // may save a different number of snapshots than the interrupted run.
  if (key.substr(0, 11) == "checkpoint/") return true;
  // Lazy workspace counters: ops allocate scratch on first use and reuse
  // it afterwards. A resumed segment is a fresh process state, so it
  // re-allocates once more (alloc N -> N+1, reuse M -> M-1) even though
  // the algorithmic work is identical. Likewise it rebuilds its FFT plans.
  const auto ends_with = [&key](std::string_view suffix) {
    return key.size() >= suffix.size() &&
           key.substr(key.size() - suffix.size()) == suffix;
  };
  if (ends_with("_alloc") || ends_with("_reuse")) return true;
  return key == "fft/plan/create";
}

std::map<std::string, CounterRegistry::Value> resumeComparableCounters(
    const std::map<std::string, CounterRegistry::Value>& counters) {
  std::map<std::string, CounterRegistry::Value> out;
  for (const auto& [key, value] : counters) {
    if (!isResumeVariantCounter(key)) {
      out.emplace(key, value);
    }
  }
  return out;
}

std::string BatchReport::toJson() const {
  json::Json j;
  j.openObject();
  j.key("schema"); j.value(kSchema);
  j.key("label"); j.value(label);
  j.key("wall_s"); j.value(wallSeconds);
  j.key("aggregate_s"); j.value(aggregateSeconds);

  j.key("counts");
  j.openObject();
  j.key("jobs"); j.value(static_cast<std::int64_t>(jobs.size()));
  j.key("succeeded"); j.value(succeeded);
  j.key("failed"); j.value(failed);
  j.key("timed_out"); j.value(timedOut);
  j.key("diverged"); j.value(diverged);
  j.key("stalled"); j.value(stalled);
  j.closeObject();

  j.key("jobs");
  j.openArray();
  for (const JobReport& job : jobs) {
    j.openObject();
    j.key("name"); j.value(job.name);
    j.key("status"); j.value(statusName(job.status));
    j.key("attempts"); j.value(job.attempts);
    j.key("resumed"); j.value(job.resumed);
    j.key("wall_s"); j.value(job.wallSeconds);
    if (!job.error.empty()) {
      j.key("error"); j.value(job.error);
    }
    if (job.health.watchdogEnabled || !job.health.verdict.empty()) {
      j.key("health");
      j.openObject();
      j.key("watchdog"); j.value(job.health.watchdogEnabled);
      j.key("checks"); j.value(job.health.checks);
      j.key("verdict"); j.value(job.health.verdict);
      if (!job.health.detail.empty()) {
        j.key("detail"); j.value(job.health.detail);
      }
      j.key("last_stage"); j.value(job.health.lastStage);
      j.key("last_iteration"); j.value(job.health.lastIteration);
      j.key("last_hpwl"); j.value(job.health.lastHpwl);
      j.key("best_hpwl"); j.value(job.health.bestHpwl);
      j.key("last_overflow"); j.value(job.health.lastOverflow);
      j.closeObject();
    }
    if (job.status == JobStatus::kSucceeded) {
      j.key("report");
      j.rawValue(job.report.toJson());
    }
    j.closeObject();
  }
  j.closeArray();

  j.closeObject();
  return j.out;
}

// ---------------------------------------------------------------------------
// Monitor: one engine-scoped thread sampling the active flows' heartbeats
// and applying the stall/divergence policies.
// ---------------------------------------------------------------------------

/// All fields are guarded by the engine's monitor_mutex_: the monitor
/// samples under it, and runJob() registers/unregisters and harvests the
/// outcome under it. `context` points at runJob's stack-local FlowContext
/// and is valid exactly while the watch is in active_.
struct PlacementEngine::FlowWatch {
  std::string name;
  FlowContext* context = nullptr;

  // Policy state.
  std::uint64_t lastSequence = 0;
  std::chrono::steady_clock::time_point lastProgress;
  int lastIteration = INT_MIN;  ///< INT_MIN: no iteration observed yet.
  int regressionRun = 0;        ///< Consecutive over-ratio observations.

  // Outcome, harvested into JobHealth.
  std::int64_t checks = 0;
  std::string verdict;  ///< "", "diverged" or "stalled".
  std::string detail;
  HeartbeatSnapshot last;
};

void PlacementEngine::startMonitor() {
  if (!options_.watchdogEnabled()) {
    return;
  }
  monitor_stop_ = false;
  monitor_ = std::thread([this]() { monitorLoop(); });
}

void PlacementEngine::stopMonitor() {
  if (!monitor_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  monitor_.join();
}

void PlacementEngine::monitorLoop() {
  const auto period =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.watchdogPeriodSeconds));
  std::unique_lock<std::mutex> lock(monitor_mutex_);
  while (!monitor_stop_) {
    monitor_cv_.wait_for(lock, period);
    if (monitor_stop_) {
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    for (const std::shared_ptr<FlowWatch>& watch : active_) {
      sampleWatch(*watch, now);
    }
  }
}

void PlacementEngine::sampleWatch(FlowWatch& watch,
                                  std::chrono::steady_clock::time_point now) {
  if (!watch.verdict.empty() || watch.context == nullptr) {
    return;  // verdict already delivered; the cancel is in flight
  }
  const HeartbeatSnapshot hb = watch.context->heartbeat().read();
  ++watch.checks;
  watch.context->counters().add("health/checks");
  char detail[256];

  if (hb.sequence != watch.lastSequence) {
    // Progress since the last sample. Divergence is judged only on fresh
    // GP iterations (stage boundaries republish old HPWL values).
    const bool fresh_iteration = hb.stage == FlowStage::kGlobalPlacement &&
                                 hb.iteration != watch.lastIteration;
    if (fresh_iteration) {
      if (!std::isfinite(hb.hpwl)) {
        std::snprintf(detail, sizeof(detail),
                      "non-finite HPWL at GP iteration %d", hb.iteration);
        watch.verdict = "diverged";
        watch.detail = detail;
      } else if (options_.divergenceHpwlRatio > 0.0 && hb.bestHpwl > 0.0 &&
                 hb.hpwl > options_.divergenceHpwlRatio * hb.bestHpwl) {
        if (++watch.regressionRun >= options_.divergenceSamples) {
          std::snprintf(detail, sizeof(detail),
                        "HPWL %.4e is %.1fx the running best %.4e "
                        "(threshold %.2fx) for %d consecutive samples, "
                        "GP iteration %d",
                        hb.hpwl, hb.hpwl / hb.bestHpwl, hb.bestHpwl,
                        options_.divergenceHpwlRatio, watch.regressionRun,
                        hb.iteration);
          watch.verdict = "diverged";
          watch.detail = detail;
        }
      } else {
        watch.regressionRun = 0;
      }
      watch.lastIteration = hb.iteration;
    }
    watch.lastSequence = hb.sequence;
    watch.lastProgress = now;
    watch.last = hb;
  } else if (options_.stallSeconds > 0.0) {
    const double idle =
        std::chrono::duration<double>(now - watch.lastProgress).count();
    if (idle >= options_.stallSeconds) {
      std::snprintf(detail, sizeof(detail),
                    "no heartbeat progress for %.1fs (stall threshold %.1fs; "
                    "last stage %s, GP iteration %d)",
                    idle, options_.stallSeconds,
                    flowStageName(watch.last.stage), watch.last.iteration);
      watch.verdict = "stalled";
      watch.detail = detail;
    }
  }

  if (!watch.verdict.empty()) {
    watch.context->requestCancel();
    logWarn("engine: watchdog verdict '%s' for job '%s': %s",
            watch.verdict.c_str(), watch.name.c_str(), watch.detail.c_str());
  }
}

std::shared_ptr<PlacementEngine::FlowWatch> PlacementEngine::registerFlow(
    const std::string& name, FlowContext* context) {
  if (!options_.watchdogEnabled()) {
    return nullptr;
  }
  auto watch = std::make_shared<FlowWatch>();
  watch->name = name;
  watch->context = context;
  watch->lastProgress = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    active_.push_back(watch);
  }
  return watch;
}

void PlacementEngine::unregisterFlow(const std::shared_ptr<FlowWatch>& watch,
                                     JobHealth& health) {
  if (watch == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  active_.erase(std::remove(active_.begin(), active_.end(), watch),
                active_.end());
  watch->context = nullptr;  // the FlowContext dies when runJob's try ends
  health.watchdogEnabled = options_.watchdogEnabled();
  health.checks += watch->checks;
  if (!watch->verdict.empty()) {
    health.verdict = watch->verdict;
    health.detail = watch->detail;
  }
  health.lastStage = flowStageName(watch->last.stage);
  health.lastIteration = watch->last.iteration;
  health.lastHpwl = watch->last.hpwl;
  health.bestHpwl = watch->last.bestHpwl;
  health.lastOverflow = watch->last.overflow;
}

PlacementEngine::PlacementEngine(EngineOptions options)
    : options_(std::move(options)), pool_(std::make_unique<ThreadPool>()) {
  options_.validate();
  // Log-level configuration is engine-adjacent observability; apply the
  // env knob here so embedding programs get it without CLI help.
  initLogLevelFromEnv();
  if (options_.threads > 0) {
    pool_->setThreads(options_.threads);
  }
}

PlacementEngine::~PlacementEngine() { stopMonitor(); }

JobReport PlacementEngine::runJob(PlacementJob& job) {
  JobReport out;
  out.name = job.name;
  Timer wall;
  LogScope log_job("job", out.name);
  LogScope log_design("design", job.options.telemetryLabel.empty()
                                    ? out.name
                                    : job.options.telemetryLabel);

  // One budget for the whole job: retries run against the deadline fixed
  // here, so a flaky job cannot stretch its wall-clock allowance by
  // failing first.
  std::chrono::steady_clock::time_point deadline{};
  const bool has_deadline = options_.jobTimeoutSeconds > 0.0;
  if (has_deadline) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(options_.jobTimeoutSeconds));
  }

  PlacerOptions options = job.options;
  // Flow-scoped options only: a job must not resize the shared engine
  // pool under its sibling jobs.
  options.threads = 0;
  if (!options.checkpointDir.empty() && options.checkpointName.empty()) {
    options.checkpointName = out.name;
  }
  const std::string checkpoint_path = checkpointFilePath(options);

  for (int attempt = 1; attempt <= options_.maxJobAttempts; ++attempt) {
    out.attempts = attempt;
    if (attempt > 1 && !checkpoint_path.empty()) {
      // Resume instead of restart: the failed attempt left a checkpoint
      // at its last stage boundary (or mid-GP snapshot); continuing from
      // it keeps already-spent GP iterations instead of repaying them
      // against the same deadline. Absent file (crash before the first
      // snapshot) falls back to a clean restart.
      std::ifstream probe(checkpoint_path, std::ios::binary);
      if (probe.good()) {
        options.resumeFrom = checkpoint_path;
        out.resumed = true;
        logInfo("engine: resuming job from %s", checkpoint_path.c_str());
      } else {
        options.resumeFrom.clear();
      }
    }
    logInfo("engine: job start (attempt %d/%d)", attempt,
            options_.maxJobAttempts);
    FlowContext::Config config;
    config.pool = pool_.get();
    config.privateTrace = true;
    config.traceCapacity = options_.traceCapacity;
    FlowContext context(config);
    if (has_deadline) {
      context.setDeadline(deadline);
    }
    // Registered before the attempt hook so the watchdog covers a hook
    // that never returns (the stall injection in tools/run_batch).
    const std::shared_ptr<FlowWatch> watch =
        registerFlow(out.name, &context);
    const auto verdictOf = [this, &watch]() {
      if (watch == nullptr) {
        return std::string();
      }
      std::lock_guard<std::mutex> lock(monitor_mutex_);
      return watch->verdict;
    };
    try {
      if (job.attemptHook) {
        FlowContextScope scope(context);
        job.attemptHook(attempt);
      }
      out.result = placeDesign(*job.db, options, context, &out.report);
      out.status = JobStatus::kSucceeded;
      out.error.clear();
      const std::string verdict = verdictOf();
      unregisterFlow(watch, out.health);
      if (!verdict.empty()) {
        // Lost race: the verdict landed after the flow's last interrupt
        // poll. The flow finished, so surface it as a warning only.
        out.report.warnings.push_back("watchdog verdict '" + verdict +
                                      "' raced with flow completion: " +
                                      out.health.detail);
      }
      logInfo("engine: job done (status %s)", statusName(out.status));
      break;
    } catch (const FlowTimeoutError& e) {
      // The budget is spent; a retry would time out immediately.
      unregisterFlow(watch, out.health);
      out.status = JobStatus::kTimedOut;
      out.error = e.what();
      logWarn("engine: job timed out after %.1fs (attempt %d)",
              options_.jobTimeoutSeconds, attempt);
      break;
    } catch (const FlowCancelledError& e) {
      const std::string verdict = verdictOf();
      unregisterFlow(watch, out.health);
      if (verdict == "diverged" || verdict == "stalled") {
        // Watchdog verdicts are terminal: the same design under the same
        // options would diverge/stall again, so a retry only burns time.
        out.status =
            verdict == "diverged" ? JobStatus::kDiverged : JobStatus::kStalled;
        out.error = out.health.detail;
        logWarn("engine: job %s (attempt %d): %s", verdict.c_str(), attempt,
                out.error.c_str());
        break;
      }
      // Cancelled by someone else (no verdict) — treat as a failure.
      out.status = JobStatus::kFailed;
      out.error = e.what();
      logWarn("engine: job attempt %d/%d cancelled: %s", attempt,
              options_.maxJobAttempts, e.what());
    } catch (const std::exception& e) {
      unregisterFlow(watch, out.health);
      out.status = JobStatus::kFailed;
      out.error = e.what();
      logWarn("engine: job attempt %d/%d failed: %s", attempt,
              options_.maxJobAttempts, e.what());
    }
  }

  out.wallSeconds = wall.elapsed();
  return out;
}

BatchReport PlacementEngine::run(std::vector<PlacementJob> jobs) {
  BatchReport batch;
  batch.jobs.resize(jobs.size());
  Timer wall;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].db == nullptr) {
      throw std::invalid_argument("PlacementEngine: job " + std::to_string(i) +
                                  " has no database");
    }
    if (jobs[i].name.empty()) {
      jobs[i].name = "job" + std::to_string(i);
    }
    logInfo("engine: job submit '%s' (%zu of %zu)", jobs[i].name.c_str(),
            i + 1, jobs.size());
  }

  startMonitor();
  // Joins the monitor on every exit path (a validation throw above
  // happens before startMonitor, so only the lane section needs cover).
  struct MonitorGuard {
    PlacementEngine* engine;
    ~MonitorGuard() { engine->stopMonitor(); }
  } monitor_guard{this};

  const int lanes =
      std::max(1, std::min(options_.maxConcurrentJobs,
                           static_cast<int>(jobs.size())));
  std::atomic<std::size_t> next{0};

  // Each lane pulls the next unstarted job and runs it on the lane
  // thread. A flow owns all of its transform state (plans, scratch), so
  // nothing a job computes depends on which lane ran it or what that
  // lane ran before (docs/ENGINE.md). A running job marks its lane busy;
  // while two or more lanes are busy they hold the cores, and the pool
  // runs their fork-joins inline.
  const auto lane = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) {
        break;
      }
      ThreadPool::LaneScope busy(*pool_);
      batch.jobs[i] = runJob(jobs[i]);
    }
  };

  if (lanes == 1) {
    lane();
  } else {
    std::vector<std::thread> runners;
    runners.reserve(static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      runners.emplace_back(lane);
    }
    for (std::thread& runner : runners) {
      runner.join();
    }
  }

  batch.wallSeconds = wall.elapsed();
  for (const JobReport& job : batch.jobs) {
    batch.aggregateSeconds += job.wallSeconds;
    switch (job.status) {
      case JobStatus::kSucceeded: ++batch.succeeded; break;
      case JobStatus::kFailed: ++batch.failed; break;
      case JobStatus::kTimedOut: ++batch.timedOut; break;
      case JobStatus::kDiverged: ++batch.diverged; break;
      case JobStatus::kStalled: ++batch.stalled; break;
    }
  }
  logInfo("engine: batch done: %d/%zu succeeded (%d failed, %d timed out, "
          "%d diverged, %d stalled), wall %.1fs aggregate %.1fs",
          batch.succeeded, batch.jobs.size(), batch.failed, batch.timedOut,
          batch.diverged, batch.stalled, batch.wallSeconds,
          batch.aggregateSeconds);
  return batch;
}

}  // namespace dreamplace
