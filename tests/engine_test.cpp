// PlacementEngine (place/engine.h): concurrent batches must reproduce
// serial runs bit-for-bit (the determinism contract of docs/ENGINE.md),
// timeouts and retries must behave as documented, and the BatchReport
// JSON must satisfy the per-run regression baseline for every job.
//
// Also the FlowContext regression the engine is built on: sequential
// placeDesign() calls in one process report per-run numbers from zero,
// with no leakage from earlier flows.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flow_context.h"
#include "common/parallel.h"
#include "gen/netlist_generator.h"
#include "place/engine.h"
#include "place/report_check.h"

namespace dreamplace {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Database> engineDesign(std::uint64_t seed,
                                       Index numCells = 600) {
  GeneratorConfig cfg;
  cfg.designName = "eng" + std::to_string(seed);
  cfg.numCells = numCells;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

PlacerOptions engineFlow() {
  PlacerOptions options;
  options.gp.maxIterations = 300;
  options.gp.binsMax = 64;
  options.dp.passes = 1;
  return options;
}

/// Builds the same 3-job batch (fresh databases each call, so serial and
/// concurrent runs start from identical state).
std::vector<PlacementJob> makeJobs(
    std::vector<std::unique_ptr<Database>>& keepAlive) {
  std::vector<PlacementJob> jobs;
  for (std::uint64_t seed : {7, 8, 9}) {
    keepAlive.push_back(engineDesign(seed));
    PlacementJob job;
    job.db = keepAlive.back().get();
    job.name = "eng" + std::to_string(seed);
    job.options = engineFlow();
    job.options.telemetryLabel = job.name;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(EngineOptionsTest, ValidateRejectsBadValues) {
  EngineOptions options;
  EXPECT_NO_THROW(options.validate());

  options.maxConcurrentJobs = 0;
  options.maxJobAttempts = 0;
  options.jobTimeoutSeconds = -1.0;
  options.threads = -2;
  options.stallSeconds = -0.5;
  options.divergenceHpwlRatio = 0.5;  // must be 0 or > 1
  options.divergenceSamples = 0;
  options.watchdogPeriodSeconds = 0.0;
  try {
    options.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("maxConcurrentJobs"), std::string::npos);
    EXPECT_NE(message.find("maxJobAttempts"), std::string::npos);
    EXPECT_NE(message.find("jobTimeoutSeconds"), std::string::npos);
    EXPECT_NE(message.find("threads"), std::string::npos);
    EXPECT_NE(message.find("stallSeconds"), std::string::npos);
    EXPECT_NE(message.find("divergenceHpwlRatio"), std::string::npos);
    EXPECT_NE(message.find("divergenceSamples"), std::string::npos);
    EXPECT_NE(message.find("watchdogPeriodSeconds"), std::string::npos);
  }

  EngineOptions healthy;
  EXPECT_FALSE(healthy.watchdogEnabled());
  healthy.stallSeconds = 5.0;
  EXPECT_TRUE(healthy.watchdogEnabled());
}

TEST(EngineTest, OrderDependentCounterFilter) {
  EXPECT_TRUE(isOrderDependentCounter("parallel/steals"));
  EXPECT_TRUE(isOrderDependentCounter("parallel/pool_start"));
  EXPECT_TRUE(isOrderDependentCounter("parallel/contended"));
  // How many sibling lanes were busy decides which jobs ran inline.
  EXPECT_TRUE(isOrderDependentCounter("parallel/narrowed"));
  EXPECT_TRUE(isOrderDependentCounter("parallel/inline/fft/rows"));
  EXPECT_FALSE(isOrderDependentCounter("parallel/jobs/fft/rows"));
  // Per-label wall and busy time are clock readings.
  EXPECT_TRUE(isOrderDependentCounter("parallel/wall_us/fft/rows"));
  EXPECT_TRUE(isOrderDependentCounter("parallel/busy_us/fft/cols"));
  // Watchdog samples are wall-clock sampling.
  EXPECT_TRUE(isOrderDependentCounter("health/checks"));
  EXPECT_FALSE(isOrderDependentCounter("parallel/jobs"));
  EXPECT_FALSE(isOrderDependentCounter("fft/dct2d"));
  // Every flow builds and owns its FFT plans, so the plan count is a
  // property of the flow, not of which flow ran first.
  EXPECT_FALSE(isOrderDependentCounter("fft/plan/create"));
  EXPECT_FALSE(isOrderDependentCounter("ops/wirelength/evaluate"));
  // The LG/DP back-end is serial, so its counters are thread-invariant.
  EXPECT_FALSE(isOrderDependentCounter("dp/reorder_windows"));

  const std::map<std::string, CounterRegistry::Value> mixed = {
      {"fft/dct2d", 10},
      {"fft/plan/create", 3},
      {"parallel/steals", 42},
      {"health/checks", 17}};
  const auto filtered = deterministicCounters(mixed);
  EXPECT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered.count("fft/dct2d"), 1u);
  EXPECT_EQ(filtered.count("fft/plan/create"), 1u);
}

TEST(EngineTest, ResumeVariantCounterFilter) {
  // Everything order-dependent is also resume-variant...
  EXPECT_TRUE(isResumeVariantCounter("parallel/steals"));
  EXPECT_TRUE(isResumeVariantCounter("health/checks"));
  // ...plus checkpoint bookkeeping and workspace allocation splits (a
  // resumed segment re-allocates what the original already had).
  EXPECT_TRUE(isResumeVariantCounter("checkpoint/saves"));
  EXPECT_TRUE(isResumeVariantCounter("checkpoint/loads"));
  EXPECT_TRUE(isResumeVariantCounter("ops/electrostatics/ws_alloc"));
  EXPECT_TRUE(isResumeVariantCounter("ops/electrostatics/ws_reuse"));
  EXPECT_TRUE(isResumeVariantCounter("ops/wirelength/scratch_alloc"));
  // ...and plan construction: a resumed segment rebuilds its plans.
  EXPECT_TRUE(isResumeVariantCounter("fft/plan/create"));
  // Work counters stay comparable: original segment + resumed segment
  // must equal the uninterrupted totals.
  EXPECT_FALSE(isResumeVariantCounter("optimizer/nesterov/steps"));
  EXPECT_FALSE(isResumeVariantCounter("ops/wirelength/evaluate"));
  EXPECT_FALSE(isResumeVariantCounter("fft/dct2d"));
  EXPECT_FALSE(isResumeVariantCounter("parallel/jobs"));
  EXPECT_FALSE(isResumeVariantCounter("lg/fallback"));

  const std::map<std::string, CounterRegistry::Value> mixed = {
      {"fft/dct2d", 10},
      {"checkpoint/saves", 3},
      {"ops/electrostatics/ws_alloc", 2},
      {"fft/plan/create", 6},
      {"optimizer/nesterov/steps", 200}};
  const auto filtered = resumeComparableCounters(mixed);
  EXPECT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered.count("fft/dct2d"), 1u);
  EXPECT_EQ(filtered.count("optimizer/nesterov/steps"), 1u);
}

// The tentpole acceptance test: three jobs run concurrently produce
// per-job results and reports bit-identical (float64) to the same jobs
// run serially — outside wall-times and the order-dependent counters.
// Both runs keep the watchdog enabled: the monitor thread only reads
// flow state, so health sampling must not perturb determinism
// (docs/OBSERVABILITY.md).
TEST(EngineTest, ConcurrentMatchesSerialBitExact) {
  std::vector<std::unique_ptr<Database>> serialDbs;
  std::vector<std::unique_ptr<Database>> concurrentDbs;

  EngineOptions serialOptions;
  serialOptions.maxConcurrentJobs = 1;
  serialOptions.stallSeconds = 60.0;           // watchdog on, never fires
  serialOptions.divergenceHpwlRatio = 1.0e6;   // watchdog on, never fires
  serialOptions.watchdogPeriodSeconds = 0.01;
  PlacementEngine serialEngine(serialOptions);
  const BatchReport serial = serialEngine.run(makeJobs(serialDbs));

  EngineOptions concurrentOptions;
  concurrentOptions.maxConcurrentJobs = 3;
  concurrentOptions.stallSeconds = 60.0;
  concurrentOptions.divergenceHpwlRatio = 1.0e6;
  concurrentOptions.watchdogPeriodSeconds = 0.01;
  PlacementEngine concurrentEngine(concurrentOptions);
  const BatchReport concurrent = concurrentEngine.run(makeJobs(concurrentDbs));

  ASSERT_EQ(serial.jobs.size(), 3u);
  ASSERT_EQ(concurrent.jobs.size(), 3u);
  EXPECT_TRUE(serial.allSucceeded());
  EXPECT_TRUE(concurrent.allSucceeded());

  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    const JobReport& s = serial.jobs[i];
    const JobReport& c = concurrent.jobs[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(c.name, s.name);
    EXPECT_EQ(c.attempts, 1);

    // The watchdog sampled every healthy job without delivering a verdict.
    EXPECT_TRUE(c.health.watchdogEnabled);
    EXPECT_TRUE(c.health.verdict.empty()) << c.health.verdict;

    // Flow results: every non-time field must match exactly.
    EXPECT_EQ(c.result.hpwlGp, s.result.hpwlGp);
    EXPECT_EQ(c.result.hpwlLegal, s.result.hpwlLegal);
    EXPECT_EQ(c.result.hpwl, s.result.hpwl);
    EXPECT_EQ(c.result.overflow, s.result.overflow);
    EXPECT_EQ(c.result.gpIterations, s.result.gpIterations);
    EXPECT_EQ(c.result.legal, s.result.legal);

    // Per-flow counters: bit-identical outside the documented
    // order-dependent keys (pool scheduling, wall-clock sampling). The
    // FFT plan count is compared too: every job builds its own plans.
    EXPECT_EQ(deterministicCounters(c.report.counters),
              deterministicCounters(s.report.counters));

    // Timing structure (never durations): same scopes, same call counts.
    ASSERT_EQ(c.report.timing.size(), s.report.timing.size());
    auto sit = s.report.timing.begin();
    for (const auto& [key, stat] : c.report.timing) {
      EXPECT_EQ(key, sit->first);
      EXPECT_EQ(stat.count, sit->second.count) << key;
      ++sit;
    }
    ASSERT_EQ(c.report.timing.count("gp"), 1u);
    EXPECT_EQ(c.report.timing.at("gp").count, 1);

    // GP convergence trajectories.
    ASSERT_EQ(c.report.gpRuns.size(), s.report.gpRuns.size());
    for (std::size_t r = 0; r < s.report.gpRuns.size(); ++r) {
      EXPECT_EQ(c.report.gpRuns[r].iterations, s.report.gpRuns[r].iterations);
      EXPECT_EQ(c.report.gpRuns[r].hpwl, s.report.gpRuns[r].hpwl);
      EXPECT_EQ(c.report.gpRuns[r].overflow, s.report.gpRuns[r].overflow);
      EXPECT_EQ(c.report.gpRuns[r].finalLambda,
                s.report.gpRuns[r].finalLambda);
    }
  }
}

// With every lane of a machine-wide engine busy, the lanes hold the
// cores, so a job's pool work runs inline on its lane thread. Each run
// report counts that and carries per-label job counts.
TEST(EngineTest, BusyLanesRunPoolJobsInline) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 2) {
    GTEST_SKIP() << "needs at least two hardware threads";
  }
  EngineOptions options;
  options.threads = hw;
  options.maxConcurrentJobs = hw;
  PlacementEngine engine(options);

  // Each lane takes one job and waits in its hook until all are busy.
  std::latch allBusy(hw);
  std::atomic<int> ranOnCallerOnly{0};
  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<PlacementJob> jobs;
  for (int i = 0; i < hw; ++i) {
    dbs.push_back(engineDesign(20 + static_cast<std::uint64_t>(i), 200));
    PlacementJob job;
    job.db = dbs.back().get();
    job.name = "lane" + std::to_string(i);
    job.options = engineFlow();
    job.attemptHook = [&](int) {
      allBusy.arrive_and_wait();
      std::atomic<bool> onWorker{false};
      parallelForBlocked("test/all_lanes_busy", 64, 1,
                         [&](Index, Index, int worker) {
                           if (worker != 0) onWorker.store(true);
                         });
      if (!onWorker.load()) {
        ranOnCallerOnly.fetch_add(1);
      }
    };
    jobs.push_back(std::move(job));
  }
  const BatchReport batch = engine.run(std::move(jobs));
  ASSERT_TRUE(batch.allSucceeded());
  EXPECT_EQ(ranOnCallerOnly.load(), hw);
  for (const JobReport& job : batch.jobs) {
    SCOPED_TRACE(job.name);
    const auto& counters = job.report.counters;
    EXPECT_GE(counters.at("parallel/narrowed"), 1);
    EXPECT_GE(counters.at("parallel/inline/test/all_lanes_busy"), 1);
    // The per-label counts partition the flow's jobs.
    CounterRegistry::Value perLabel = 0;
    for (const auto& [key, value] : counters) {
      if (key.rfind("parallel/jobs/", 0) == 0) {
        perLabel += value;
      }
    }
    EXPECT_EQ(perLabel, counters.at("parallel/jobs"));
  }
}

// Satellite regression: sequential plain placeDesign() calls report from
// zero — the second flow's counters equal the first's instead of
// accumulating process-lifetime totals.
TEST(EngineTest, SequentialFlowsReportFromZero) {
  PlacerOptions options = engineFlow();

  auto db1 = engineDesign(7);
  FlowContext context1;
  RunReport report1;
  placeDesign(*db1, options, context1, &report1);

  auto db2 = engineDesign(7);
  FlowContext context2;
  RunReport report2;
  placeDesign(*db2, options, context2, &report2);

  ASSERT_FALSE(report1.counters.empty());
  EXPECT_EQ(deterministicCounters(report2.counters),
            deterministicCounters(report1.counters));
  ASSERT_EQ(report2.timing.count("gp"), 1u);
  EXPECT_EQ(report2.timing.at("gp").count, 1);
}

// A flow's FFT plans belong to the flow: a second identical float64 flow
// on the same thread builds exactly as many plans as the first instead of
// inheriting anything the first one left behind.
TEST(EngineTest, RepeatedFlowBuildsItsOwnPlans) {
  PlacerOptions options = engineFlow();
  options.precision = Precision::kFloat64;

  RunReport reports[2];
  for (RunReport& report : reports) {
    auto db = engineDesign(7);
    FlowContext context;
    placeDesign(*db, options, context, &report);
  }
  ASSERT_EQ(reports[0].counters.count("fft/plan/create"), 1u);
  EXPECT_GT(reports[0].counters.at("fft/plan/create"), 0);
  ASSERT_EQ(reports[1].counters.count("fft/plan/create"), 1u);
  EXPECT_EQ(reports[1].counters.at("fft/plan/create"),
            reports[0].counters.at("fft/plan/create"));
}

TEST(EngineTest, TimeoutProducesTimedOutStatusWithoutRetry) {
  auto db = engineDesign(11, 300);

  EngineOptions engineOptions;
  engineOptions.jobTimeoutSeconds = 0.005;
  engineOptions.maxJobAttempts = 3;  // timeouts must NOT consume retries
  PlacementEngine engine(engineOptions);

  PlacementJob job;
  job.db = db.get();
  job.name = "slow";
  job.options = engineFlow();
  job.options.gp.maxIterations = 100000;
  job.options.gp.stopOverflow = 0.0001;  // unreachable: must hit deadline

  const BatchReport batch = engine.run({std::move(job)});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_EQ(batch.jobs[0].status, JobStatus::kTimedOut);
  EXPECT_EQ(batch.jobs[0].attempts, 1);
  EXPECT_FALSE(batch.jobs[0].error.empty());
  EXPECT_EQ(batch.timedOut, 1);
  EXPECT_FALSE(batch.allSucceeded());
}

TEST(EngineTest, FailingAttemptIsRetriedThenSucceeds) {
  auto db = engineDesign(12, 300);

  EngineOptions engineOptions;
  engineOptions.maxJobAttempts = 3;
  PlacementEngine engine(engineOptions);

  PlacementJob job;
  job.db = db.get();
  job.name = "flaky";
  job.options = engineFlow();
  job.options.gp.maxIterations = 60;
  job.attemptHook = [](int attempt) {
    if (attempt == 1) {
      throw std::runtime_error("injected failure on first attempt");
    }
  };

  const BatchReport batch = engine.run({std::move(job)});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_EQ(batch.jobs[0].status, JobStatus::kSucceeded);
  EXPECT_EQ(batch.jobs[0].attempts, 2);
  EXPECT_TRUE(batch.jobs[0].error.empty());
  EXPECT_EQ(batch.succeeded, 1);
}

// A flow cancelled mid-GP on its first attempt leaves a checkpoint
// behind; the retry must resume from it (attempt 2, resumed=true) and
// still reproduce an uncheckpointed clean run bit-for-bit.
TEST(EngineTest, RetryResumesFromCheckpointAndMatchesClean) {
  const fs::path dir = fs::temp_directory_path() / "dp_engine_resume_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto cleanDb = engineDesign(7);
  FlowContext cleanContext;
  const FlowResult clean =
      placeDesign(*cleanDb, engineFlow(), cleanContext);

  /// Cancels the current flow once, the first time GP reaches iteration
  /// 60 — the resumed attempt re-passes that index unharmed.
  class CancelOnce final : public TelemetrySink {
   public:
    void onIteration(const IterationStats& stats) override {
      if (!fired_ && stats.iteration >= 60) {
        fired_ = true;
        FlowContext::current().requestCancel();
      }
    }

   private:
    bool fired_ = false;
  } cancel;

  auto db = engineDesign(7);
  EngineOptions engineOptions;
  engineOptions.maxJobAttempts = 2;
  PlacementEngine engine(engineOptions);

  PlacementJob job;
  job.db = db.get();
  job.name = "ckpt_job";
  job.options = engineFlow();
  job.options.checkpointDir = dir.string();
  job.options.checkpointEveryIterations = 25;
  job.options.telemetry = &cancel;

  const BatchReport batch = engine.run({std::move(job)});
  ASSERT_EQ(batch.jobs.size(), 1u);
  const JobReport& report = batch.jobs[0];
  EXPECT_EQ(report.status, JobStatus::kSucceeded);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_TRUE(report.resumed);

  EXPECT_EQ(report.result.hpwlGp, clean.hpwlGp);
  EXPECT_EQ(report.result.hpwlLegal, clean.hpwlLegal);
  EXPECT_EQ(report.result.hpwl, clean.hpwl);
  EXPECT_EQ(report.result.overflow, clean.overflow);
  EXPECT_EQ(report.result.gpIterations, clean.gpIterations);
  EXPECT_EQ(report.result.legal, clean.legal);

  // The completed attempt deleted its checkpoint (engine names it after
  // the job).
  EXPECT_FALSE(fs::exists(dir / "ckpt_job.dpck"));

  // The BatchReport JSON carries the resume marker.
  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(batch.toJson(), flat, &error)) << error;
  EXPECT_EQ(flat.numbers.at("jobs.0.resumed"), 1.0);
  EXPECT_EQ(flat.numbers.at("jobs.0.attempts"), 2.0);
}

TEST(EngineTest, ExhaustedRetriesReportFailed) {
  auto db = engineDesign(13, 300);

  EngineOptions engineOptions;
  engineOptions.maxJobAttempts = 2;
  PlacementEngine engine(engineOptions);

  int attemptsSeen = 0;
  PlacementJob job;
  job.db = db.get();
  job.name = "doomed";
  job.options = engineFlow();
  job.attemptHook = [&attemptsSeen](int attempt) {
    attemptsSeen = attempt;
    throw std::runtime_error("injected failure, attempt " +
                             std::to_string(attempt));
  };

  const BatchReport batch = engine.run({std::move(job)});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_EQ(batch.jobs[0].status, JobStatus::kFailed);
  EXPECT_EQ(batch.jobs[0].attempts, 2);
  EXPECT_EQ(attemptsSeen, 2);
  EXPECT_NE(batch.jobs[0].error.find("attempt 2"), std::string::npos);
  EXPECT_EQ(batch.failed, 1);
  EXPECT_FALSE(batch.allSucceeded());
}

// The BatchReport JSON round-trips through the flat parser and passes the
// checked-in per-run baseline for every job — the shape CI's batch gate
// (tools/run_batch + tools/check_report) relies on.
TEST(EngineTest, BatchReportJsonPassesCheckedInBaseline) {
  std::vector<std::unique_ptr<Database>> dbs;
  EngineOptions engineOptions;
  engineOptions.maxConcurrentJobs = 3;
  PlacementEngine engine(engineOptions);
  BatchReport batch = engine.run(makeJobs(dbs));
  batch.label = "engine_test";
  ASSERT_TRUE(batch.allSucceeded());

  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(batch.toJson(), flat, &error)) << error;
  EXPECT_TRUE(isBatchReport(flat));
  EXPECT_EQ(flat.strings.at("schema"), "dreamplace.batch_report.v1");
  EXPECT_EQ(flat.numbers.at("counts.jobs"), 3.0);
  EXPECT_EQ(flat.numbers.at("counts.succeeded"), 3.0);
  EXPECT_EQ(flat.strings.at("jobs.0.name"), "eng7");
  EXPECT_EQ(flat.strings.at("jobs.1.report.schema"),
            "dreamplace.run_report.v2");
  // The embedded report carries the job's full configuration.
  EXPECT_EQ(flat.strings.at("jobs.0.report.config.gp.solver"),
            solverName(engineFlow().gp.solver));
  EXPECT_EQ(flat.strings.at("jobs.0.report.config.telemetry_label"), "eng7");

  const fs::path baselinePath =
      fs::path(__FILE__).parent_path().parent_path() / "tools" /
      "report_baseline.json";
  FlatJson baseline;
  ASSERT_TRUE(parseJsonFlat(readFile(baselinePath), baseline, &error))
      << error;

  std::vector<BatchJobCheck> jobChecks;
  ASSERT_TRUE(checkBatchReport(flat, baseline, jobChecks, &error)) << error;
  ASSERT_EQ(jobChecks.size(), 3u);
  for (const BatchJobCheck& job : jobChecks) {
    EXPECT_TRUE(job.succeeded) << job.name;
    for (const CheckResult& result : job.results) {
      EXPECT_TRUE(result.passed)
          << job.name << ": " << result.description << " — " << result.detail;
    }
  }
}

// A batch containing a failed job: the job carries no embedded report and
// the batch-level check flags it.
TEST(EngineTest, BatchCheckFlagsUnsuccessfulJobs) {
  auto good = engineDesign(7);
  auto bad = engineDesign(8);

  PlacementJob goodJob;
  goodJob.db = good.get();
  goodJob.name = "good";
  goodJob.options = engineFlow();

  PlacementJob badJob;
  badJob.db = bad.get();
  badJob.name = "bad";
  badJob.options = engineFlow();
  badJob.attemptHook = [](int) {
    throw std::runtime_error("injected failure");
  };

  PlacementEngine engine;
  std::vector<PlacementJob> jobs;
  jobs.push_back(std::move(goodJob));
  jobs.push_back(std::move(badJob));
  const BatchReport batch = engine.run(std::move(jobs));
  EXPECT_EQ(batch.succeeded, 1);
  EXPECT_EQ(batch.failed, 1);

  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(batch.toJson(), flat, &error)) << error;
  EXPECT_EQ(flat.strings.count("jobs.1.report.schema"), 0u);
  EXPECT_NE(flat.strings.at("jobs.1.error").find("injected"),
            std::string::npos);

  const std::string miniBaseline =
      R"({"schema": "dreamplace.report_baseline.v1",
          "checks": [{"path": "result.legal", "op": "eq", "value": 1}]})";
  FlatJson baseline;
  ASSERT_TRUE(parseJsonFlat(miniBaseline, baseline, &error)) << error;
  std::vector<BatchJobCheck> jobChecks;
  ASSERT_TRUE(checkBatchReport(flat, baseline, jobChecks, &error)) << error;
  ASSERT_EQ(jobChecks.size(), 2u);
  EXPECT_TRUE(jobChecks[0].succeeded);
  ASSERT_EQ(jobChecks[0].results.size(), 1u);
  EXPECT_TRUE(jobChecks[0].results[0].passed);
  EXPECT_FALSE(jobChecks[1].succeeded);
  EXPECT_TRUE(jobChecks[1].results.empty());
}

}  // namespace
}  // namespace dreamplace
