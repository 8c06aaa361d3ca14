// Live health subsystem (docs/OBSERVABILITY.md): the seqlock heartbeat
// (common/heartbeat.h) must never show a torn snapshot to a concurrent
// reader; the engine watchdog must cancel diverging and stalled jobs
// quickly, deliver terminal verdicts that are never retried, and surface
// the health section in the BatchReport; requested observability exports
// (run report, telemetry JSONL) must fail the flow loudly when unwritable
// instead of silently vanishing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/flow_context.h"
#include "common/heartbeat.h"
#include "gen/netlist_generator.h"
#include "place/engine.h"
#include "place/report.h"
#include "place/report_check.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> healthDesign(std::uint64_t seed,
                                       Index numCells = 400) {
  GeneratorConfig cfg;
  cfg.designName = "health" + std::to_string(seed);
  cfg.numCells = numCells;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

// --- Heartbeat: the watchdog's only input. ------------------------------

TEST(HeartbeatTest, StartsUnpublishedAndRoundTripsPublishes) {
  HeartbeatState heartbeat;
  HeartbeatSnapshot snapshot = heartbeat.read();
  EXPECT_EQ(snapshot.sequence, 0u);
  EXPECT_EQ(snapshot.stage, FlowStage::kIdle);

  heartbeat.beginStage(FlowStage::kGlobalPlacement);
  snapshot = heartbeat.read();
  EXPECT_NE(snapshot.sequence, 0u);
  EXPECT_EQ(snapshot.stage, FlowStage::kGlobalPlacement);
  EXPECT_EQ(snapshot.iteration, -1);

  heartbeat.publishIteration(3, 123.5, 0.42);
  snapshot = heartbeat.read();
  EXPECT_EQ(snapshot.iteration, 3);
  EXPECT_EQ(snapshot.hpwl, 123.5);
  EXPECT_EQ(snapshot.overflow, 0.42);
  EXPECT_EQ(snapshot.sequence % 2, 0u);
}

TEST(HeartbeatTest, TracksRunningBestOverFiniteHpwls) {
  HeartbeatState heartbeat;
  heartbeat.beginStage(FlowStage::kGlobalPlacement);
  heartbeat.publishIteration(0, 100.0, 1.0);
  EXPECT_EQ(heartbeat.read().bestHpwl, 100.0);
  heartbeat.publishIteration(1, 150.0, 0.9);
  EXPECT_EQ(heartbeat.read().bestHpwl, 100.0);
  heartbeat.publishIteration(2, 50.0, 0.8);
  EXPECT_EQ(heartbeat.read().bestHpwl, 50.0);
  // Non-finite publishes never become the best (the divergence ratio
  // must keep a sane denominator).
  heartbeat.publishIteration(3, std::nan(""), 0.7);
  const HeartbeatSnapshot snapshot = heartbeat.read();
  EXPECT_TRUE(std::isnan(snapshot.hpwl));
  EXPECT_EQ(snapshot.bestHpwl, 50.0);
}

TEST(HeartbeatTest, StageNames) {
  EXPECT_STREQ(flowStageName(FlowStage::kIdle), "idle");
  EXPECT_STREQ(flowStageName(FlowStage::kGlobalPlacement), "gp");
  EXPECT_STREQ(flowStageName(FlowStage::kLegalization), "lg");
  EXPECT_STREQ(flowStageName(FlowStage::kDetailedPlacement), "dp");
  EXPECT_STREQ(flowStageName(FlowStage::kDone), "done");
}

// Seqlock torn-read check: the writer maintains hpwl == 2 * iteration
// and overflow == -iteration; a concurrent reader must never observe a
// snapshot violating the invariant.
TEST(HeartbeatTest, ConcurrentReaderNeverSeesTornSnapshot) {
  HeartbeatState heartbeat;
  heartbeat.beginStage(FlowStage::kGlobalPlacement);
  // Seed one publish synchronously: the reader loop may finish before the
  // writer thread is ever scheduled.
  heartbeat.publishIteration(0, 0.0, 0.0);
  std::atomic<bool> stop{false};

  std::thread writer([&heartbeat, &stop] {
    int i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      heartbeat.publishIteration(i, 2.0 * i, -1.0 * i);
      ++i;
    }
  });

  int consistent = 0;
  for (int r = 0; r < 20000; ++r) {
    const HeartbeatSnapshot snapshot = heartbeat.read();
    if (snapshot.iteration >= 0) {
      ASSERT_EQ(snapshot.hpwl, 2.0 * snapshot.iteration);
      ASSERT_EQ(snapshot.overflow, -1.0 * snapshot.iteration);
      ++consistent;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(consistent, 0);
}

// --- Watchdog: stall and divergence policies. ---------------------------

// A diverging job (SGD with an absurd learning rate) must be cancelled by
// the watchdog with terminal status `diverged` — long before the job
// timeout, without consuming retry attempts, and with the health section
// populated in both the struct and the JSON.
TEST(HealthTest, WatchdogCancelsDivergingJobTerminally) {
  auto db = healthDesign(21);

  EngineOptions engineOptions;
  engineOptions.jobTimeoutSeconds = 120.0;  // watchdog must win, not this
  engineOptions.maxJobAttempts = 3;         // verdicts are never retried
  engineOptions.divergenceHpwlRatio = 10.0;
  engineOptions.divergenceSamples = 2;
  engineOptions.watchdogPeriodSeconds = 0.01;
  PlacementEngine engine(engineOptions);

  PlacementJob job;
  job.db = db.get();
  job.name = "exploding";
  job.options.gp.solver = SolverKind::kSgdMomentum;
  job.options.gp.lr = 1.0e6;
  job.options.gp.maxIterations = 1000000;
  job.options.gp.binsMax = 64;

  const auto start = std::chrono::steady_clock::now();
  BatchReport batch = engine.run({std::move(job)});
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_EQ(batch.jobs.size(), 1u);
  const JobReport& report = batch.jobs[0];
  EXPECT_EQ(report.status, JobStatus::kDiverged);
  EXPECT_EQ(report.attempts, 1);  // terminal: no retry despite 3 attempts
  EXPECT_EQ(batch.diverged, 1);
  EXPECT_FALSE(batch.allSucceeded());
  EXPECT_LT(wall, 60.0);  // far below jobTimeoutSeconds

  EXPECT_TRUE(report.health.watchdogEnabled);
  EXPECT_EQ(report.health.verdict, "diverged");
  EXPECT_FALSE(report.health.detail.empty());
  EXPECT_GE(report.health.checks, 1);
  EXPECT_GT(report.health.bestHpwl, 0.0);

  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(batch.toJson(), flat, &error)) << error;
  EXPECT_EQ(flat.strings.at("jobs.0.status"), "diverged");
  EXPECT_EQ(flat.strings.at("jobs.0.health.verdict"), "diverged");
  EXPECT_GE(flat.numbers.at("jobs.0.health.checks"), 1.0);
  EXPECT_EQ(flat.numbers.at("counts.diverged"), 1.0);
}

// A hook that hangs before the flow starts (no heartbeat at all) must be
// cancelled by the stall policy — the hook runs with the attempt's
// FlowContext installed, so throwIfInterrupted() is its cancel point.
TEST(HealthTest, WatchdogCancelsStalledJobTerminally) {
  auto db = healthDesign(22);

  EngineOptions engineOptions;
  engineOptions.maxJobAttempts = 3;
  engineOptions.stallSeconds = 0.15;
  engineOptions.watchdogPeriodSeconds = 0.01;
  PlacementEngine engine(engineOptions);

  PlacementJob job;
  job.db = db.get();
  job.name = "hung";
  job.attemptHook = [](int) {
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      FlowContext::current().throwIfInterrupted();
    }
  };

  BatchReport batch = engine.run({std::move(job)});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_EQ(batch.jobs[0].status, JobStatus::kStalled);
  EXPECT_EQ(batch.jobs[0].attempts, 1);
  EXPECT_EQ(batch.jobs[0].health.verdict, "stalled");
  EXPECT_FALSE(batch.jobs[0].health.detail.empty());
  EXPECT_EQ(batch.stalled, 1);
  EXPECT_FALSE(batch.allSucceeded());
}

// A healthy job under an active watchdog: no verdict, health section
// still populated with the last observed progress.
TEST(HealthTest, HealthyJobReportsCleanHealthSection) {
  auto db = healthDesign(23, 300);

  EngineOptions engineOptions;
  engineOptions.stallSeconds = 60.0;
  engineOptions.divergenceHpwlRatio = 1.0e6;
  engineOptions.watchdogPeriodSeconds = 0.01;
  PlacementEngine engine(engineOptions);

  PlacementJob job;
  job.db = db.get();
  job.name = "healthy";
  job.options.gp.maxIterations = 200;
  job.options.gp.binsMax = 64;

  BatchReport batch = engine.run({std::move(job)});
  ASSERT_EQ(batch.jobs.size(), 1u);
  ASSERT_EQ(batch.jobs[0].status, JobStatus::kSucceeded);
  const JobHealth& health = batch.jobs[0].health;
  EXPECT_TRUE(health.watchdogEnabled);
  EXPECT_TRUE(health.verdict.empty());
  EXPECT_GE(health.checks, 1);

  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(batch.toJson(), flat, &error)) << error;
  EXPECT_EQ(flat.numbers.at("jobs.0.health.watchdog"), 1.0);
  EXPECT_EQ(flat.strings.count("jobs.0.health.verdict"), 1u);
}

// checkBatchReport with per-job expected statuses: an injected sick job
// passes when (and only when) it lands in its expected terminal state.
TEST(HealthTest, BatchCheckHonorsExpectedStatus) {
  const std::string batchJson = R"({
    "schema": "dreamplace.batch_report.v1",
    "counts": {"jobs": 2, "succeeded": 1, "diverged": 1},
    "jobs": [
      {"name": "good", "status": "succeeded",
       "report": {"result": {"legal": true}}},
      {"name": "sick", "status": "diverged"}
    ]})";
  const std::string miniBaseline =
      R"({"schema": "dreamplace.report_baseline.v1",
          "checks": [{"path": "result.legal", "op": "eq", "value": 1}]})";

  FlatJson batch;
  FlatJson baseline;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(batchJson, batch, &error)) << error;
  ASSERT_TRUE(parseJsonFlat(miniBaseline, baseline, &error)) << error;
  ASSERT_TRUE(isBatchReport(batch));

  // Without expectations the diverged job fails the gate.
  std::vector<BatchJobCheck> jobs;
  ASSERT_TRUE(checkBatchReport(batch, baseline, jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_TRUE(jobs[0].succeeded);
  EXPECT_FALSE(jobs[1].succeeded);
  EXPECT_EQ(jobs[1].expected, "succeeded");

  // With the expectation it passes; the baseline is not applied to it.
  BatchCheckOptions options;
  options.expectedStatus["sick"] = "diverged";
  ASSERT_TRUE(checkBatchReport(batch, baseline, jobs, &error, options))
      << error;
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_TRUE(jobs[1].succeeded);
  EXPECT_EQ(jobs[1].expected, "diverged");
  EXPECT_TRUE(jobs[1].results.empty());

  // An expectation can also demand failure of a job that succeeded.
  options.expectedStatus["good"] = "failed";
  ASSERT_TRUE(checkBatchReport(batch, baseline, jobs, &error, options))
      << error;
  EXPECT_FALSE(jobs[0].succeeded);
}

// --- Sink error paths: a requested export must fail the flow loudly. ----

TEST(HealthTest, UnwritableReportPathFailsJob) {
  auto db = healthDesign(24, 200);
  PlacementEngine engine;

  PlacementJob job;
  job.db = db.get();
  job.name = "badreport";
  job.options.gp.maxIterations = 40;
  job.options.gp.binsMax = 64;
  job.options.reportJson = "/nonexistent_dir_dp/report.json";

  BatchReport batch = engine.run({std::move(job)});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_EQ(batch.jobs[0].status, JobStatus::kFailed);
  EXPECT_NE(batch.jobs[0].error.find("report: cannot write"),
            std::string::npos)
      << batch.jobs[0].error;
}

// A nonzero trace/dropped counter surfaces as a run-report warning.
TEST(HealthTest, TraceDropWarningSurfacesInRunReport) {
  auto db = healthDesign(27, 100);
  PlacerOptions options;
  FlowResult result;
  FlowContext context;
  context.counters().add("trace/dropped", 5);

  const RunReport report =
      buildRunReport(*db, options, result, {}, context);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("trace"), std::string::npos);
  EXPECT_NE(report.toJson().find("\"warnings\""), std::string::npos);
}

}  // namespace
}  // namespace dreamplace
