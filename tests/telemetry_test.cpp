// Coverage for the observability stack (docs/OBSERVABILITY.md): the
// TelemetrySink API wired into the kernel-GP loop, the JSONL sink, the
// loop's trace counter tracks, and the flow-level exports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flow_context.h"
#include "gen/netlist_generator.h"
#include "gp/global_placer.h"
#include "gp/telemetry.h"
#include "place/placer.h"
#include "place/report.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> smallDesign(std::uint64_t seed = 41,
                                      Index cells = 400) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

GlobalPlacerOptions fastOptions() {
  GlobalPlacerOptions options;
  options.maxIterations = 400;
  options.binsMax = 64;
  return options;
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string tempPath(const char* name) { return ::testing::TempDir() + name; }

TEST(TelemetryTest, RecordingSinkSeesEveryIteration) {
  auto db = smallDesign();
  RecordingTelemetrySink sink;
  GlobalPlacerOptions options = fastOptions();
  options.telemetry = &sink;
  options.telemetryLabel = "unit";
  GlobalPlacer<double> placer(*db, options);
  const GlobalPlacerResult result = placer.run();

  ASSERT_EQ(sink.runs().size(), 1u);
  const TelemetryRunInfo& info = sink.runs().front();
  EXPECT_EQ(info.label, "unit");
  EXPECT_EQ(info.numMovable, db->numMovable());
  EXPECT_EQ(info.numNets, db->numNets());
  EXPECT_GE(info.numNodes, db->numMovable());  // movable + fillers
  EXPECT_FALSE(info.solver.empty());

  ASSERT_EQ(static_cast<int>(sink.iterations().size()), result.iterations);
  for (int i = 0; i < result.iterations; ++i) {
    const IterationStats& stats = sink.iterations()[i];
    EXPECT_EQ(stats.iteration, i);
    EXPECT_TRUE(std::isfinite(stats.objective));
    EXPECT_GT(stats.hpwl, 0.0);
    EXPECT_GT(stats.wirelength, 0.0);
    EXPECT_GT(stats.gamma, 0.0);
    EXPECT_GT(stats.lambda, 0.0);
    EXPECT_GT(stats.stepSize, 0.0);
    EXPECT_GE(stats.overflow, 0.0);
    EXPECT_GE(stats.wlOpSeconds, 0.0);
    EXPECT_GE(stats.densityOpSeconds, 0.0);
  }
  // The per-iteration op times must account for real work, not stay zero.
  double wl_total = 0.0;
  for (const IterationStats& stats : sink.iterations()) {
    wl_total += stats.wlOpSeconds;
  }
  EXPECT_GT(wl_total, 0.0);

  ASSERT_EQ(sink.summaries().size(), 1u);
  const GlobalPlacerResult& summary = sink.summaries().front();
  EXPECT_EQ(summary.iterations, result.iterations);
  EXPECT_DOUBLE_EQ(summary.hpwl, result.hpwl);
  EXPECT_DOUBLE_EQ(summary.overflow, result.overflow);
  EXPECT_GT(summary.seconds, 0.0);
}

TEST(TelemetryTest, JsonlSinkWritesOneRecordPerIteration) {
  const std::string path = tempPath("telemetry_test_gp.jsonl");
  auto db = smallDesign();
  GlobalPlacerOptions options = fastOptions();
  int iterations = 0;
  {
    JsonlTelemetrySink sink(path);
    options.telemetry = &sink;
    options.telemetryLabel = "jsonl-design";
    GlobalPlacer<double> placer(*db, options);
    iterations = placer.run().iterations;
  }

  const std::vector<std::string> lines = readLines(path);
  std::remove(path.c_str());
  // Header + one record per iteration + run-end marker.
  ASSERT_EQ(static_cast<int>(lines.size()), iterations + 2);
  EXPECT_NE(lines.front().find("\"run\":\"jsonl-design\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"run_end\""), std::string::npos);
  const char* keys[] = {"\"iter\":",     "\"objective\":", "\"wl\":",
                        "\"density\":",  "\"lambda\":",    "\"gamma\":",
                        "\"overflow\":", "\"hpwl\":",      "\"step\":"};
  for (int i = 0; i < iterations; ++i) {
    const std::string& line = lines[1 + i];
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key : keys) {
      EXPECT_NE(line.find(key), std::string::npos)
          << "missing " << key << " in: " << line;
    }
    EXPECT_NE(line.find("\"iter\":" + std::to_string(i)), std::string::npos);
  }
}

TEST(TelemetryTest, FileSinksThrowOnUnwritablePath) {
  EXPECT_THROW(JsonlTelemetrySink("/nonexistent-dir/telemetry.jsonl"),
               std::runtime_error);
}

TEST(TelemetryTest, TraceSinkEmitsCounterTracks) {
  // The GP loop emits its counter tracks itself whenever the flow's trace
  // recorder is enabled; no sink is involved.
  FlowContext::Config config;
  config.privateTrace = true;
  FlowContext context(config);
  FlowContextScope scope(context);
  TraceRecorder& trace = context.trace();
  trace.setEnabled(true);
  auto db = smallDesign();
  GlobalPlacer<double> placer(*db, fastOptions());
  const int iterations = placer.run().iterations;
  trace.setEnabled(false);
  const std::string json = trace.toJson();
  for (const char* track :
       {"gp.overflow", "gp.hpwl", "gp.lambda", "gp.gamma", "gp.step"}) {
    const std::string name = std::string("\"name\":\"") + track + "\"";
    int count = 0;
    for (std::size_t at = json.find(name); at != std::string::npos;
         at = json.find(name, at + 1)) {
      ++count;
    }
    EXPECT_EQ(count, iterations) << track;
  }
}

TEST(TelemetryTest, FlowExportsJsonlCsvAndTrace) {
  const std::string jsonl = tempPath("telemetry_test_flow.jsonl");
  const std::string trace_path = tempPath("telemetry_test_flow.trace.json");
  auto db = smallDesign(59, 300);
  PlacerOptions options;
  options.gp = fastOptions();
  options.dp.passes = 1;
  options.traceFile = trace_path;
  options.telemetryLabel = "flow-design";
  FlowContext::Config config;
  config.privateTrace = true;
  FlowContext context(config);
  FlowResult result;
  {
    JsonlTelemetrySink sink(jsonl);
    options.telemetry = &sink;
    result = placeDesign(*db, options, context);
  }

  EXPECT_GT(result.gpIterations, 0);
  const std::vector<std::string> jsonl_lines = readLines(jsonl);
  std::remove(jsonl.c_str());
  ASSERT_EQ(static_cast<int>(jsonl_lines.size()), result.gpIterations + 2);
  EXPECT_NE(jsonl_lines.front().find("\"run\":\"flow-design\""),
            std::string::npos);
  EXPECT_NE(jsonl_lines.back().find("\"run_end\""), std::string::npos);

  // The trace must cover the whole flow: GP op scopes from ScopedTimer,
  // the LG stage, and the GP counter tracks.
  std::ifstream in(trace_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace_json = buffer.str();
  std::remove(trace_path.c_str());
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"gp/op/wirelength\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"gp/op/density\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"lg\""), std::string::npos);
  for (const char* track : {"\"gp.overflow\"", "\"gp.hpwl\"",
                            "\"gp.lambda\"", "\"gp.gamma\"",
                            "\"gp.step\""}) {
    EXPECT_NE(trace_json.find(track), std::string::npos) << track;
  }
  // Recording was switched off again when the flow finished.
  EXPECT_FALSE(context.trace().enabled());
}

TEST(TelemetryTest, RoutabilityReportHasOneGpRunPerRestart) {
  GeneratorConfig cfg;
  cfg.numCells = 600;
  cfg.utilization = 0.55;
  cfg.seed = 79;
  auto db = generateNetlist(cfg);
  PlacerOptions options;
  options.gp = fastOptions();
  options.gp.maxIterations = 300;
  options.dp.passes = 1;
  options.routability = true;
  options.routabilityOptions.maxRounds = 3;
  options.routabilityOptions.router.gridX = 24;
  options.routabilityOptions.router.gridY = 24;
  // Very tight capacity forces inflation, hence GP restarts.
  options.routabilityOptions.router.capacityPerLayer = 1.5;
  RecordingTelemetrySink sink;
  options.telemetry = &sink;
  FlowContext context;
  RunReport report;
  placeDesign(*db, options, context, &report);

  EXPECT_GE(report.gpRuns.size(), 2u);
  ASSERT_EQ(report.gpRuns.size(), sink.summaries().size());
  for (std::size_t i = 0; i < report.gpRuns.size(); ++i) {
    EXPECT_EQ(report.gpRuns[i].iterations, sink.summaries()[i].iterations);
    EXPECT_EQ(report.gpRuns[i].hpwl, sink.summaries()[i].hpwl);
    EXPECT_EQ(report.gpRuns[i].finalLambda, sink.summaries()[i].finalLambda);
  }
}

TEST(TelemetryTest, NullSinkKeepsGpByteIdentical) {
  // Telemetry off must not perturb the optimization (determinism check:
  // same seed with and without a sink gives bit-identical results).
  auto db1 = smallDesign(43);
  auto db2 = smallDesign(43);
  RecordingTelemetrySink sink;
  GlobalPlacerOptions with = fastOptions();
  with.telemetry = &sink;
  GlobalPlacer<double> p1(*db1, with);
  GlobalPlacer<double> p2(*db2, fastOptions());
  const GlobalPlacerResult r1 = p1.run();
  const GlobalPlacerResult r2 = p2.run();
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_DOUBLE_EQ(r1.hpwl, r2.hpwl);
}

}  // namespace
}  // namespace dreamplace
