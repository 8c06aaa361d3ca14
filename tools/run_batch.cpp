// CI driver for the PlacementEngine batch gate: places N synthetic
// designs concurrently through one engine and writes the BatchReport
// JSON, which check_report then gates per-job against the run-report
// baseline.
//
//   run_batch <batch.json> [jobs] [maxConcurrentJobs] [flags...]
//
// Defaults: 3 jobs, 3 concurrent. Designs are the report_test scale
// (600 cells, 300 GP iterations) with distinct seeds, so every job
// satisfies the same baseline invariants as the single-run gate.
//
// Health-gate flags (docs/OBSERVABILITY.md):
//   --stall-seconds=S        watchdog stall threshold (0 = off)
//   --divergence-ratio=R     watchdog HPWL divergence ratio (0 = off)
//   --divergence-samples=N   consecutive over-ratio samples for a verdict
//   --timeout=S              per-job wall-clock budget (0 = off)
//   --log-level=LEVEL        debug|info|warn|error|silent
//   --inject-diverge         add a job tuned to explode (expects: diverged)
//   --inject-stall           add a job that hangs before the flow
//                            (expects: stalled; requires --stall-seconds)
//
// Resume-gate flags (docs/FLOW.md):
//   --checkpoint-dir=DIR     flow checkpoints for every job (stage
//                            boundaries; enables engine retry-resume)
//   --checkpoint-every=N     additional mid-GP checkpoint period
//   --max-attempts=N         engine maxJobAttempts
//   --inject-interrupt       add a job "resume" running batch0's exact
//                            design that cancels itself once mid-GP; the
//                            retry must resume from the checkpoint and
//                            succeed (expects: succeeded, attempts 2,
//                            resumed). check_report --compare-jobs=
//                            batch0,resume then asserts bit-identical
//                            results. Requires --checkpoint-dir and
//                            --max-attempts >= 2.
//
// Injected jobs are EXPECTED to end in their watchdog verdict: the exit
// code treats "diverge ended diverged" as success and anything else as
// failure, so CI can assert the watchdog actually fired. Every number
// must parse in full; a bad flag or option exits 2 with one error line.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flow_context.h"
#include "common/log.h"
#include "common/parse.h"
#include "gen/netlist_generator.h"
#include "place/engine.h"

namespace {

bool parseFlagValue(const std::string& arg, const char* name,
                    std::string& out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  out = arg.substr(prefix.size());
  return true;
}

/// Cancels its own flow the first time GP reaches `iteration` — and only
/// that once, so the engine's resumed retry sails past the same iteration
/// untouched. onIteration runs on the flow's thread with its context
/// installed, which is exactly what requestCancel needs.
class CancelOnceAtIteration final : public dreamplace::TelemetrySink {
 public:
  explicit CancelOnceAtIteration(int iteration) : iteration_(iteration) {}

  void onIteration(const dreamplace::IterationStats& stats) override {
    if (!fired_ && stats.iteration >= iteration_) {
      fired_ = true;
      dreamplace::FlowContext::current().requestCancel();
    }
  }

 private:
  int iteration_;
  bool fired_ = false;
};

int run(int argc, char** argv) {
  using namespace dreamplace;

  initLogLevelFromEnv();

  EngineOptions engine_options;
  bool inject_diverge = false;
  bool inject_stall = false;
  bool inject_interrupt = false;
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--inject-diverge") {
      inject_diverge = true;
    } else if (arg == "--inject-stall") {
      inject_stall = true;
    } else if (arg == "--inject-interrupt") {
      inject_interrupt = true;
    } else if (parseFlagValue(arg, "--checkpoint-dir", value)) {
      checkpoint_dir = value;
    } else if (parseFlagValue(arg, "--checkpoint-every", value)) {
      checkpoint_every = parseNumber<int>(value, "--checkpoint-every");
    } else if (parseFlagValue(arg, "--max-attempts", value)) {
      engine_options.maxJobAttempts =
          parseNumber<int>(value, "--max-attempts");
    } else if (parseFlagValue(arg, "--stall-seconds", value)) {
      engine_options.stallSeconds =
          parseNumber<double>(value, "--stall-seconds");
    } else if (parseFlagValue(arg, "--divergence-ratio", value)) {
      engine_options.divergenceHpwlRatio =
          parseNumber<double>(value, "--divergence-ratio");
    } else if (parseFlagValue(arg, "--divergence-samples", value)) {
      engine_options.divergenceSamples =
          parseNumber<int>(value, "--divergence-samples");
    } else if (parseFlagValue(arg, "--timeout", value)) {
      engine_options.jobTimeoutSeconds =
          parseNumber<double>(value, "--timeout");
    } else if (parseFlagValue(arg, "--log-level", value)) {
      LogLevel level = LogLevel::kInfo;
      if (!parseLogLevel(value, level)) {
        std::fprintf(stderr, "error: unknown log level '%s'\n",
                     value.c_str());
        return 2;
      }
      setLogLevel(level);
    } else if (arg.compare(0, 2, "--") == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (positional.empty() || positional.size() > 3) {
    std::fprintf(stderr,
                 "usage: %s <batch.json> [jobs=3] [maxConcurrentJobs=3] "
                 "[flags...]\n",
                 argv[0]);
    return 2;
  }
  const std::string out_path = positional[0];
  const int num_jobs =
      positional.size() > 1 ? parseNumber<int>(positional[1], "jobs") : 3;
  const int concurrent =
      positional.size() > 2
          ? parseNumber<int>(positional[2], "maxConcurrentJobs")
          : 3;
  if (num_jobs < 1 || concurrent < 1) {
    std::fprintf(stderr, "error: jobs and maxConcurrentJobs must be >= 1\n");
    return 2;
  }
  engine_options.maxConcurrentJobs = concurrent;
  engine_options.validate();  // before any design is generated
  if (inject_stall && engine_options.stallSeconds <= 0.0) {
    std::fprintf(stderr, "error: --inject-stall requires --stall-seconds\n");
    return 2;
  }
  if (inject_diverge && engine_options.divergenceHpwlRatio <= 0.0) {
    std::fprintf(stderr,
                 "error: --inject-diverge requires --divergence-ratio\n");
    return 2;
  }
  if (inject_interrupt &&
      (checkpoint_dir.empty() || engine_options.maxJobAttempts < 2)) {
    std::fprintf(stderr,
                 "error: --inject-interrupt requires --checkpoint-dir and "
                 "--max-attempts >= 2\n");
    return 2;
  }

  std::vector<std::unique_ptr<Database>> designs;
  std::vector<PlacementJob> jobs;
  std::map<std::string, const char*> expected;  // injected job -> status
  for (int i = 0; i < num_jobs; ++i) {
    GeneratorConfig cfg;
    cfg.designName = "batch" + std::to_string(i);
    cfg.numCells = 600;
    cfg.utilization = 0.7;
    cfg.seed = 7 + static_cast<std::uint64_t>(i);
    designs.push_back(generateNetlist(cfg));

    PlacementJob job;
    job.db = designs.back().get();
    job.name = cfg.designName;
    job.options.gp.maxIterations = 300;
    job.options.gp.binsMax = 64;
    job.options.dp.passes = 1;
    job.options.telemetryLabel = cfg.designName;
    job.options.checkpointDir = checkpoint_dir;
    job.options.checkpointEveryIterations = checkpoint_every;
    jobs.push_back(std::move(job));
  }

  std::unique_ptr<CancelOnceAtIteration> interrupt_sink;
  if (inject_interrupt) {
    // Exactly batch0's design and flow options (generator seed 7), so the
    // resumed run's report must be bit-identical to batch0's — that is
    // what check_report --compare-jobs=batch0,resume asserts. Only the
    // names differ (distinct checkpoint file, distinct report label),
    // plus the sink that cancels the first attempt mid-GP.
    GeneratorConfig cfg;
    cfg.designName = "resume";
    cfg.numCells = 600;
    cfg.utilization = 0.7;
    cfg.seed = 7;
    designs.push_back(generateNetlist(cfg));

    interrupt_sink = std::make_unique<CancelOnceAtIteration>(60);
    PlacementJob job;
    job.db = designs.back().get();
    job.name = cfg.designName;
    job.options.gp.maxIterations = 300;
    job.options.gp.binsMax = 64;
    job.options.dp.passes = 1;
    job.options.telemetryLabel = cfg.designName;
    job.options.checkpointDir = checkpoint_dir;
    job.options.checkpointEveryIterations = checkpoint_every;
    job.options.telemetry = interrupt_sink.get();
    jobs.push_back(std::move(job));
  }

  if (inject_diverge) {
    // SGD with an absurd learning rate: positions explode within a few
    // iterations, so the published HPWL blows past the running best (or
    // goes non-finite) and the watchdog must deliver `diverged` long
    // before the iteration cap or any --timeout.
    GeneratorConfig cfg;
    cfg.designName = "diverge";
    cfg.numCells = 400;
    cfg.utilization = 0.7;
    cfg.seed = 101;
    designs.push_back(generateNetlist(cfg));

    PlacementJob job;
    job.db = designs.back().get();
    job.name = cfg.designName;
    job.options.gp.solver = SolverKind::kSgdMomentum;
    job.options.gp.lr = 1.0e6;
    job.options.gp.maxIterations = 100000;
    job.options.gp.binsMax = 64;
    job.options.telemetryLabel = cfg.designName;
    jobs.push_back(std::move(job));
    expected[cfg.designName] = "diverged";
  }

  if (inject_stall) {
    // The attempt hook runs with the job's FlowContext installed and
    // never returns on its own; the watchdog's stall policy must cancel
    // it (the hook polls throwIfInterrupted, the cooperative cancel
    // point).
    GeneratorConfig cfg;
    cfg.designName = "stall";
    cfg.numCells = 400;
    cfg.utilization = 0.7;
    cfg.seed = 102;
    designs.push_back(generateNetlist(cfg));

    PlacementJob job;
    job.db = designs.back().get();
    job.name = cfg.designName;
    job.options.gp.binsMax = 64;
    job.options.telemetryLabel = cfg.designName;
    job.attemptHook = [](int) {
      while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        FlowContext::current().throwIfInterrupted();
      }
    };
    jobs.push_back(std::move(job));
    expected[cfg.designName] = "stalled";
  }

  PlacementEngine engine(engine_options);
  const BatchReport batch = engine.run(std::move(jobs));

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << batch.toJson() << '\n';
  out.close();

  bool ok = true;
  for (const JobReport& job : batch.jobs) {
    const auto it = expected.find(job.name);
    const char* want = it == expected.end() ? "succeeded" : it->second;
    bool matched = std::string(statusName(job.status)) == want;
    if (inject_interrupt && job.name == "resume" &&
        (job.attempts < 2 || !job.resumed)) {
      // The injected cancel must have cost an attempt AND the retry must
      // have continued from the checkpoint; a silent from-scratch restart
      // would still "succeed" but prove nothing about resume.
      matched = false;
    }
    std::printf("%-10s %-10s attempts=%d resumed=%d hpwl=%.6e overflow=%.4f "
                "legal=%d wall=%.1fs%s\n",
                job.name.c_str(), statusName(job.status), job.attempts,
                job.resumed ? 1 : 0, job.result.hpwl, job.result.overflow,
                job.result.legal ? 1 : 0, job.wallSeconds,
                matched ? "" : "  [UNEXPECTED]");
    if (!matched) {
      ok = false;
    }
    if (job.status == JobStatus::kSucceeded && !job.result.legal) {
      ok = false;
    }
  }
  std::printf("batch: %d/%zu succeeded (%d diverged, %d stalled), "
              "wall %.1fs aggregate %.1fs -> %s\n",
              batch.succeeded, batch.jobs.size(), batch.diverged,
              batch.stalled, batch.wallSeconds, batch.aggregateSeconds,
              out_path.c_str());
  return ok ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
