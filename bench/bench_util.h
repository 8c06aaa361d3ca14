// Shared helpers for the paper-reproduction benchmarks.
//
// The paper compares three implementations: multithreaded RePlAce, the
// DREAMPlace CPU backend, and the DREAMPlace GPU backend. On a 4-core
// CPU the comparison maps onto three configurations of
// the same placer that differ exactly in the algorithmic choices the
// paper credits for the speedup (see DESIGN.md Sec. 1):
//
//   RePlAce-mode       : bound-to-bound-style spread initial placement
//                        (the costly GP-IP phase of Fig. 3), net-by-net
//                        wirelength with stored intermediates, naive
//                        density scatter, row-column 2N-point-FFT DCT,
//                        original eq. (18) mu schedule.
//   DREAMPlace (CPU)   : random-center init, merged wirelength kernel
//                        (Alg. 2), sorted density scatter, row-column
//                        N-point-FFT DCT (Alg. 3).
//   DREAMPlace (fast)  : as CPU plus the single-pass 2-D FFT DCT
//                        (Alg. 4) — the closest CPU analog of the paper's
//                        GPU kernel set (the GPU-only 2x2 sub-rectangle
//                        trick is ablated separately in Fig. 6).
//
// Absolute speedups are hardware-bound (the paper's 40x needs a V100);
// the *ordering* and the per-kernel ratios (Figs. 10-12) are what these
// benches reproduce.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "gen/suites.h"
#include "gp/global_placer.h"
#include "gp/telemetry.h"
#include "place/placer.h"
#include "place/report.h"

namespace dreamplace::bench {

// ---------------------------------------------------------------------------
// Observability exports (docs/OBSERVABILITY.md). All off by default:
//   --trace=<file>            Chrome trace JSON (chrome://tracing)
//   --telemetry-jsonl=<file>  per-iteration GP records, one JSON per line
//   --telemetry-csv=<file>    per-run GP summary rows
//   --report=<file>           end-of-flow run report JSON (place/report.h)
//   --report-text=<file>      human-readable rendering of the run report
//   --threads=N               parallel-runtime worker threads (0 = auto)
//   --log-level=LEVEL         debug|info|warn|error|silent
// Environment fallbacks: DREAMPLACE_TRACE, DREAMPLACE_TELEMETRY_JSONL,
// DREAMPLACE_TELEMETRY_CSV, DREAMPLACE_REPORT, DREAMPLACE_REPORT_TEXT,
// DREAMPLACE_THREADS, DREAMPLACE_LOG_LEVEL, DREAMPLACE_LOG_JSON.
// Any other flag except --json=<file> and --benchmark_* exits with status
// 2 and names the flag.
// ---------------------------------------------------------------------------

/// The shared bench command line, parsed once. flowOptions() turns it
/// into a flow-scoped PlacerOptions, so every bench starts from the same
/// configuration surface instead of re-implementing flag handling.
struct BenchFlags {
  std::string traceFile;
  std::string jsonlFile;
  std::string csvFile;
  std::string reportFile;
  std::string reportTextFile;
  int threads = 0;  ///< 0 = auto (DREAMPLACE_THREADS / hw concurrency).

  /// Flow options with the parsed flags applied. Telemetry *file* exports
  /// stay owned by the TelemetrySession (one file across all flows of a
  /// sweep); attach() wires them per flow.
  PlacerOptions flowOptions() const {
    PlacerOptions options;
    options.threads = threads;
    return options;
  }
};

inline BenchFlags parseBenchFlags(int argc, char** argv) {
  BenchFlags args;
  initLogLevelFromEnv();
  initLogJsonFromEnv();
  const auto fromEnv = [](const char* name) {
    const char* v = std::getenv(name);
    return v ? std::string(v) : std::string();
  };
  args.traceFile = fromEnv("DREAMPLACE_TRACE");
  args.jsonlFile = fromEnv("DREAMPLACE_TELEMETRY_JSONL");
  args.csvFile = fromEnv("DREAMPLACE_TELEMETRY_CSV");
  args.reportFile = fromEnv("DREAMPLACE_REPORT");
  args.reportTextFile = fromEnv("DREAMPLACE_REPORT_TEXT");
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto match = [arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = match("--trace=")) {
      args.traceFile = v;
    } else if (const char* v = match("--telemetry-jsonl=")) {
      args.jsonlFile = v;
    } else if (const char* v = match("--telemetry-csv=")) {
      args.csvFile = v;
    } else if (const char* v = match("--report-text=")) {
      args.reportTextFile = v;
    } else if (const char* v = match("--report=")) {
      args.reportFile = v;
    } else if (const char* v = match("--threads=")) {
      args.threads = std::atoi(v);
    } else if (const char* v = match("--log-level=")) {
      LogLevel level = LogLevel::kInfo;
      if (!parseLogLevel(v, level)) {
        std::fprintf(stderr, "error: unknown log level '%s'\n", v);
        std::exit(2);
      }
      setLogLevel(level);
    } else if (!match("--json=") && !match("--benchmark_")) {
      // --json= is read by benchJsonPath, --benchmark_* by google-benchmark.
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
      std::exit(2);
    }
  }
  return args;
}

/// RAII bench telemetry session: enables trace recording and opens the
/// requested sinks for the program's lifetime; writes the trace file and
/// flushes on destruction. sink() is null when nothing was requested, so
/// an unconfigured bench pays nothing.
class TelemetrySession {
 public:
  explicit TelemetrySession(const BenchFlags& args)
      : trace_file_(args.traceFile),
        report_file_(args.reportFile),
        report_text_file_(args.reportTextFile) {
    // Fail fast with a clean message on an unwritable export path: the
    // user asked for a file, and discovering it is missing only after a
    // long sweep would waste the whole run.
    try {
      if (!args.jsonlFile.empty()) {
        jsonl_ = std::make_unique<JsonlTelemetrySink>(args.jsonlFile);
        mux_.addSink(jsonl_.get());
      }
      if (!args.csvFile.empty()) {
        csv_ = std::make_unique<CsvTelemetrySink>(args.csvFile);
        mux_.addSink(csv_.get());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(1);
    }
    if (!trace_file_.empty()) {
      TraceRecorder::instance().setEnabled(true);
      mux_.addSink(&trace_sink_);
    }
    // --threads=N beats DREAMPLACE_THREADS (the pool itself reads the env
    // var when the request is 0/auto, so 0 needs no action here).
    if (args.threads > 0) {
      ThreadPool::instance().setThreads(args.threads);
    }
  }

  TelemetrySession(int argc, char** argv)
      : TelemetrySession(parseBenchFlags(argc, argv)) {}

  ~TelemetrySession() {
    if (!trace_file_.empty()) {
      TraceRecorder& trace = TraceRecorder::instance();
      trace.setEnabled(false);
      if (trace.writeJson(trace_file_)) {
        std::printf("trace written to %s\n", trace_file_.c_str());
      } else {
        std::printf("trace: cannot write %s\n", trace_file_.c_str());
      }
    }
  }

  TelemetrySink* sink() { return mux_.empty() ? nullptr : &mux_; }

  /// Installs the session's sink into GP options under `label`.
  void attach(GlobalPlacerOptions& gp, const std::string& label) {
    gp.telemetry = sink();
    gp.telemetryLabel = label;
  }

  /// Installs the session's exports into flow options under `label`.
  /// (File sinks are owned here, so only the extra sink is forwarded; the
  /// run report is assembled by placeDesign itself, so its paths are.)
  void attach(PlacerOptions& options, const std::string& label) {
    options.telemetry = sink();
    options.telemetryLabel = label;
    options.reportJson = report_file_;
    options.reportText = report_text_file_;
  }

 private:
  TelemetryMux mux_;
  std::unique_ptr<JsonlTelemetrySink> jsonl_;
  std::unique_ptr<CsvTelemetrySink> csv_;
  TraceTelemetrySink trace_sink_;
  std::string trace_file_;
  std::string report_file_;
  std::string report_text_file_;
};

/// Applies a --threads=N flag for bench binaries that do not build a
/// TelemetrySession (the google-benchmark ones). Call before
/// benchmark::Initialize. Without the flag the pool keeps its auto
/// resolution (DREAMPLACE_THREADS / hardware concurrency).
inline void applyBenchThreads(int argc, char** argv) {
  const BenchFlags flags = parseBenchFlags(argc, argv);
  if (flags.threads > 0) {
    ThreadPool::instance().setThreads(flags.threads);
  }
}

/// Runs one flow and hands back its RunReport alongside the result.
/// Benches that need per-flow timing/counter breakdowns read them from
/// the report — flows run under private FlowContexts now, so post-flow
/// reads of the global registries see nothing (and sweeps no longer need
/// to clear() registries between runs).
inline FlowResult placeWithReport(Database& db, const PlacerOptions& options,
                                  RunReport& report) {
  FlowContext::Config config;
  config.privateTrace = !options.traceFile.empty();
  FlowContext context(config);
  return placeDesign(db, options, context, &report);
}

/// Inclusive seconds of one timing key in a run report (0 when absent).
inline double timingTotal(const RunReport& report, const std::string& key) {
  const auto it = report.timing.find(key);
  return it == report.timing.end() ? 0.0 : it->second.seconds;
}

/// Output path for the machine-readable result file of a bench binary.
/// Precedence: --json=<file> > DREAMPLACE_BENCH_JSON > `fallback`; an
/// empty value disables the export. Parse before benchmark::Initialize so
/// the flag never reaches google-benchmark's own parser.
inline std::string benchJsonPath(int argc, char** argv,
                                 const std::string& fallback) {
  std::string path = fallback;
  if (const char* env = std::getenv("DREAMPLACE_BENCH_JSON")) {
    path = env;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    }
  }
  return path;
}

/// Machine-readable benchmark export: collects (name, n, ms) rows plus a
/// counter-registry snapshot and writes them as one JSON document, so CI
/// and regression tooling can diff runs without scraping console tables.
///
///   {"bench":"fig11_dct","schema":1,"threads":4,
///    "results":[{"name":"DCT-2D-N","n":512,"ms":5.02}, ...],
///    "counters":{"fft/plan/create":14, ...}}
///
/// `threads` is the parallel-runtime thread count in effect at write
/// time, so result files from thread sweeps stay self-describing.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench) : bench_(std::move(bench)) {}

  void addResult(const std::string& name, std::int64_t n, double ms) {
    results_.push_back({name, n, ms});
  }

  /// Records one explicit counter row. Flows run under private
  /// FlowContexts, so their counters never reach the global registry —
  /// benches copy the keys they need out of the flow's RunReport.
  void addCounter(const std::string& key, CounterRegistry::Value value) {
    counters_.push_back({key, value});
  }

  /// Records every counter whose key starts with `prefix` (call multiple
  /// times to merge several subsystems into the snapshot).
  void addCounterPrefix(const std::string& prefix) {
    for (const auto& [key, value] : CounterRegistry::instance().snapshot()) {
      if (key.compare(0, prefix.size(), prefix) == 0) {
        counters_.push_back({key, value});
      }
    }
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"schema\":1,\"threads\":%d,"
                 "\"results\":[",
                 bench_.c_str(), ThreadPool::instance().threads());
    for (size_t i = 0; i < results_.size(); ++i) {
      const auto& r = results_[i];
      std::fprintf(f, "%s{\"name\":\"%s\",\"n\":%lld,\"ms\":%.6g}",
                   i == 0 ? "" : ",", r.name.c_str(),
                   static_cast<long long>(r.n), r.ms);
    }
    std::fprintf(f, "],\"counters\":{");
    for (size_t i = 0; i < counters_.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%lld", i == 0 ? "" : ",",
                   counters_[i].first.c_str(),
                   static_cast<long long>(counters_[i].second));
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Row {
    std::string name;
    std::int64_t n;
    double ms;
  };
  std::string bench_;
  std::vector<Row> results_;
  std::vector<std::pair<std::string, CounterRegistry::Value>> counters_;
};

/// Suite scale factor; override with DREAMPLACE_BENCH_SCALE.
inline double benchScale(double fallback = 0.01) {
  if (const char* env = std::getenv("DREAMPLACE_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) {
      return v;
    }
  }
  return fallback;
}

inline GlobalPlacerOptions replaceModeGp() {
  GlobalPlacerOptions options;
  options.init = InitialPlacement::kSpread;
  options.wlKernel = WirelengthKernel::kNetByNet;
  options.densityKernel = DensityKernel::kNaive;
  options.densitySubdivision = 1;
  options.dct = fft::Dct2dAlgorithm::kRowCol2N;
  options.tcadMuVariant = false;
  return options;
}

inline GlobalPlacerOptions dreamplaceCpuGp() {
  GlobalPlacerOptions options;
  options.init = InitialPlacement::kRandomCenter;
  options.wlKernel = WirelengthKernel::kMerged;
  options.densityKernel = DensityKernel::kSorted;
  options.densitySubdivision = 1;
  options.dct = fft::Dct2dAlgorithm::kRowColN;
  return options;
}

inline GlobalPlacerOptions dreamplaceFastGp() {
  GlobalPlacerOptions options;
  options.init = InitialPlacement::kRandomCenter;
  options.wlKernel = WirelengthKernel::kMerged;
  options.densityKernel = DensityKernel::kSorted;
  // The k x k sub-rectangle split is a GPU warp-balancing trick; the
  // paper's CPU backend uses plain dynamic scheduling (Sec. III-B1), so
  // the fast CPU config keeps subdivision at 1 (Fig. 6 ablates it).
  options.densitySubdivision = 1;
  options.dct = fft::Dct2dAlgorithm::kFft2dN;
  return options;
}

struct FlowRow {
  std::string design;
  double cellsK = 0;
  double netsK = 0;
  FlowResult result;
};

inline void printFlowHeader(const char* config) {
  std::printf("\n--- %s ---\n", config);
  std::printf("%-10s %8s %8s | %12s %8s %8s %8s %8s\n", "design", "#cells",
              "#nets", "HPWL", "GP(s)", "LG(s)", "DP(s)", "Total(s)");
}

inline void printFlowRow(const FlowRow& row) {
  std::printf("%-10s %8.0f %8.0f | %12.4e %8.2f %8.2f %8.2f %8.2f%s\n",
              row.design.c_str(), row.cellsK * 1000, row.netsK * 1000,
              row.result.hpwl, row.result.gpSeconds, row.result.lgSeconds,
              row.result.dpSeconds, row.result.totalSeconds,
              row.result.legal ? "" : "  [NOT LEGAL]");
}

/// Geometric-mean ratios of HPWL and GP time of `rows` vs `baseline`.
inline void printRatio(const std::vector<FlowRow>& rows,
                       const std::vector<FlowRow>& baseline,
                       const char* label) {
  double hpwl_ratio = 1.0;
  double gp_ratio = 1.0;
  double total_ratio = 1.0;
  int n = 0;
  for (size_t i = 0; i < rows.size() && i < baseline.size(); ++i) {
    if (rows[i].result.hpwl <= 0 || baseline[i].result.hpwl <= 0) {
      continue;
    }
    hpwl_ratio *= rows[i].result.hpwl / baseline[i].result.hpwl;
    gp_ratio *= rows[i].result.gpSeconds / baseline[i].result.gpSeconds;
    total_ratio *=
        rows[i].result.totalSeconds / baseline[i].result.totalSeconds;
    ++n;
  }
  if (n == 0) {
    return;
  }
  const double inv = 1.0 / n;
  std::printf("%-24s HPWL ratio %.3f   GP time ratio %.2fx   total %.2fx\n",
              label, std::pow(hpwl_ratio, inv), std::pow(gp_ratio, inv),
              std::pow(total_ratio, inv));
}

}  // namespace dreamplace::bench
