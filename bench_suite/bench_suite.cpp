// bench_suite: the repository benchmark (BENCHMARK.json at the root,
// bench_suite/README.md for the workloads, metrics and bounds).
//
//   bench_suite [--workload=NAME|all] [--seed=S] [--seconds=T] [--trace=0|1]
//               [--json=FILE] [--trace-file=FILE] [--workdir=DIR]
//   bench_suite --compare=A.json,B.json [--benchmark-file=BENCHMARK.json]
//   bench_suite --smoke [--benchmark-file=BENCHMARK.json]
//
// Every flag also accepts "--flag value". Unknown flags exit 2.
//
// Every repetition ("rep") of a workload runs in a fresh child process of
// this driver, so FFT plans, thread_local memos and pool start-up are paid
// on every rep, as a command-line user pays them. Reps are interleaved
// round-robin across the selected workloads, so a noisy period on a shared
// machine hits every workload instead of one. --seed is mixed into every
// generator seed and into the jitter RNG; the placer only ever receives
// the generated Database.
//
// --trace=1 produces the per-layer numbers. The driver times its own calls
// into each module's public functions (PipelineStage::run, onIteration,
// the op evaluate/scatter/solve/gather calls, DetailedPlacer::run,
// independentSetMatching, readBookshelf/writePlacement, engine runs) and
// reads the counters the program already publishes. Spans are kept in
// memory and written once, at exit, as Chrome-trace JSON (--trace-file).
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (or, with --trace=1, the per-layer ones).
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flow_context.h"
#include "common/json_writer.h"
#include "common/log.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "dp/detailed_placer.h"
#include "dp/independent_set.h"
#include "gen/netlist_generator.h"
#include "gen/suites.h"
#include "io/bookshelf_reader.h"
#include "io/bookshelf_writer.h"
#include "ops/density_op.h"
#include "ops/electrostatics.h"
#include "ops/schedulers.h"
#include "ops/wirelength.h"
#include "place/engine.h"
#include "place/pipeline.h"
#include "place/placer.h"
#include "place/report_check.h"

extern char** environ;

namespace {

using namespace dreamplace;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. BENCHMARK.json lists the same names, and it is the one list
// of metric names, units and bounds: a run checks that every metric it
// lists was measured.
// ---------------------------------------------------------------------------

enum class Kind { kFlowFast, kFlowRef, kBackendJitter, kBatch };

struct Workload {
  const char* name;
  Kind kind;
  double scale;  ///< Suite scale (fraction of the paper's cell counts).
  /// Distinct netlists (netlist sets on the batch) a run draws from its
  /// seed; reps cycle through them. Final HPWL differs by ~3% between
  /// netlists, so averaging several keeps the gated hpwl and flow_s steady
  /// across seeds, and three still repeat each one in a 30 s run, which the
  /// bit-identity check needs.
  int netlists;
};

constexpr Workload kWorkloads[] = {
    {"flow_fast", Kind::kFlowFast, 0.016, 3},
    {"flow_ref", Kind::kFlowRef, 0.005, 3},
    {"backend_jitter", Kind::kBackendJitter, 0.016, 3},
    {"batch_ispd", Kind::kBatch, 0.004, 3},
};

/// --smoke shrinks every design to <= 2,500 cells (bigblue4 x 0.001).
constexpr double kSmokeScale = 0.001;

/// Every workload runs this many pool threads from one process (and the
/// batch this many concurrent jobs), capped by the machine.
int benchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1U : hw, 1U, 4U));
}

// ---------------------------------------------------------------------------
// Statistics. Quartiles follow Python's statistics.quantiles(n=4) default
// ("exclusive") method, so they match what other tooling computes.
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, int i, int n) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    return v[0];
  }
  const long m = static_cast<long>(v.size()) + 1;
  long j = i * m / n;
  long delta = i * m - j * n;
  if (j < 1) {
    j = 1;
    delta = 0;
  } else if (j >= static_cast<long>(v.size())) {
    j = static_cast<long>(v.size()) - 1;
    delta = n;
  }
  return (v[j - 1] * static_cast<double>(n - delta) +
          v[j] * static_cast<double>(delta)) /
         n;
}

double median(const std::vector<double>& v) { return quantile(v, 2, 4); }

/// A JSON number with every digit (null when not finite).
std::string formatNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

struct Flags {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool traced = false;
  int reps = 0;  ///< 0 = as many as fit in --seconds (--smoke: 1).
  bool smoke = false;
  std::string json;
  std::string traceFile;
  std::string workdir;
  std::string compare;
  std::string benchmarkFile = "BENCHMARK.json";
  // Child-process mode (internal): run one rep and print its result.
  std::string child;
  int netlist = 0;
  /// Steady-clock time (ns) at which the parent spawned this child; the
  /// clock is system-wide, so the child can time its own cold start.
  std::int64_t spawnNs = 0;
};

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "bench_suite: %s\n", message.c_str());
  std::exit(2);
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

long parseInteger(const std::string& flag, const std::string& value,
                  long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) {
    usageError("invalid value '" + value + "' for " + flag + " (expected " +
               "an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "])");
  }
  return v;
}

Flags parseFlags(int argc, char** argv) {
  Flags flags;
  bool all = false;
  // Flags that take a value; each accepts "--flag=value" and "--flag value".
  const std::map<std::string, std::function<void(const std::string&)>>
      valued = {
          {"--workload",
           [&](const std::string& v) {
             if (v == "all") {
               all = true;
             } else if (const Workload* w = findWorkload(v)) {
               flags.workloads.push_back(w);
             } else {
               usageError("unknown workload '" + v + "'");
             }
           }},
          {"--seed",
           [&](const std::string& v) {
             flags.seed = static_cast<std::uint64_t>(
                 parseInteger("--seed", v, 0, LONG_MAX));
           }},
          {"--seconds",
           [&](const std::string& v) {
             flags.seconds = static_cast<double>(
                 parseInteger("--seconds", v, 1, 3600));
           }},
          {"--trace",
           [&](const std::string& v) {
             flags.traced = parseInteger("--trace", v, 0, 1) == 1;
           }},
          {"--json", [&](const std::string& v) { flags.json = v; }},
          {"--trace-file", [&](const std::string& v) { flags.traceFile = v; }},
          {"--workdir", [&](const std::string& v) { flags.workdir = v; }},
          {"--compare", [&](const std::string& v) { flags.compare = v; }},
          {"--benchmark-file",
           [&](const std::string& v) { flags.benchmarkFile = v; }},
          {"--child", [&](const std::string& v) { flags.child = v; }},
          {"--netlist",
           [&](const std::string& v) {
             flags.netlist =
                 static_cast<int>(parseInteger("--netlist", v, 0, 1000));
           }},
          {"--spawn-ns",
           [&](const std::string& v) {
             flags.spawnNs = parseInteger("--spawn-ns", v, 0, LONG_MAX);
           }},
      };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
      continue;
    }
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const auto it = valued.find(arg);
    if (it == valued.end()) {
      usageError("unknown flag '" + std::string(argv[i]) + "'");
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) {
        usageError("missing value for " + arg);
      }
      value = argv[++i];
    }
    it->second(value);
  }
  if (all || flags.workloads.empty()) {
    flags.workloads.clear();
    for (const Workload& w : kWorkloads) {
      flags.workloads.push_back(&w);
    }
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Spans (child side). One rep's spans share the rep id, assigned by the
// parent; start/end are microseconds since the child's start.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double startUs = 0.0;
  double endUs = 0.0;
  int parent = -1;
};

class SpanLog {
 public:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  double toUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  Clock::time_point at(double us) const {
    return epoch_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(us));
  }

  int begin(const std::string& name) {
    spans_.push_back({name, nowUs(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    spans_[id].endUs = nowUs();
    open_ = spans_[id].parent;
  }
  /// Records a finished span timed elsewhere (engine jobs run on their
  /// own threads).
  void add(const std::string& name, double startUs, double endUs,
           int parent) {
    spans_.push_back({name, startUs, endUs, parent});
  }

  /// Seconds covered by span `id` minus the union of its children.
  double selfSeconds(int id) const {
    std::vector<std::pair<double, double>> kids;
    for (const Span& s : spans_) {
      if (s.parent == id) {
        kids.emplace_back(s.startUs, s.endUs);
      }
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, hi = -1e300;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, hi);
      if (b > lo) {
        covered += b - lo;
      }
      hi = std::max(hi, b);
    }
    return (spans_[id].endUs - spans_[id].startUs - covered) * 1e-6;
  }
  double seconds(int id) const {
    return (spans_[id].endUs - spans_[id].startUs) * 1e-6;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.begin(name)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Runs `fn` inside a span named `name`; returns the span's seconds.
template <typename F>
double timedSpan(SpanLog& log, const std::string& name, F&& fn) {
  int id = 0;
  {
    ScopedSpan span(log, name);
    id = span.id();
    fn();
  }
  return log.seconds(id);
}

/// Timestamps every GP iteration of one flow (TelemetrySink::onIteration).
class IterationClock final : public TelemetrySink {
 public:
  void onIteration(const IterationStats& /*stats*/) override {
    stamps_.push_back(Clock::now());
  }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  std::vector<Clock::time_point> stamps_;
};

/// Forwards to a stage of the standard pipeline and records a span around
/// its run(); `before` runs first (the dp stage snapshots legal positions).
class TimedStage final : public PipelineStage {
 public:
  TimedStage(PipelineStage& inner, SpanLog& log, std::string span,
             std::function<void()> before)
      : inner_(inner),
        log_(log),
        span_(std::move(span)),
        before_(std::move(before)) {}

  const char* name() const override { return inner_.name(); }
  FlowStage heartbeatStage() const override { return inner_.heartbeatStage(); }
  const char* timerKey() const override { return inner_.timerKey(); }
  double* secondsSlot(FlowResult& r) const override {
    return inner_.secondsSlot(r);
  }
  double* hpwlSlot(FlowResult& r) const override { return inner_.hpwlSlot(r); }
  void run(StageContext& context) override {
    if (before_) {
      before_();
    }
    if (span_.empty()) {
      inner_.run(context);
      return;
    }
    ScopedSpan span(log_, span_);
    inner_.run(context);
  }

 private:
  PipelineStage& inner_;
  SpanLog& log_;
  std::string span_;
  std::function<void()> before_;
};

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

std::uint64_t mixSeed(std::uint64_t base, std::uint64_t seed) {
  std::uint64_t z = base * 0x9E3779B97F4A7C15ULL + seed + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Seed of netlist `netlist` of a run with --seed `seed`.
std::uint64_t inputSeed(std::uint64_t seed, int netlist) {
  return mixSeed(seed, static_cast<std::uint64_t>(netlist));
}

std::vector<GeneratorConfig> designConfigs(const Workload& w,
                                           std::uint64_t seed, bool smoke) {
  const double scale = smoke ? kSmokeScale : w.scale;
  std::vector<SuiteEntry> entries;
  if (w.kind == Kind::kBatch) {
    entries = ispd2005Suite(scale);
  } else {
    entries.push_back(findSuiteEntry("bigblue4", scale));
  }
  std::vector<GeneratorConfig> configs;
  for (SuiteEntry& e : entries) {
    e.config.seed = mixSeed(e.config.seed, seed);
    configs.push_back(e.config);
  }
  return configs;
}

/// backend_jitter's start: generator positions moved by up to +-5 rows.
void jitter(Database& db, std::uint64_t seed) {
  Rng rng(mixSeed(2026, seed));
  const Coord h = db.rowHeight();
  for (Index i = 0; i < db.numMovable(); ++i) {
    db.setCellPosition(i, db.cellX(i) + rng.uniform(-5 * h, 5 * h),
                       db.cellY(i) + rng.uniform(-5 * h, 5 * h));
  }
}

/// The paper's fast configuration (Sec. III-B on a CPU: random-center
/// init, merged WA, sorted density, single-pass 2-D FFT DCT).
GlobalPlacerOptions fastGp() {
  GlobalPlacerOptions options;
  options.init = InitialPlacement::kRandomCenter;
  options.wlKernel = WirelengthKernel::kMerged;
  options.densityKernel = DensityKernel::kSorted;
  options.densitySubdivision = 1;
  options.dct = fft::Dct2dAlgorithm::kFft2dN;
  return options;
}

/// The RePlAce-mode reference configuration (spread init, net-by-net WA,
/// naive scatter, row-column 2N DCT, eq. 18 mu).
GlobalPlacerOptions referenceGp() {
  GlobalPlacerOptions options;
  options.init = InitialPlacement::kSpread;
  options.wlKernel = WirelengthKernel::kNetByNet;
  options.densityKernel = DensityKernel::kNaive;
  options.densitySubdivision = 1;
  options.dct = fft::Dct2dAlgorithm::kRowCol2N;
  options.tcadMuVariant = false;
  return options;
}

PlacerOptions flowOptions(Kind kind) {
  PlacerOptions options;
  options.precision =
      kind == Kind::kFlowRef ? Precision::kFloat64 : Precision::kFloat32;
  options.gp = kind == Kind::kFlowRef ? referenceGp() : fastGp();
  options.runGlobalPlacement = kind != Kind::kBackendJitter;
  return options;
}

/// Bookshelf files of one design, written by the untimed prep step.
std::string auxPath(const std::string& dir, const Workload& w, int netlist,
                    const GeneratorConfig& config) {
  return dir + "/" + w.name + "." + std::to_string(netlist) + "/" +
         config.designName + "/" + config.designName + ".aux";
}

// ---------------------------------------------------------------------------
// Child: one rep.
// ---------------------------------------------------------------------------

struct RepOutput {
  double setupS = 0.0;
  double flowS = 0.0;
  double rssMb = 0.0;
  std::vector<std::string> designs;  ///< Name of each placed design.
  std::vector<double> hpwl;          ///< Final HPWL per placed design.
  std::vector<double> jobS;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layer;
};

void check(RepOutput& out, bool ok, const std::string& what) {
  if (!ok) {
    out.errors.push_back(what);
  }
}

using Positions = std::pair<std::vector<Coord>, std::vector<Coord>>;

Positions positionsOf(const Database& db) { return {db.cellXs(), db.cellYs()}; }

void restore(Database& db, const Positions& p) {
  db.cellXs() = p.first;
  db.cellYs() = p.second;
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double secondsSince(std::int64_t steady_ns) {
  return 1e-9 * static_cast<double>(steadyNs() - steady_ns);
}

double trackedPeakMb(const MemoryTracker& tracker) {
  std::int64_t bytes = 0;
  for (const auto& [key, usage] : tracker.snapshot()) {
    bytes += usage.peakBytes;
  }
  return static_cast<double>(bytes) / 1e6;
}

/// GP iteration timing of one GP run: `start` is when the run began.
struct GpTiming {
  int iterations = 0;
  double initS = 0.0;
  std::vector<double> gapsMs;

  void add(Clock::time_point start, const std::vector<Clock::time_point>& t) {
    iterations += static_cast<int>(t.size());
    if (t.empty()) {
      return;
    }
    initS += std::chrono::duration<double>(t.front() - start).count();
    for (std::size_t i = 1; i < t.size(); ++i) {
      gapsMs.push_back(
          std::chrono::duration<double, std::milli>(t[i] - t[i - 1]).count());
    }
  }
  void emit(std::map<std::string, double>& layer) const {
    layer["gp.iterations"] = iterations;
    layer["gp.init_s"] = initS;
    layer["gp.iter_ms"] = median(gapsMs);
    layer["gp.iter_ms_p95"] = quantile(gapsMs, 19, 20);
  }
};

/// Counter-derived layer metrics (sums over the given counter maps).
void emitCounters(const std::map<std::string, CounterRegistry::Value>& c,
                  Index movable, std::map<std::string, double>& layer) {
  const auto get = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  layer["ops.wl_evals"] = get("ops/wirelength/evaluate");
  layer["ops.density_evals"] = get("ops/density/evaluate");
  layer["lg.segments_per_cell"] = get("lg/segments_tried") / movable;
  layer["dp.reorder_windows"] = get("dp/reorder_windows");
  layer["dp.swap_candidates"] = get("dp/swap_candidates");
  layer["dp.moves"] =
      get("dp/reorder_moves") + get("dp/swap_moves") + get("dp/ism_moves");
  const double windows = get("dp/reorder_windows");
  layer["dp.reorder_stale_ratio"] =
      windows > 0 ? get("dp/reorder_stale") / windows : 0.0;
  layer["dp.swap_stale"] = get("dp/swap_stale");
  layer["parallel.jobs"] = get("parallel/jobs");
}

void addCounters(std::map<std::string, CounterRegistry::Value>& into,
                 const std::map<std::string, CounterRegistry::Value>& from) {
  for (const auto& [key, value] : from) {
    into[key] += value;
  }
}

/// Median wall milliseconds of `reps` calls of `fn` after two warm-up
/// calls (plans and scratch are built lazily on first use); `prepare`
/// runs untimed before every call.
double timeMs(const std::function<void()>& fn,
              const std::function<void()>& prepare = {}) {
  constexpr int kWarmup = 2;
  constexpr int kReps = 30;
  std::vector<double> ms;
  for (int r = 0; r < kWarmup + kReps; ++r) {
    if (prepare) {
      prepare();
    }
    Timer t;
    fn();
    if (r >= kWarmup) {
      ms.push_back(t.elapsed() * 1e3);
    }
  }
  return median(ms);
}

/// Replays of the GP ops at the workload's size, kernel and precision, at
/// `threads` and at 1 (and 2 for the solve) threads. Node positions: the
/// database's cell centers plus seeded random filler positions.
template <typename T>
void replayOps(const Database& db, const GlobalPlacerOptions& gp,
               std::uint64_t seed, int threads, SpanLog& log,
               std::map<std::string, double>& layer) {
  ScopedSpan span(log, "replay.ops");
  FlowContext context;
  FlowContextScope scope(context);
  const DensityGrid<T> grid =
      makeGrid<T>(db.dieArea(), db.numMovable(), 16, gp.binsMax);
  std::vector<T> filler_w, filler_h, node_w, node_h;
  computeFillers<T>(db, gp.targetDensity, filler_w, filler_h);
  DensityOp<T>::makeNodeSizes(db, filler_w, filler_h, node_w, node_h);
  const Index n = static_cast<Index>(node_w.size());
  std::vector<T> params(2 * static_cast<std::size_t>(n));
  Rng rng(mixSeed(7, seed));
  const Box<Coord>& die = db.dieArea();
  for (Index i = 0; i < n; ++i) {
    if (i < db.numMovable()) {
      params[i] = static_cast<T>(db.cellX(i) + db.cellWidth(i) / 2);
      params[n + i] = static_cast<T>(db.cellY(i) + db.cellHeight(i) / 2);
    } else {
      params[i] = static_cast<T>(rng.uniform(die.xl + node_w[i] / 2,
                                             die.xh - node_w[i] / 2));
      params[n + i] = static_cast<T>(rng.uniform(die.yl + node_h[i] / 2,
                                                 die.yh - node_h[i] / 2));
    }
  }
  typename WaWirelengthOp<T>::Options wl_options;
  wl_options.kernel = gp.wlKernel;
  wl_options.ignoreNetDegree = gp.ignoreNetDegree;
  WaWirelengthOp<T> wl(db, n, wl_options);
  wl.setGamma(GammaScheduler((grid.binW + grid.binH) / 2).gamma(0.1));
  typename DensityOp<T>::Options density_options;
  density_options.targetDensity = gp.targetDensity;
  density_options.map.kernel = gp.densityKernel;
  density_options.map.subdivision = gp.densitySubdivision;
  density_options.dct = gp.dct;
  DensityOp<T> density(db, grid, node_w, node_h, density_options);
  const DensityMapBuilder<T>& builder = density.builder();
  PoissonSolver<T> solver(grid.mx, grid.my, gp.dct);

  std::vector<T> grad(params.size());
  std::vector<T> map(static_cast<std::size_t>(grid.mx) * grid.my);
  std::vector<T> gx(n), gy(n);
  PoissonSolution<T> solution;
  const T* x = params.data();
  const T* y = params.data() + n;
  const auto clearMap = [&] { std::fill(map.begin(), map.end(), T(0)); };
  const auto scatter = [&] { builder.scatter(x, y, 0, n, map); };
  clearMap();
  scatter();
  const auto solve = [&] { solver.solve(map, solution); };
  solve();
  const auto gather = [&] {
    builder.gatherForce(x, y, solution.fieldX, solution.fieldY, gx.data(),
                        gy.data());
  };
  const auto evalWl = [&] { wl.evaluate(params, grad); };

  ThreadPool& pool = ThreadPool::instance();
  pool.setThreads(1);
  layer["ops.wl_eval_ms.t1"] = timeMs(evalWl);
  layer["ops.scatter_ms.t1"] = timeMs(scatter, clearMap);
  layer["ops.gather_ms.t1"] = timeMs(gather);
  layer["ops.solve_ms.t1"] = timeMs(solve);
  pool.setThreads(std::min(2, threads));
  layer["ops.solve_ms.t2"] = timeMs(solve);
  pool.setThreads(threads);
  layer["ops.wl_eval_ms"] = timeMs(evalWl);
  layer["ops.scatter_ms"] = timeMs(scatter, clearMap);
  layer["ops.gather_ms"] = timeMs(gather);
  const double jobs_before =
      static_cast<double>(context.counters().value("parallel/jobs"));
  const double solves_before =
      static_cast<double>(context.counters().value("ops/electrostatics/solve"));
  layer["ops.solve_ms"] = timeMs(solve);
  layer["fft.pool_jobs_per_solve"] =
      (static_cast<double>(context.counters().value("parallel/jobs")) -
       jobs_before) /
      (static_cast<double>(
           context.counters().value("ops/electrostatics/solve")) -
       solves_before);
  layer["ops.density_eval_ms"] =
      timeMs([&] { density.evaluate(params, grad); });
}

/// DetailedPlacer::run on the legalized positions at 1, 2 and all threads
/// (the Fig. 8 re-measure), then independentSetMatching alone. The three
/// DP runs must agree bit for bit with each other and with the flow's DP.
void replayBackend(Database& db, const Positions& legal,
                   const Positions& final_positions,
                   const PlacerOptions& options, int threads, SpanLog& log,
                   RepOutput& out) {
  ScopedSpan span(log, "replay.dp");
  ThreadPool& pool = ThreadPool::instance();
  for (const int t : {1, 2, 4}) {
    restore(db, legal);
    pool.setThreads(std::min(t, threads));
    Timer timer;
    DetailedPlacer(options.dp).run(db);
    out.layer["dp.run_s.t" + std::to_string(t)] = timer.elapsed();
    check(out, positionsOf(db) == final_positions,
          "dp at " + std::to_string(t) +
              " threads differs from the flow's dp positions");
  }
  pool.setThreads(threads);
  restore(db, legal);
  IsmOptions ism;
  ism.maxSetSize = options.dp.ismSetSize;
  Timer timer;
  independentSetMatching(db, ism);
  out.layer["dp.ism_s"] = timer.elapsed();
  restore(db, final_positions);
}

/// Runs the standard pipeline with every stage wrapped in a span, under
/// `context`. `legal` receives the positions the dp stage starts from.
template <typename T>
FlowResult tracedFlow(Database& db, const PlacerOptions& options,
                      FlowContext& context, TelemetrySink* sink,
                      SpanLog& log, Positions& legal) {
  options.validate();
  FlowContextScope scope(context);
  context.markFlowStart();
  FlowResult result;
  const FlowPipeline standard = buildFlowPipeline<T>(options);
  std::vector<std::unique_ptr<PipelineStage>> stages;
  for (const auto& stage : standard.stages()) {
    const std::string name = stage->name();
    std::string span;
    std::function<void()> before;
    if (name == "gp") {
      span = "place.gp";
    } else if (name == "macro_lg" || name == "lg") {
      span = "place.lg";
    } else if (name == "dp") {
      span = "place.dp";
      before = [&db, &legal] { legal = positionsOf(db); };
    }
    stages.push_back(
        std::make_unique<TimedStage>(*stage, log, span, std::move(before)));
  }
  FlowPipeline pipeline(std::move(stages));
  StageContext stage_context{db, options, result, sink};
  pipeline.run(stage_context);
  return result;
}

/// GP layer rows for backend_jitter, whose flow has no GP stage: the
/// fast-config gp stage on the same database, capped at kProbeIterations.
void gpProbe(Database& db, SpanLog& log, RepOutput& out) {
  constexpr int kProbeIterations = 50;
  PlacerOptions options = flowOptions(Kind::kFlowFast);
  options.gp.maxIterations = kProbeIterations;
  options.gp.minIterations = kProbeIterations;
  IterationClock clock;
  options.gp.telemetry = &clock;
  FlowContext context;
  FlowContextScope scope(context);
  const Clock::time_point start = Clock::now();
  GlobalPlacerResult r;
  const double gp_s = timedSpan(log, "probe.gp", [&] {
    GlobalPlacer<float> placer(db, options.gp);
    r = placer.run();
  });
  GpTiming timing;
  timing.add(start, clock.stamps());
  timing.emit(out.layer);
  out.layer["gp.hpwl"] = r.hpwl;
  out.layer["place.gp_s"] = gp_s;
  out.layer["ops.wl_evals"] = static_cast<double>(
      context.counters().value("ops/wirelength/evaluate"));
  out.layer["ops.density_evals"] =
      static_cast<double>(context.counters().value("ops/density/evaluate"));
  out.layer["memory.tracked_peak_mb"] = trackedPeakMb(context.memory());
}

/// Legality + result sanity of one finished flow.
void checkFlow(RepOutput& out, const FlowResult& r, const std::string& what) {
  check(out, r.legal, what + ": placement is not legal");
  check(out, r.lgFailedCells == 0,
        what + ": " + std::to_string(r.lgFailedCells) +
            " cells left unplaced by legalization");
  check(out, std::isfinite(r.hpwl) && r.hpwl > 0.0,
        what + ": final hpwl is not a positive number");
  check(out, r.hpwl <= r.hpwlLegal,
        what + ": detailed placement increased hpwl");
}

template <typename T>
void singleFlowRep(const Workload& w, const Flags& flags, int threads,
                   SpanLog& log, RepOutput& out) {
  const std::string& workdir = flags.workdir;
  const std::uint64_t seed = inputSeed(flags.seed, flags.netlist);
  const GeneratorConfig config = designConfigs(w, seed, flags.smoke).front();
  const bool fast = w.kind == Kind::kFlowFast;
  std::unique_ptr<Database> db;
  double read_s = 0.0, generate_s = 0.0;
  out.setupS = timedSpan(log, "setup", [&] {
    if (fast) {
      read_s = timedSpan(log, "io.read", [&] {
        db = readBookshelf(auxPath(workdir, w, flags.netlist, config));
      });
    } else {
      generate_s = timedSpan(log, "gen.generate", [&] {
        db = generateNetlist(config);
        if (w.kind == Kind::kBackendJitter) {
          jitter(*db, seed);
        }
      });
    }
  });
  const PlacerOptions options = flowOptions(w.kind);
  const std::string pl_path = workdir + "/" + w.name + ".pl";
  out.attempted = 1;
  FlowContext context;
  IterationClock clock;
  Positions legal;
  FlowResult result;
  double write_s = 0.0;
  const double cpu0 = cpuSeconds();
  int flow_span = 0;
  {
    ScopedSpan flow(log, "flow");
    flow_span = flow.id();
    result = flags.traced
                 ? tracedFlow<T>(*db, options, context, &clock, log, legal)
                 : placeDesign(*db, options, context);
    if (fast) {
      write_s = timedSpan(log, "io.write",
                          [&] { writePlacement(*db, pl_path); });
    }
  }
  // The job as a command-line user waits for it: process start, set-up,
  // flow and output, up to the moment the result is in hand.
  const double job_s = secondsSince(flags.spawnNs);
  const double cpu = cpuSeconds() - cpu0;
  out.flowS = log.seconds(flow_span);
  out.jobS.push_back(job_s);
  out.designs.push_back(config.designName);
  out.hpwl.push_back(result.hpwl);
  out.rssMb = static_cast<double>(sampleProcessMemory().vmHwmBytes) / 1e6;
  checkFlow(out, result, w.name);
  const Positions final_positions = positionsOf(*db);
  if (fast) {
    // The written result must reproduce the placement it was written from.
    readPlacement(*db, pl_path);
    check(out, hpwl(*db) == result.hpwl,
          "written placement does not reproduce the final hpwl");
    restore(*db, final_positions);
  }
  if (!flags.traced) {
    return;
  }

  std::map<std::string, double>& layer = out.layer;
  GpTiming timing;
  for (const Span& s : log.spans()) {
    if (s.name == "place.gp" || s.name == "place.lg" || s.name == "place.dp") {
      layer[s.name + "_s"] += (s.endUs - s.startUs) * 1e-6;
    }
    if (s.name == "place.gp") {
      timing.add(log.at(s.startUs), clock.stamps());
    }
  }
  layer["place.overhead_s"] = log.selfSeconds(flow_span);
  if (options.runGlobalPlacement) {
    timing.emit(layer);
    layer["gp.hpwl"] = result.hpwlGp;
  }
  layer["dp.hpwl_gain"] = (result.hpwlLegal - result.hpwl) / result.hpwlLegal;
  // One lane running one job: the share of the job spent in the flow.
  layer["engine.job_s_max"] = job_s;
  layer["engine.lane_busy_frac"] = out.flowS / job_s;
  layer["parallel.cpu_per_wall"] = cpu / out.flowS;
  const double capacity = static_cast<double>(
      context.pool().capacityMicros() - context.poolCapacityStartMicros());
  layer["parallel.utilization"] =
      capacity > 0 ? static_cast<double>(context.pool().busyMicros() -
                                         context.poolBusyStartMicros()) /
                         capacity
                   : 0.0;
  layer["memory.tracked_peak_mb"] = trackedPeakMb(context.memory());
  emitCounters(context.counters().snapshot(), db->numMovable(), layer);

  replayBackend(*db, legal, final_positions, options, threads, log, out);
  if (w.kind == Kind::kBackendJitter) {
    gpProbe(*db, log, out);
    restore(*db, final_positions);
  }
  replayOps<T>(*db, options.gp, seed, threads, log, layer);
  if (fast) {
    layer["io.read_s"] = read_s;
    layer["io.write_s"] = write_s;
    layer["gen.generate_s"] =
        timedSpan(log, "gen.generate", [&] { generateNetlist(config); });
  } else {
    layer["gen.generate_s"] = generate_s;
    layer["io.write_s"] =
        timedSpan(log, "io.write", [&] { writePlacement(*db, pl_path); });
    std::unique_ptr<Database> reread;
    layer["io.read_s"] = timedSpan(log, "io.read", [&] {
      reread = readBookshelf(auxPath(workdir, w, flags.netlist, config));
    });
    check(out, reread->numPins() == db->numPins(),
          "bookshelf round trip changed the netlist");
  }
}

void batchRep(const Workload& w, const Flags& flags, int threads,
              SpanLog& log, RepOutput& out) {
  const std::string& workdir = flags.workdir;
  const std::uint64_t seed = inputSeed(flags.seed, flags.netlist);
  const std::vector<GeneratorConfig> configs =
      designConfigs(w, seed, flags.smoke);
  std::vector<std::unique_ptr<Database>> dbs;
  double generate_s = 0.0;
  out.setupS = timedSpan(log, "setup", [&] {
    generate_s = timedSpan(log, "gen.generate", [&] {
      for (const GeneratorConfig& config : configs) {
        dbs.push_back(generateNetlist(config));
      }
    });
  });
  const bool traced = flags.traced;
  const std::size_t n = dbs.size();
  std::vector<IterationClock> clocks(n);
  std::vector<Clock::time_point> starts(n);
  std::vector<PlacementJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].db = dbs[i].get();
    jobs[i].options = flowOptions(w.kind);
    jobs[i].name = configs[i].designName;
    if (traced) {
      jobs[i].options.telemetry = &clocks[i];
      jobs[i].attemptHook = [&starts, i](int) { starts[i] = Clock::now(); };
    }
  }
  EngineOptions engine_options;
  engine_options.threads = threads;
  engine_options.maxConcurrentJobs = threads;
  PlacementEngine engine(engine_options);
  const std::int64_t busy0 = engine.pool().busyMicros();
  const std::int64_t capacity0 = engine.pool().capacityMicros();
  const double cpu0 = cpuSeconds();
  const double flow_start_us = log.nowUs();
  BatchReport batch;
  out.flowS = timedSpan(log, "flow",
                        [&] { batch = engine.run(std::move(jobs)); });
  const int flow_span = static_cast<int>(log.spans().size()) - 1;
  const double cpu = cpuSeconds() - cpu0;
  out.attempted = static_cast<int>(n);
  out.rssMb = static_cast<double>(sampleProcessMemory().vmHwmBytes) / 1e6;
  for (const JobReport& job : batch.jobs) {
    const bool ok = job.status == JobStatus::kSucceeded;
    check(out, ok,
          "job " + job.name + " ended " + statusName(job.status) + ": " +
              job.error);
    if (ok) {
      const std::size_t before = out.errors.size();
      checkFlow(out, job.result, "job " + job.name);
      if (out.errors.size() != before) {
        ++out.failed;
      }
    } else {
      ++out.failed;
    }
    out.jobS.push_back(job.wallSeconds);
    out.designs.push_back(job.name);
    out.hpwl.push_back(job.result.hpwl);
  }
  if (!traced) {
    return;
  }

  std::map<std::string, double>& layer = out.layer;
  std::map<std::string, CounterRegistry::Value> counters;
  GpTiming timing;
  double job_sum = 0.0, job_max = 0.0, stage_sum = 0.0, memory_peak = 0.0;
  double hpwl_legal = 0.0, hpwl_final = 0.0;
  Index movable = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobReport& job = batch.jobs[i];
    const FlowResult& r = job.result;
    const double start_us = std::max(log.toUs(starts[i]), flow_start_us);
    log.add("job." + job.name, start_us, start_us + job.wallSeconds * 1e6,
            flow_span);
    layer["place.gp_s"] += r.gpSeconds;
    layer["place.lg_s"] += r.lgSeconds;
    layer["place.dp_s"] += r.dpSeconds;
    stage_sum += r.gpSeconds + r.lgSeconds + r.dpSeconds;
    job_sum += job.wallSeconds;
    job_max = std::max(job_max, job.wallSeconds);
    hpwl_legal += r.hpwlLegal;
    hpwl_final += r.hpwl;
    layer["gp.hpwl"] += r.hpwlGp;
    movable += dbs[i]->numMovable();
    timing.add(starts[i], clocks[i].stamps());
    addCounters(counters, job.report.counters);
    double tracked = 0.0;
    for (const auto& [key, usage] : job.report.trackedMemory) {
      tracked += static_cast<double>(usage.peakBytes) / 1e6;
    }
    memory_peak = std::max(memory_peak, tracked);
  }
  // Per-flow fixed costs: job wall time outside the gp/lg/dp stages.
  layer["place.overhead_s"] = job_sum - stage_sum;
  layer["gen.generate_s"] = generate_s;
  timing.emit(layer);
  layer["dp.hpwl_gain"] = (hpwl_legal - hpwl_final) / hpwl_legal;
  layer["engine.job_s_max"] = job_max;
  layer["engine.lane_busy_frac"] = job_sum / (threads * out.flowS);
  layer["parallel.cpu_per_wall"] = cpu / out.flowS;
  const double capacity =
      static_cast<double>(engine.pool().capacityMicros() - capacity0);
  layer["parallel.utilization"] =
      capacity > 0
          ? static_cast<double>(engine.pool().busyMicros() - busy0) / capacity
          : 0.0;
  layer["memory.tracked_peak_mb"] = memory_peak;
  emitCounters(counters, movable, layer);

  layer["io.write_s"] = timedSpan(log, "io.write", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      writePlacement(*dbs[i], workdir + "/" + configs[i].designName + ".pl");
    }
  });
  layer["io.read_s"] = timedSpan(log, "io.read", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto reread =
          readBookshelf(auxPath(workdir, w, flags.netlist, configs[i]));
      check(out, reread->numPins() == dbs[i]->numPins(),
            "bookshelf round trip changed the netlist of " +
                configs[i].designName);
    }
  });

  // Layer replays on the largest design (the job that sets the batch
  // time), legalized by a GP+LG flow of its own outside the batch.
  const std::size_t largest = static_cast<std::size_t>(
      std::max_element(configs.begin(), configs.end(),
                       [](const GeneratorConfig& a, const GeneratorConfig& b) {
                         return a.numCells < b.numCells;
                       }) -
      configs.begin());
  auto db = generateNetlist(configs[largest]);
  PlacerOptions options = flowOptions(w.kind);
  options.runDetailedPlacement = false;
  placeDesign(*db, options);
  const Positions legal = positionsOf(*db);
  DetailedPlacer(options.dp).run(*db);
  replayBackend(*db, legal, positionsOf(*db), options, threads, log, out);
  replayOps<float>(*db, options.gp, seed, threads, log, layer);
}

/// A child that runs longer than this is killed (SIGALRM) and counted as
/// failed, so one hung rep cannot hang the whole run.
constexpr unsigned kChildAlarmSeconds = 170;

/// Child entry point: runs one rep and prints its result as one line.
int runChild(const Flags& flags) {
  alarm(kChildAlarmSeconds);
  const Workload* w = findWorkload(flags.child);
  if (w == nullptr) {
    usageError("unknown workload '" + flags.child + "'");
  }
  const int threads = benchThreads();
  ThreadPool::instance().setThreads(threads);
  SpanLog log;
  RepOutput out;
  try {
    switch (w->kind) {
      case Kind::kFlowRef:
        singleFlowRep<double>(*w, flags, threads, log, out);
        break;
      case Kind::kFlowFast:
      case Kind::kBackendJitter:
        singleFlowRep<float>(*w, flags, threads, log, out);
        break;
      case Kind::kBatch:
        batchRep(*w, flags, threads, log, out);
        break;
    }
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("exception: ") + e.what());
  }
  if (!out.errors.empty() && out.failed == 0) {
    out.failed = std::max(1, out.attempted);
  }
  out.attempted = std::max(out.attempted, 1);

  json::Json j;
  const auto num = [&j](double v) { j.rawValue(formatNumber(v)); };
  j.openObject();
  j.key("setup_s"); num(out.setupS);
  j.key("flow_s"); num(out.flowS);
  j.key("peak_rss_mb"); num(out.rssMb);
  j.key("designs");
  j.openArray();
  for (const std::string& d : out.designs) {
    j.value(d);
  }
  j.closeArray();
  j.key("hpwl");
  j.openArray();
  for (const double v : out.hpwl) {
    num(v);
  }
  j.closeArray();
  j.key("attempted"); j.value(out.attempted);
  j.key("failed"); j.value(out.failed);
  j.key("job_s");
  j.openArray();
  for (const double v : out.jobS) {
    num(v);
  }
  j.closeArray();
  j.key("errors");
  j.openArray();
  for (const std::string& e : out.errors) {
    j.value(e);
  }
  j.closeArray();
  if (flags.traced) {
    j.key("layer");
    j.openObject();
    for (const auto& [key, value] : out.layer) {
      j.key(key); num(value);
    }
    j.closeObject();
    j.key("spans");
    j.openArray();
    for (const Span& s : log.spans()) {
      j.openObject();
      j.key("name"); j.value(s.name);
      j.key("start_us"); num(s.startUs);
      j.key("end_us"); num(s.endUs);
      j.key("parent"); j.value(s.parent);
      j.closeObject();
    }
    j.closeArray();
  }
  j.closeObject();
  std::printf("%s\n", j.out.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: prepares inputs, schedules reps, aggregates and reports.
// ---------------------------------------------------------------------------

struct RepSpans {
  int rep = 0;
  std::string workload;
  std::vector<Span> spans;
};

struct Series {
  const Workload* workload = nullptr;
  int untracedReps = 0;
  int tracedReps = 0;
  double spentS = 0.0;  ///< Child wall time so far (the --seconds budget).
  std::map<std::string, std::vector<double>> e2e;    ///< Untraced reps.
  std::map<std::string, std::vector<double>> layer;  ///< Traced reps.
  /// Each untraced rep's own job_s median and p75. On batch_ispd a rep
  /// holds eight jobs of different sizes, so the spread of the pooled
  /// samples measures the designs, not the noise between reps.
  std::map<std::string, std::vector<double>> perRep;
  /// Final HPWL of every placed design, keyed "<netlist>/<design name>";
  /// all reps of one design, traced or not, must agree bit for bit.
  std::map<std::string, std::vector<double>> hpwl;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  bool correct() const { return errors.empty() && failed == 0; }
};

std::string selfExe() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string("/proc/self/exe") : p.string();
}

/// Spawns `args` with stdout captured; returns the exit status (-1 when
/// the child could not be started or died on a signal).
int spawnCapture(const std::vector<std::string>& args, std::string& stdout_text) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return -1;
  }
  char buf[65536];
  ssize_t got = 0;
  while ((got = read(fds[0], buf, sizeof(buf))) != 0) {
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    stdout_text.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return -1;
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A metric as BENCHMARK.json lists it.
struct MetricDef {
  std::string name;
  std::string unit;
  bool lowerIsBetter = true;
  double bound = 0.0;  ///< end_to_end only.
};

struct MetricList {
  std::vector<MetricDef> endToEnd;
  std::vector<MetricDef> perLayer;
};

FlatJson readFlat(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  FlatJson out;
  std::string error;
  if (!parseJsonFlat(ss.str(), out, &error)) {
    throw std::runtime_error(path + ": " + error);
  }
  return out;
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << '\n';
  if (!f) {
    throw std::runtime_error("cannot write " + path);
  }
}

MetricList loadMetrics(const std::string& path) {
  const FlatJson doc = readFlat(path);
  const auto section = [&doc](const std::string& key) {
    std::vector<MetricDef> out;
    for (int i = 0;; ++i) {
      const std::string p = key + "." + std::to_string(i) + ".";
      const auto name = doc.strings.find(p + "name");
      if (name == doc.strings.end()) {
        return out;
      }
      MetricDef m{name->second, "", true, 0.0};
      if (const auto it = doc.strings.find(p + "unit"); it != doc.strings.end()) {
        m.unit = it->second;
      }
      if (const auto it = doc.strings.find(p + "better");
          it != doc.strings.end()) {
        m.lowerIsBetter = it->second != "higher";
      }
      if (const auto it = doc.numbers.find(p + "bound"); it != doc.numbers.end()) {
        m.bound = it->second;
      }
      out.push_back(std::move(m));
    }
  };
  MetricList list{section("end_to_end"), section("per_layer")};
  if (list.endToEnd.empty()) {
    throw std::runtime_error(path + " lists no end_to_end metrics");
  }
  return list;
}

struct SuiteOptions {
  Flags flags;
  std::string exe;
  std::string workdir;  ///< Private scratch directory of this invocation.
  MetricList metrics;   ///< From BENCHMARK.json.
};

/// Untimed prep: writes the Bookshelf files the reps read (flow_fast's
/// set-up; the io.read replay of traced reps, which place netlist 0).
void prepare(const SuiteOptions& suite) {
  const Flags& flags = suite.flags;
  for (const Workload* w : flags.workloads) {
    const int netlists = w->kind == Kind::kFlowFast ? w->netlists
                         : flags.traced             ? 1
                                                    : 0;
    for (int n = 0; n < netlists; ++n) {
      for (const GeneratorConfig& config :
           designConfigs(*w, inputSeed(flags.seed, n), flags.smoke)) {
        const fs::path aux = auxPath(suite.workdir, *w, n, config);
        const auto db = generateNetlist(config);
        writeBookshelf(*db, aux.parent_path().string(), config.designName);
      }
    }
  }
}

void runRep(const SuiteOptions& suite, Series& series, bool traced, int rep,
            int netlist, std::vector<RepSpans>& spans) {
  const Flags& flags = suite.flags;
  std::vector<std::string> args = {
      suite.exe,
      std::string("--child=") + series.workload->name,
      "--seed=" + std::to_string(flags.seed),
      "--netlist=" + std::to_string(netlist),
      std::string("--trace=") + (traced ? "1" : "0"),
      "--workdir=" + suite.workdir,
  };
  if (flags.smoke) {
    args.push_back("--smoke");
  }
  args.push_back("--spawn-ns=" + std::to_string(steadyNs()));
  Timer wall;
  std::string text;
  const int status = spawnCapture(args, text);
  series.spentS += wall.elapsed();
  ++(traced ? series.tracedReps : series.untracedReps);
  const std::string tag = std::string(series.workload->name) + " rep " +
                          std::to_string(rep) + ": ";
  // The child prints its result as the last line of its stdout.
  while (!text.empty() && text.back() == '\n') {
    text.pop_back();
  }
  const std::size_t line = text.rfind('\n');
  FlatJson result;
  std::string error;
  if (status != 0 || text.empty() ||
      !parseJsonFlat(text.substr(line == std::string::npos ? 0 : line + 1),
                     result, &error)) {
    series.errors.push_back(tag + "child failed (exit status " +
                            std::to_string(status) + ") " + error);
    ++series.attempted;
    ++series.failed;
    return;
  }
  const auto value = [&result](const std::string& key) {
    const auto it = result.numbers.find(key);
    return it == result.numbers.end() ? 0.0 : it->second;
  };
  series.attempted += static_cast<int>(value("attempted"));
  series.failed += static_cast<int>(value("failed"));
  for (int i = 0; result.strings.count("errors." + std::to_string(i)); ++i) {
    series.errors.push_back(tag + result.strings["errors." + std::to_string(i)]);
  }
  for (int i = 0; result.hasNumber("hpwl." + std::to_string(i)); ++i) {
    const std::string design = result.strings["designs." + std::to_string(i)];
    series.hpwl[std::to_string(netlist) + "/" + design].push_back(
        value("hpwl." + std::to_string(i)));
  }
  if (!traced) {
    for (const char* key : {"setup_s", "flow_s", "peak_rss_mb"}) {
      series.e2e[key].push_back(value(key));
    }
    std::vector<double> jobs;
    for (int i = 0; result.hasNumber("job_s." + std::to_string(i)); ++i) {
      jobs.push_back(value("job_s." + std::to_string(i)));
    }
    if (!jobs.empty()) {
      std::vector<double>& pooled = series.e2e["job_s"];
      pooled.insert(pooled.end(), jobs.begin(), jobs.end());
      series.perRep["job_s"].push_back(median(jobs));
      series.perRep["job_s_p75"].push_back(quantile(jobs, 3, 4));
    }
    return;
  }
  for (const auto& [key, v] : result.numbers) {
    if (key.rfind("layer.", 0) == 0) {
      series.layer[key.substr(6)].push_back(v);
    }
  }
  RepSpans rs{rep, series.workload->name, {}};
  for (int i = 0; result.strings.count("spans." + std::to_string(i) + ".name");
       ++i) {
    const std::string p = "spans." + std::to_string(i) + ".";
    rs.spans.push_back({result.strings[p + "name"], value(p + "start_us"),
                        value(p + "end_us"),
                        static_cast<int>(value(p + "parent"))});
  }
  spans.push_back(std::move(rs));
}

/// One summarized metric: median, quartiles and the samples behind them.
struct Summary {
  std::string unit;
  double value = 0.0;  ///< The reported number (median, or p75 for *_p75).
  double q1 = 0.0;
  double q3 = 0.0;
  /// Noise between reps: (q3 - q1) / median of each rep's own value. It
  /// is what --compare weighs a change against; 0 for hpwl.
  double spread = 0.0;
  std::vector<double> samples;
  /// hpwl only: the final HPWL of each design, keyed as Series::hpwl.
  std::map<std::string, double> designs;
};

double relativeIqr(const std::vector<double>& v) {
  const double m = median(v);
  return m != 0.0 ? (quantile(v, 3, 4) - quantile(v, 1, 4)) / m : 0.0;
}

std::map<std::string, Summary> summarize(const Series& series,
                                         const MetricList& metrics) {
  std::map<std::string, Summary> out;
  const auto put = [&out](const MetricDef& m, const std::vector<double>& v,
                          int q, const std::vector<double>& reps) {
    out[m.name] = {m.unit,          quantile(v, q, 4), quantile(v, 1, 4),
                   quantile(v, 3, 4), relativeIqr(reps), v, {}};
  };
  for (const MetricDef& m : metrics.endToEnd) {
    if (m.name == "hpwl" && !series.hpwl.empty()) {
      // Geometric mean over the run's designs, so each counts equally.
      // Every rep of a design reproduces its HPWL (finishChecks), so the
      // metric has no rep-to-rep spread: q1 = q3 = the value. The samples
      // are the designs' HPWLs; --compare pairs them by design.
      Summary s{m.unit, 0.0, 0.0, 0.0, 0.0, {}, {}};
      double log_sum = 0.0;
      for (const auto& [key, values] : series.hpwl) {
        s.designs[key] = values.front();
        s.samples.push_back(values.front());
        log_sum += std::log(values.front());
      }
      s.value = s.q1 = s.q3 = std::exp(log_sum / s.samples.size());
      out[m.name] = std::move(s);
      continue;
    }
    const bool p75 = m.name == "job_s_p75";
    const auto it = series.e2e.find(p75 ? "job_s" : m.name);
    if (it != series.e2e.end() && !it->second.empty()) {
      const auto reps = series.perRep.find(m.name);
      put(m, it->second, p75 ? 3 : 2,
          reps != series.perRep.end() ? reps->second : it->second);
    }
  }
  for (const MetricDef& m : metrics.perLayer) {
    if (const auto it = series.layer.find(m.name); it != series.layer.end()) {
      put(m, it->second, 2, it->second);
    }
  }
  return out;
}

void finishChecks(Series& series, const MetricList& metrics) {
  const std::string w = series.workload->name;
  for (const auto& [key, values] : series.hpwl) {
    for (const double h : values) {
      if (h != values.front()) {
        series.errors.push_back(w + ": hpwl of design " + key +
                                " differs between reps");
        break;
      }
    }
  }
  // Every listed metric on every workload: the result line of a run must
  // carry each one BENCHMARK.json names.
  const std::map<std::string, Summary> measured = summarize(series, metrics);
  for (const auto* list : {&metrics.endToEnd, &metrics.perLayer}) {
    if (list == &metrics.perLayer && series.tracedReps == 0) {
      continue;
    }
    for (const MetricDef& m : *list) {
      if (measured.count(m.name) == 0) {
        series.errors.push_back(w + ": metric " + m.name + " was not measured");
      }
    }
  }
}

void writeTraceFile(const std::string& path,
                    const std::vector<RepSpans>& reps) {
  json::Json j;
  j.openObject();
  j.key("traceEvents");
  j.openArray();
  for (const RepSpans& rep : reps) {
    for (const Span& s : rep.spans) {
      j.openObject();
      j.key("name"); j.value(s.name);
      j.key("ph"); j.value("X");
      j.key("ts"); j.value(s.startUs);
      j.key("dur"); j.value(s.endUs - s.startUs);
      j.key("pid"); j.value(rep.rep);
      j.key("tid"); j.value(0);
      j.key("args");
      j.openObject();
      j.key("workload"); j.value(rep.workload);
      j.key("rep"); j.value(rep.rep);
      j.key("parent");
      j.value(s.parent >= 0 ? rep.spans[s.parent].name : std::string());
      j.closeObject();
      j.closeObject();
    }
  }
  j.closeArray();
  j.closeObject();
  writeFile(path, j.out);
}

void writeJsonFile(const std::string& path, const SuiteOptions& suite,
                   const std::vector<Series>& all) {
  json::Json j;
  j.openObject();
  j.key("schema"); j.value("dreamplace.bench_suite.v1");
  j.key("seed"); j.value(static_cast<std::int64_t>(suite.flags.seed));
  j.key("seconds"); j.value(suite.flags.seconds);
  j.key("threads"); j.value(benchThreads());
  j.key("traced"); j.value(suite.flags.traced);
  j.key("workloads");
  j.openObject();
  for (const Series& s : all) {
    j.key(s.workload->name);
    j.openObject();
    j.key("correct"); j.value(s.correct());
    j.key("attempted"); j.value(s.attempted);
    j.key("failed"); j.value(s.failed);
    j.key("metrics");
    j.openObject();
    for (const auto& [name, m] : summarize(s, suite.metrics)) {
      j.key(name);
      j.openObject();
      j.key("unit"); j.value(m.unit);
      j.key("median"); j.rawValue(formatNumber(m.value));
      j.key("q1"); j.rawValue(formatNumber(m.q1));
      j.key("q3"); j.rawValue(formatNumber(m.q3));
      j.key("spread"); j.rawValue(formatNumber(m.spread));
      j.key("n"); j.value(static_cast<int>(m.samples.size()));
      j.key("samples");
      j.openArray();
      for (const double v : m.samples) {
        j.rawValue(formatNumber(v));
      }
      j.closeArray();
      if (!m.designs.empty()) {
        j.key("designs");
        j.openObject();
        for (const auto& [key, v] : m.designs) {
          j.key(key); j.rawValue(formatNumber(v));
        }
        j.closeObject();
      }
      j.closeObject();
    }
    j.closeObject();
    j.closeObject();
  }
  j.closeObject();
  j.closeObject();
  writeFile(path, j.out);
}

/// Runs the selected workloads and returns their series.
std::vector<Series> runSuite(const SuiteOptions& suite,
                             std::vector<RepSpans>& spans) {
  const Flags& flags = suite.flags;
  prepare(suite);
  std::vector<Series> all;
  for (const Workload* w : flags.workloads) {
    Series& s = all.emplace_back();
    s.workload = w;
  }
  // A traced invocation runs one untraced rep per workload first: its hpwl
  // is the reference the traced flow (on the same netlist 0) must match
  // bit for bit. Untraced reps cycle through the workload's netlists.
  const int min_reps = flags.reps > 0 ? flags.reps : (flags.traced ? 1 : 3);
  const auto wantsMore = [&](const Series& s) {
    if (flags.traced && s.untracedReps == 0) {
      return true;
    }
    if ((flags.traced ? s.tracedReps : s.untracedReps) < min_reps) {
      return true;
    }
    if (flags.reps > 0) {
      return false;
    }
    const double per_rep = s.spentS / (s.untracedReps + s.tracedReps);
    return s.spentS + per_rep <= flags.seconds;
  };
  int rep_id = 0;
  bool any = true;
  while (any) {
    any = false;
    for (Series& s : all) {
      if (!wantsMore(s)) {
        continue;
      }
      any = true;
      const bool traced = flags.traced && s.untracedReps > 0;
      const int netlist = traced ? 0 : s.untracedReps % s.workload->netlists;
      runRep(suite, s, traced, rep_id++, netlist, spans);
    }
  }
  for (Series& s : all) {
    finishChecks(s, suite.metrics);
  }
  return all;
}

void printSeries(const Series& s, const MetricList& metrics) {
  std::printf("\n%s: %d untraced + %d traced reps, %d/%d failed%s\n",
              s.workload->name, s.untracedReps, s.tracedReps, s.failed,
              s.attempted, s.correct() ? "" : "  [CHECK FAILED]");
  std::printf("  %-26s %-8s %14s %14s %14s %4s %8s\n", "metric", "unit",
              "median", "q1", "q3", "n", "spread");
  for (const auto& [name, m] : summarize(s, metrics)) {
    std::printf("  %-26s %-8s %14.6g %14.6g %14.6g %4zu %7.2f%%\n",
                name.c_str(), m.unit.c_str(), m.value, m.q1, m.q3,
                m.samples.size(), 100.0 * m.spread);
  }
  for (const std::string& e : s.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
}

/// The last stdout line: one JSON object with the end-to-end metrics (the
/// per-layer ones when traced). Metric names get a "<workload>." prefix
/// when several workloads ran.
void printResultLine(const SuiteOptions& suite, const std::vector<Series>& all) {
  bool correct = true;
  int attempted = 0, failed = 0;
  for (const Series& s : all) {
    correct = correct && s.correct();
    attempted += s.attempted;
    failed += s.failed;
  }
  const std::vector<MetricDef>& listed =
      suite.flags.traced ? suite.metrics.perLayer : suite.metrics.endToEnd;
  json::Json j;
  j.openObject();
  j.key("correct"); j.value(correct);
  j.key("attempted"); j.value(std::max(attempted, 1));
  j.key("failed"); j.value(failed);
  j.key("metrics");
  j.openObject();
  for (const Series& s : all) {
    const std::string prefix =
        all.size() > 1 ? std::string(s.workload->name) + "." : "";
    const std::map<std::string, Summary> summary = summarize(s, suite.metrics);
    for (const MetricDef& m : listed) {
      if (const auto it = summary.find(m.name); it != summary.end()) {
        j.key(prefix + m.name);
        j.openObject();
        j.key("value"); j.rawValue(formatNumber(it->second.value));
        j.key("unit"); j.value(m.unit);
        j.closeObject();
      }
    }
  }
  j.closeObject();
  j.closeObject();
  std::printf("%s\n", j.out.c_str());
}

// ---------------------------------------------------------------------------
// --compare and --smoke.
// ---------------------------------------------------------------------------

/// hpwl of two runs paired by design (`p` is the metric's path): sets
/// `change` to the geometric mean of the per-design ratios B/A minus 1 and
/// `worst` to the design whose HPWL rose most. Returns false when the runs
/// did not place the same designs (another seed or size).
bool hpwlChange(const FlatJson& a, const FlatJson& b, const std::string& p,
                double& change, std::pair<std::string, double>& worst) {
  const std::string prefix = p + "designs.";
  const auto designs = [&prefix](const FlatJson& f) {
    std::map<std::string, double> out;
    for (auto it = f.numbers.lower_bound(prefix);
         it != f.numbers.end() && it->first.rfind(prefix, 0) == 0; ++it) {
      out[it->first.substr(prefix.size())] = it->second;
    }
    return out;
  };
  const std::map<std::string, double> da = designs(a), db = designs(b);
  if (da.empty() || da.size() != db.size() ||
      a.numbers.at("seed") != b.numbers.at("seed")) {
    return false;
  }
  double log_sum = 0.0;
  worst = {"", -1.0};
  for (const auto& [key, va] : da) {
    const auto it = db.find(key);
    if (it == db.end()) {
      return false;
    }
    const double rise = it->second / va - 1.0;
    log_sum += std::log1p(rise);
    if (rise > worst.second) {
      worst = {key, rise};
    }
  }
  change = std::expm1(log_sum / static_cast<double>(da.size()));
  return true;
}

int runCompare(const Flags& flags, const MetricList& metrics) {
  const std::size_t comma = flags.compare.find(',');
  if (comma == std::string::npos) {
    usageError("--compare expects A.json,B.json");
  }
  FlatJson a = readFlat(flags.compare.substr(0, comma));
  FlatJson b = readFlat(flags.compare.substr(comma + 1));
  if (!a.hasNumber("seed") || !b.hasNumber("seed")) {
    usageError("--compare expects two --json files of bench_suite");
  }
  int worse = 0, compared = 0;
  std::printf("%-15s %-12s %14s %22s %14s %22s %8s %7s %7s  %s\n", "workload",
              "metric", "A median", "A q1..q3", "B median", "B q1..q3",
              "change", "spread", "bound", "verdict");
  for (const Workload& w : kWorkloads) {
    for (const MetricDef& m : metrics.endToEnd) {
      const std::string p =
          std::string("workloads.") + w.name + ".metrics." + m.name + ".";
      if (!a.hasNumber(p + "median") || !b.hasNumber(p + "median")) {
        continue;
      }
      ++compared;
      const double am = a.numbers[p + "median"], bm = b.numbers[p + "median"];
      const double aq1 = a.numbers[p + "q1"], aq3 = a.numbers[p + "q3"];
      const double bq1 = b.numbers[p + "q1"], bq3 = b.numbers[p + "q3"];
      double change = am != 0.0 ? (bm - am) / am : 0.0;
      // Rep-to-rep noise of the noisier run (0 for hpwl).
      const double spread =
          std::max(a.numbers[p + "spread"], b.numbers[p + "spread"]);
      bool resolved = spread <= m.bound;
      bool identical = am == bm;
      char note[160] = "";
      if (m.name == "hpwl") {
        // Exact for a seed: compared design by design, never by spread.
        std::pair<std::string, double> worst;
        resolved = hpwlChange(a, b, p, change, worst);
        identical = resolved && worst.second == 0.0 && change == 0.0;
        if (!resolved) {
          std::snprintf(note, sizeof(note),
                        " (the runs placed different designs)");
        } else if (!identical) {
          std::snprintf(note, sizeof(note), " (worst design %s: %+.3f%%)",
                        worst.first.c_str(), 100.0 * worst.second);
        }
      }
      const double worsening = m.lowerIsBetter ? change : -change;
      const char* verdict = "within bound";
      if (identical) {
        verdict = "identical";
      } else if (!resolved) {
        verdict = "unresolved";
      } else if (worsening > m.bound) {
        verdict = "worse";
        ++worse;
      } else if (worsening < -m.bound) {
        verdict = "better";
      }
      std::printf("%-15s %-12s %14.6g %10.4g..%-10.4g %14.6g %10.4g..%-10.4g "
                  "%+7.2f%% %6.1f%% %6.1f%%  %s%s\n",
                  w.name, m.name.c_str(), am, aq1, aq3, bm, bq1, bq3,
                  100.0 * change, 100.0 * spread, 100.0 * m.bound, verdict,
                  note);
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "bench_suite: nothing to compare\n");
    return 1;
  }
  return worse == 0 ? 0 : 1;
}

/// Every workload shrunk to <= 2,500 cells, one untraced and one traced
/// rep: all checks pass, every listed metric is emitted (finishChecks),
/// and an unknown flag exits 2.
int runSmoke(const SuiteOptions& suite, std::vector<RepSpans>& spans) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("smoke: FAIL %s\n", what.c_str());
      ++failures;
    }
  };
  for (const Series& s : runSuite(suite, spans)) {
    printSeries(s, suite.metrics);
    expect(s.correct(), std::string(s.workload->name) + " checks pass");
  }
  expect(!suite.metrics.perLayer.empty(), "per-layer metrics are listed");
  std::string ignored;
  expect(spawnCapture({suite.exe, "--no-such-flag"}, ignored) == 2,
         "an unknown flag exits 2");
  std::printf("smoke: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = parseFlags(argc, argv);
  // Library logs go to stderr; DREAMPLACE_LOG_LEVEL overrides the quiet
  // default when a run needs debugging.
  setLogLevel(LogLevel::kWarn);
  initLogLevelFromEnv();
  if (!flags.child.empty()) {
    return runChild(flags);
  }
  if (flags.smoke) {
    flags.traced = true;
    flags.reps = 1;
  }
  SuiteOptions suite{flags, selfExe(), {}, {}};
  int rc = 0;
  try {
    suite.metrics = loadMetrics(flags.benchmarkFile);
    if (!flags.compare.empty()) {
      return runCompare(flags, suite.metrics);
    }
    const fs::path base = flags.workdir.empty() ? fs::temp_directory_path()
                                                : fs::path(flags.workdir);
    suite.workdir =
        (base / ("bench_suite." + std::to_string(getpid()))).string();
    fs::create_directories(suite.workdir);
    std::vector<RepSpans> spans;
    if (flags.smoke) {
      rc = runSmoke(suite, spans);
    } else {
      const std::vector<Series> all = runSuite(suite, spans);
      for (const Series& s : all) {
        printSeries(s, suite.metrics);
        rc = s.correct() ? rc : 1;
      }
      if (!flags.json.empty()) {
        writeJsonFile(flags.json, suite, all);
      }
      if (!flags.traceFile.empty()) {
        writeTraceFile(flags.traceFile, spans);
      }
      std::printf("\n");
      printResultLine(suite, all);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    rc = 1;
  }
  if (!suite.workdir.empty()) {
    std::error_code ec;
    fs::remove_all(suite.workdir, ec);
  }
  return rc;
}
