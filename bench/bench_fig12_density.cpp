// Fig. 12 reproduction: full density forward+backward, float32 —
// (a) DAC'19 baseline kernels (naive scatter, 1x1, row-column 2N DCT) vs
// the TCAD kernels (sorted scatter, 2x2, single-pass 2-D DCT);
// (b) 1 thread vs all hardware threads for the TCAD config.
//
// Paper shape: TCAD kernels 1.5-2.1x faster than the DAC version; CPU
// threading gives ~3.1x at 40 threads (the local sweep stops at the
// machine's core count; see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "gen/netlist_generator.h"
#include "ops/density_op.h"

namespace {

using namespace dreamplace;
using namespace dreamplace::bench;

struct Setup {
  std::unique_ptr<Database> db;
  std::vector<float> params;
  std::vector<float> grad;
  std::vector<float> nodeW, nodeH;
  DensityGrid<float> grid;

  explicit Setup(const char* design) {
    const SuiteEntry entry = findSuiteEntry(design, benchScale(0.01));
    db = generateNetlist(entry.config);
    grid = makeGrid<float>(db->dieArea(), db->numMovable());
    std::vector<float> fw, fh;
    computeFillers<float>(*db, 1.0, fw, fh);
    DensityOp<float>::makeNodeSizes(*db, fw, fh, nodeW, nodeH);
    const Index n = static_cast<Index>(nodeW.size());
    params.resize(2 * static_cast<size_t>(n));
    grad.resize(params.size());
    Rng rng(11);
    const auto& die = db->dieArea();
    for (Index i = 0; i < n; ++i) {
      params[i] = static_cast<float>(rng.uniform(die.xl, die.xh));
      params[i + n] = static_cast<float>(rng.uniform(die.yl, die.yh));
    }
  }
};

Setup& setupFor(const std::string& design) {
  static std::map<std::string, std::unique_ptr<Setup>> cache;
  auto& slot = cache[design];
  if (!slot) {
    slot = std::make_unique<Setup>(design.c_str());
  }
  return *slot;
}

void densityBench(benchmark::State& state, const std::string& design,
                  bool tcad, int threads) {
  Setup& setup = setupFor(design);
  DensityOp<float>::Options options;
  if (tcad) {
    options.map.kernel = DensityKernel::kSorted;
    options.map.subdivision = 1;  // CPU backend: no sub-rect splitting
    options.dct = fft::Dct2dAlgorithm::kFft2dN;
  } else {
    options.map.kernel = DensityKernel::kNaive;
    options.map.subdivision = 1;
    options.dct = fft::Dct2dAlgorithm::kRowCol2N;
  }
  DensityOp<float> op(*setup.db, setup.grid, setup.nodeW, setup.nodeH,
                      options);
  const int prev = ThreadPool::instance().threads();
  if (threads > 0) {
    ThreadPool::instance().setThreads(threads);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.evaluate(
        std::span<const float>(setup.params), std::span<float>(setup.grad)));
  }
  ThreadPool::instance().setThreads(prev);
}

void registerAll() {
  const int hw = ThreadPool::instance().threads();
  for (const char* design : {"adaptec1", "bigblue4"}) {
    benchmark::RegisterBenchmark(
        (std::string("density/") + design + "/dac_baseline").c_str(),
        [design](benchmark::State& s) { densityBench(s, design, false, 0); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("density/") + design + "/tcad").c_str(),
        [design](benchmark::State& s) { densityBench(s, design, true, 0); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("density/") + design + "/tcad_1thread").c_str(),
        [design](benchmark::State& s) { densityBench(s, design, true, 1); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("density/") + design + "/tcad_" + std::to_string(hw) +
            "threads").c_str(),
        [design, hw](benchmark::State& s) {
          densityBench(s, design, true, hw);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

// Self-timed sweep for the machine-readable export (same pattern as
// bench_fig11_dct): best of `kIters` evaluate() calls after one warm-up,
// which also makes the density/fft counter snapshot deterministic.
void writeJsonReport(const std::string& path) {
  constexpr int kIters = 3;
  BenchJsonWriter writer("fig12_density");
  for (const char* design : {"adaptec1", "bigblue4"}) {
    Setup& setup = setupFor(design);
    for (bool tcad : {false, true}) {
      DensityOp<float>::Options options;
      if (tcad) {
        options.map.kernel = DensityKernel::kSorted;
        options.map.subdivision = 1;
        options.dct = fft::Dct2dAlgorithm::kFft2dN;
      } else {
        options.map.kernel = DensityKernel::kNaive;
        options.map.subdivision = 1;
        options.dct = fft::Dct2dAlgorithm::kRowCol2N;
      }
      DensityOp<float> op(*setup.db, setup.grid, setup.nodeW, setup.nodeH,
                          options);
      const auto run = [&] {
        benchmark::DoNotOptimize(
            op.evaluate(std::span<const float>(setup.params),
                        std::span<float>(setup.grad)));
      };
      run();  // warm-up: first solve allocates the solution buffers
      double best_ms = 0;
      for (int i = 0; i < kIters; ++i) {
        Timer timer;
        run();
        const double ms = timer.elapsed() * 1000.0;
        if (i == 0 || ms < best_ms) {
          best_ms = ms;
        }
      }
      writer.addResult(std::string("density/") + design + "/" +
                           (tcad ? "tcad" : "dac_baseline"),
                       op.numNodes(), best_ms);
    }
  }
  writer.addCounterPrefix("ops/density/");
  writer.addCounterPrefix("ops/electrostatics/");
  writer.addCounterPrefix("fft/");
  if (writer.write(path)) {
    std::printf("bench json written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "bench json: cannot write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      benchJsonPath(argc, argv, "BENCH_fig12.json");
  applyBenchThreads(argc, argv);
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) {
    writeJsonReport(json_path);
  }
  return 0;
}
