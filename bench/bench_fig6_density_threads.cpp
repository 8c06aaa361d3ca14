// Fig. 6 reproduction: number of "threads" (sub-rectangles) used to update
// one cell in density forward+backward, on bigblue4, float32 and float64.
//
// Paper shape: 2x2 is the sweet spot (~20-30% faster than 1x1); larger
// factors pay more index-math and contention than they save in balance.
// On a CPU there is no warp to balance, so the expected local shape is:
// overhead grows with the subdivision factor, with 1x1/2x2 close
// together — the ablation still quantifies the redundancy cost the paper
// trades against warp balance.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "common/rng.h"
#include "gen/netlist_generator.h"
#include "ops/density_op.h"

namespace {

using namespace dreamplace;
using namespace dreamplace::bench;

template <typename T>
struct Setup {
  std::unique_ptr<Database> db;
  std::unique_ptr<DensityOp<T>> op;
  std::vector<T> params;
  std::vector<T> grad;

  Setup(int subdivision) {
    const SuiteEntry entry = findSuiteEntry("bigblue4", benchScale(0.01));
    db = generateNetlist(entry.config);
    const auto grid = makeGrid<T>(db->dieArea(), db->numMovable());
    std::vector<T> fw, fh, nw, nh;
    computeFillers<T>(*db, 1.0, fw, fh);
    DensityOp<T>::makeNodeSizes(*db, fw, fh, nw, nh);
    typename DensityOp<T>::Options options;
    options.map.subdivision = subdivision;
    op = std::make_unique<DensityOp<T>>(*db, grid, nw, nh, options);
    const Index n = op->numNodes();
    params.resize(2 * static_cast<size_t>(n));
    grad.resize(params.size());
    Rng rng(5);
    const auto& die = db->dieArea();
    for (Index i = 0; i < n; ++i) {
      params[i] = static_cast<T>(rng.uniform(die.xl, die.xh));
      params[i + n] = static_cast<T>(rng.uniform(die.yl, die.yh));
    }
  }
};

template <typename T>
void densityFwdBwd(benchmark::State& state) {
  static std::unique_ptr<Setup<T>> setup;
  static int cached_subdivision = -1;
  const int subdivision = static_cast<int>(state.range(0));
  if (!setup || cached_subdivision != subdivision) {
    setup = std::make_unique<Setup<T>>(subdivision);
    cached_subdivision = subdivision;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        setup->op->evaluate(std::span<const T>(setup->params),
                            std::span<T>(setup->grad)));
  }
}

}  // namespace

BENCHMARK(densityFwdBwd<float>)
    ->ArgName("kxk")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(densityFwdBwd<double>)
    ->ArgName("kxk")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
