// Solver playground (paper Sec. IV-C / Table IV): place the same design
// with each gradient-descent engine — Nesterov with Lipschitz line search
// (the ePlace solver), Adam, SGD+momentum, and RMSProp — and compare final
// HPWL and GP runtime. This is the "easily swap solvers" benefit of the
// placement-as-training framing.
//
//   ./solver_playground [num_cells] [seed]
#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/parse.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "place/placer.h"

namespace {

int run(int argc, char** argv) {
  using namespace dreamplace;

  GeneratorConfig config;
  config.numCells = argc > 1 ? parseNumber<Index>(argv[1], "num_cells") : 2000;
  config.seed = argc > 2 ? parseNumber<std::uint64_t>(argv[2], "seed") : 3;

  struct Entry {
    SolverKind kind;
    double lr;
    double decay;
  };
  const Entry entries[] = {
      {SolverKind::kNesterov, 0.0, 1.0},
      {SolverKind::kAdam, 2.0, 0.995},
      {SolverKind::kSgdMomentum, 3.0, 0.995},
      {SolverKind::kRmsProp, 1.0, 0.997},
  };

  std::printf("%-14s %14s %10s %8s %10s\n", "solver", "HPWL", "GP(s)",
              "iters", "overflow");
  for (const Entry& entry : entries) {
    auto db = generateNetlist(config);  // same seed => same design
    PlacerOptions options;
    options.gp.solver = entry.kind;
    options.gp.lr = entry.lr;
    options.gp.lrDecay = entry.decay;
    options.gp.maxIterations = 1500;
    Timer timer;
    const FlowResult result = placeDesign(*db, options);
    std::printf("%-14s %14.4e %10.2f %8d %10.4f\n", solverName(entry.kind),
                result.hpwl, result.gpSeconds, result.gpIterations,
                result.overflow);
  }
  return 0;
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
