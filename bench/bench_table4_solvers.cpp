// Table IV reproduction: native-toolkit solvers vs Nesterov, float64.
//
// Paper shape: Adam reaches slightly better (~-0.3%) HPWL than Nesterov
// but takes ~1.8x GP time; SGD+momentum is ~1.2% worse at ~1.7x time.
// Learning-rate decay per design mirrors the paper's per-design tuning.
#include <vector>

#include "bench_util.h"
#include "gen/netlist_generator.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;
  TelemetrySession session(argc, argv);

  const double scale = benchScale(0.01);
  std::printf("Table IV: solver comparison on ISPD 2005 suite "
              "(scale %.3f, float64)\n\n", scale);

  struct SolverConfig {
    SolverKind kind;
    double lr;
    double decaySmall;  ///< For the adaptec-sized designs.
    double decayLarge;  ///< For the bigblue3/4-sized designs (paper uses
                        ///< slower decay on the big ones).
  };
  // Learning rates are in bin-size units (the GP scales them by the bin
  // dimension); tuned once on adaptec1 as the paper tuned per design.
  const SolverConfig solvers[] = {
      {SolverKind::kNesterov, 0.0, 1.0, 1.0},
      {SolverKind::kAdam, 2.0, 0.995, 0.997},
      {SolverKind::kSgdMomentum, 3.0, 0.995, 0.997},
  };

  const auto suite = ispd2005Suite(scale);
  std::printf("%-10s |", "design");
  for (const auto& s : solvers) {
    std::printf(" %12s %8s %7s |", solverName(s.kind), "GP(s)", "decay");
  }
  std::printf("\n");

  std::vector<std::vector<FlowRow>> rows(3);
  for (const SuiteEntry& entry : suite) {
    std::printf("%-10s |", entry.name.c_str());
    const bool large = entry.config.numCells > 8000;
    for (int s = 0; s < 3; ++s) {
      auto db = generateNetlist(entry.config);
      PlacerOptions options;
      options.gp.solver = solvers[s].kind;
      options.gp.lr = solvers[s].lr;
      options.gp.lrDecay =
          large ? solvers[s].decayLarge : solvers[s].decaySmall;
      options.gp.maxIterations = 2000;
      session.attach(options, entry.name);
      FlowRow row;
      row.design = entry.name;
      row.result = placeDesign(*db, options);
      rows[s].push_back(row);
      std::printf(" %12.4e %8.2f %7.3f |", row.result.hpwl,
                  row.result.gpSeconds, options.gp.lrDecay);
    }
    std::printf("\n");
  }

  std::printf("\n=== ratios vs Nesterov ===\n");
  printRatio(rows[1], rows[0], "Adam");
  printRatio(rows[2], rows[0], "SGD Momentum");
  return 0;
}
