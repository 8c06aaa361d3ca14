// Table III reproduction: industrial suite with fixed macros, float64,
// including the 10.5M-cell (scaled) design6 scalability stressor.
//
// As in the paper — where RePlAce crashed on design6 and its runtime was
// estimated from per-iteration cost — the RePlAce-mode config on design6
// is estimated from a bounded number of iterations rather than run to
// completion.
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "gen/netlist_generator.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;
  TelemetrySession session(argc, argv);

  const double scale = benchScale(0.01);
  std::printf("Table III: industrial suite (scale %.3f, float64)\n", scale);

  struct Config {
    const char* name;
    GlobalPlacerOptions gp;
    bool estimate_largest;
  };
  const Config configs[] = {
      {"RePlAce-mode (reference)", replaceModeGp(), true},
      {"DREAMPlace (CPU kernels)", dreamplaceCpuGp(), false},
      {"DREAMPlace (fast kernels)", dreamplaceFastGp(), false},
  };

  const auto suite = industrialSuite(scale);
  std::vector<std::vector<FlowRow>> all_rows(3);
  for (int c = 0; c < 3; ++c) {
    printFlowHeader(configs[c].name);
    for (const SuiteEntry& entry : suite) {
      const bool largest = entry.name == "design6";
      auto db = generateNetlist(entry.config);
      FlowRow row;
      row.design = entry.name;
      row.cellsK = db->numMovable() / 1000.0;
      row.netsK = db->numNets() / 1000.0;
      if (largest && configs[c].estimate_largest) {
        // Paper-style estimate: measure initial placement + a fixed number
        // of kernel iterations, extrapolate to the DREAMPlace iteration
        // count of this design.
        GlobalPlacerOptions gp = configs[c].gp;
        gp.maxIterations = 30;
        gp.minIterations = 30;
        session.attach(gp, entry.name);
        Timer timer;
        GlobalPlacer<double> placer(*db, gp);
        placer.run();
        const double per_iter = timer.elapsed() / 30.0;
        const int ref_iters = 1000;
        row.result.gpSeconds = per_iter * ref_iters;
        row.result.totalSeconds = row.result.gpSeconds;
        row.result.hpwl = 0.0;  // NA, like the paper
        std::printf("%-10s %8.0f %8.0f | %12s %8.0f %8s %8s %8.0f  "
                    "[estimated like the paper: RePlAce-mode run "
                    "truncated]\n",
                    row.design.c_str(), row.cellsK * 1000, row.netsK * 1000,
                    "NA", row.result.gpSeconds, "NA", "NA",
                    row.result.totalSeconds);
      } else {
        PlacerOptions options;
        options.precision = Precision::kFloat64;
        options.gp = configs[c].gp;
        session.attach(options, entry.name);
        row.result = placeDesign(*db, options);
        printFlowRow(row);
      }
      all_rows[c].push_back(row);
    }
  }

  std::printf("\n=== ratios vs DREAMPlace (fast kernels), design6 "
              "excluded from HPWL ===\n");
  // Drop design6 rows for the quality ratio (NA in RePlAce-mode).
  auto strip = [](std::vector<FlowRow> rows) {
    rows.pop_back();
    return rows;
  };
  printRatio(strip(all_rows[0]), strip(all_rows[2]), "RePlAce-mode");
  printRatio(strip(all_rows[1]), strip(all_rows[2]), "DREAMPlace CPU");

  // Scalability: GP seconds per cell across the suite (fast config).
  std::printf("\n=== linear-scalability check (fast config) ===\n");
  std::printf("%-10s %10s %12s %14s\n", "design", "#cells", "GP(s)",
              "GP us/cell");
  for (const FlowRow& row : all_rows[2]) {
    std::printf("%-10s %10.0f %12.2f %14.2f\n", row.design.c_str(),
                row.cellsK * 1000, row.result.gpSeconds,
                1e6 * row.result.gpSeconds / (row.cellsK * 1000));
  }
  return 0;
}
