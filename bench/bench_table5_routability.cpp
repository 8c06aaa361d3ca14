// Table V reproduction: DAC 2012 routability-driven placement, float32.
//
// Paper columns per design: sHPWL, RC, and runtime split into NL
// (nonlinear optimization), GR (global routing), LG, DP. Expected shape:
// the two DREAMPlace configs reach near-identical sHPWL/RC, GR dominated
// by the (external, single-thread) router, and the fast config ahead on
// NL time.
#include <vector>

#include "bench_util.h"
#include "gen/netlist_generator.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;
  TelemetrySession session(argc, argv);

  const double scale = benchScale(0.01);
  std::printf("Table V: DAC 2012 routability-driven placement "
              "(scale %.3f, float32)\n", scale);

  struct Config {
    const char* name;
    GlobalPlacerOptions gp;
  };
  const Config configs[] = {
      {"DREAMPlace (CPU kernels)", dreamplaceCpuGp()},
      {"DREAMPlace (fast kernels)", dreamplaceFastGp()},
  };

  for (const Config& config : configs) {
    std::printf("\n--- %s ---\n", config.name);
    std::printf("%-8s %8s | %12s %8s | %8s %8s %8s %8s %8s\n", "design",
                "#cells", "sHPWL", "RC", "NL(s)", "GR(s)", "LG(s)", "DP(s)",
                "Total");
    double shpwl_sum = 0;
    double rc_sum = 0;
    int n = 0;
    for (const SuiteEntry& entry : dac2012Suite(scale)) {
      auto db = generateNetlist(entry.config);
      PlacerOptions options;
      options.precision = Precision::kFloat32;  // matches the paper note
      options.gp = config.gp;
      options.routability = true;
      options.routabilityOptions.router.gridX = 48;
      options.routabilityOptions.router.gridY = 48;
      // Tight capacity: the synthetic suite is routed at ~80% of the
      // derived track budget so the congestion regime matches the DAC
      // 2012 designs (RC a few points above 100 before optimization).
      options.routabilityOptions.router.capacityFactor = 0.8;
      session.attach(options, entry.name);
      const FlowResult result = placeDesign(*db, options);
      std::printf("%-8s %8d | %12.4e %8.2f | %8.2f %8.2f %8.2f %8.2f %8.2f%s\n",
                  entry.name.c_str(), db->numMovable(), result.sHpwl,
                  result.rc, result.nlSeconds, result.grSeconds,
                  result.lgSeconds, result.dpSeconds, result.totalSeconds,
                  result.legal ? "" : "  [NOT LEGAL]");
      shpwl_sum += result.sHpwl;
      rc_sum += result.rc;
      ++n;
    }
    std::printf("%-8s %8s | %12.4e %8.2f |\n", "avg", "",
                shpwl_sum / n, rc_sum / n);
  }
  return 0;
}
