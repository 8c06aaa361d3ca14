// Ablation: random-center vs spread initial placement (paper Sec. III).
//
// Paper claim: starting from a random center-plus-noise placement reaches
// the same quality (<0.04% HPWL difference at paper scale) as the
// conventional iterative initial placement, while eliminating the GP-IP
// phase (21.1% of GP runtime in Fig. 3).
#include "bench_util.h"
#include "common/timer.h"
#include "gen/netlist_generator.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;
  TelemetrySession session(argc, argv);

  const double scale = benchScale(0.01);
  std::printf("Ablation: initial placement strategy (scale %.3f)\n\n",
              scale);
  std::printf("%-10s | %12s %9s %9s | %12s %9s %9s | %9s\n", "design",
              "rand HPWL", "GP(s)", "IP(s)", "spread HPWL", "GP(s)",
              "IP(s)", "dHPWL");

  double hpwl_ratio = 1.0;
  double ip_share_sum = 0.0;
  int n = 0;
  for (const SuiteEntry& entry : ispd2005Suite(scale)) {
    FlowResult results[2];
    double ip_seconds[2];
    int i = 0;
    for (InitialPlacement init :
         {InitialPlacement::kRandomCenter, InitialPlacement::kSpread}) {
      auto db = generateNetlist(entry.config);
      PlacerOptions options;
      options.gp = dreamplaceFastGp();
      options.gp.init = init;
      session.attach(options, entry.name);
      RunReport report;
      results[i] = placeWithReport(*db, options, report);
      ip_seconds[i] = timingTotal(report, "gp/init");
      ++i;
    }
    const double delta =
        100.0 * (results[0].hpwl - results[1].hpwl) / results[1].hpwl;
    std::printf("%-10s | %12.4e %9.2f %9.3f | %12.4e %9.2f %9.3f | %+8.2f%%\n",
                entry.name.c_str(), results[0].hpwl, results[0].gpSeconds,
                ip_seconds[0], results[1].hpwl, results[1].gpSeconds,
                ip_seconds[1], delta);
    hpwl_ratio *= results[0].hpwl / results[1].hpwl;
    ip_share_sum += ip_seconds[1] / results[1].gpSeconds;
    ++n;
  }
  std::printf("\ngeomean HPWL ratio (random/spread): %.4f "
              "(paper: ~1.000 +- 0.0004)\n",
              std::pow(hpwl_ratio, 1.0 / n));
  std::printf("average spread-IP share of GP time: %.1f%% "
              "(paper: 21.1%%)\n", 100.0 * ip_share_sum / n);
  return 0;
}
