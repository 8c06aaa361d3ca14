// Ablation: density-weight schedule variant (paper Sec. III-C).
//
// The TCAD extension dampens mu_max by max(0.9999^k, 0.98) when HPWL
// decreased, which the paper credits with "relatively stable convergence".
// This bench compares iterations-to-target and final quality with the
// original eq. (18) schedule.
#include "bench_util.h"
#include "gen/netlist_generator.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;
  TelemetrySession session(argc, argv);

  const double scale = benchScale(0.01);
  std::printf("Ablation: lambda (density weight) schedule (scale %.3f)\n\n",
              scale);
  std::printf("%-10s | %12s %7s | %12s %7s | %9s\n", "design",
              "tcad HPWL", "iters", "orig HPWL", "iters", "dHPWL");

  double ratio = 1.0;
  long iter_tcad = 0, iter_orig = 0;
  int n = 0;
  for (const SuiteEntry& entry : ispd2005Suite(scale)) {
    FlowResult results[2];
    int i = 0;
    for (bool tcad : {true, false}) {
      auto db = generateNetlist(entry.config);
      PlacerOptions options;
      options.gp = dreamplaceFastGp();
      options.gp.tcadMuVariant = tcad;
      session.attach(options, entry.name);
      results[i] = placeDesign(*db, options);
      ++i;
    }
    const double delta =
        100.0 * (results[0].hpwl - results[1].hpwl) / results[1].hpwl;
    std::printf("%-10s | %12.4e %7d | %12.4e %7d | %+8.2f%%\n",
                entry.name.c_str(), results[0].hpwl,
                results[0].gpIterations, results[1].hpwl,
                results[1].gpIterations, delta);
    ratio *= results[0].hpwl / results[1].hpwl;
    iter_tcad += results[0].gpIterations;
    iter_orig += results[1].gpIterations;
    ++n;
  }
  std::printf("\ngeomean HPWL ratio (tcad/original): %.4f\n",
              std::pow(ratio, 1.0 / n));
  std::printf("total iterations: tcad %ld vs original %ld\n", iter_tcad,
              iter_orig);
  return 0;
}
