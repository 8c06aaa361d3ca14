// Routability-driven placement (paper Sec. III-F / Table V): run the cell
// inflation loop against the built-in grid global router on a DAC2012-like
// design and report the contest metrics (RC, sHPWL).
//
//   ./routability_flow [design_name] [scale]
#include <cstdio>
#include <exception>
#include <string>

#include "common/parse.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "gen/suites.h"
#include "place/placer.h"

namespace {

int run(int argc, char** argv) {
  using namespace dreamplace;

  const std::string design = argc > 1 ? argv[1] : "SB19";
  const double scale = argc > 2 ? parseNumber<double>(argv[2], "scale") : 0.01;

  const SuiteEntry entry = findSuiteEntry(design, scale);
  auto db = generateNetlist(entry.config);

  PlacerOptions options;
  options.precision = Precision::kFloat32;  // Table V uses float32
  options.routability = true;
  options.routabilityOptions.router.gridX = 48;
  options.routabilityOptions.router.gridY = 48;
  options.routabilityOptions.router.capacityFactor = 0.8;

  // Baseline congestion: route the wirelength-only placement first.
  PlacerOptions plain = options;
  plain.routability = false;
  {
    auto baseline_db = generateNetlist(entry.config);
    placeDesign(*baseline_db, plain);
    GlobalRouter router(options.routabilityOptions.router);
    const auto report = computeCongestion(router.route(*baseline_db));
    std::printf("baseline (no inflation): HPWL %.4e RC %.2f sHPWL %.4e\n",
                hpwl(*baseline_db), report.rc,
                scaledHpwl(hpwl(*baseline_db), report.rc));
  }

  const FlowResult result = placeDesign(*db, options);
  std::printf("routability-driven:      HPWL %.4e RC %.2f sHPWL %.4e\n",
              result.hpwl, result.rc, result.sHpwl);
  std::printf("runtime: NL %.1fs GR %.1fs LG %.1fs DP %.1fs\n",
              result.nlSeconds, result.grSeconds, result.lgSeconds,
              result.dpSeconds);
  return result.legal ? 0 : 1;
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
