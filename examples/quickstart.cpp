// Quickstart: generate a small synthetic design, run the full DREAMPlace
// flow (GP -> LG -> DP), and report quality metrics.
//
//   ./quickstart [num_cells] [seed]
//
// This is the 60-second tour of the public API: the netlist generator
// stands in for a Bookshelf benchmark (swap in readBookshelf() for real
// contest data), placeDesign() runs the whole flow, and the metrics
// helpers verify the result.
#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/parse.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "place/placer.h"

namespace {

int run(int argc, char** argv) {
  using namespace dreamplace;

  GeneratorConfig config;
  config.designName = "quickstart";
  config.numCells = argc > 1 ? parseNumber<Index>(argv[1], "num_cells") : 2000;
  config.utilization = 0.7;
  config.seed = argc > 2 ? parseNumber<std::uint64_t>(argv[2], "seed") : 42;
  auto db = generateNetlist(config);

  std::printf("design: %d movable cells, %d nets, %d pins, die %.0f x %.0f\n",
              db->numMovable(), db->numNets(), db->numPins(),
              db->dieArea().width(), db->dieArea().height());

  PlacerOptions options;
  options.precision = Precision::kFloat64;
  options.gp.verbose = true;

  const FlowResult result = placeDesign(*db, options);

  std::printf("\n=== quickstart result ===\n");
  std::printf("GP iterations : %d\n", result.gpIterations);
  std::printf("HPWL after GP : %.4e\n", result.hpwlGp);
  std::printf("HPWL after LG : %.4e (+%.2f%%)\n", result.hpwlLegal,
              100.0 * (result.hpwlLegal / result.hpwlGp - 1.0));
  std::printf("HPWL final    : %.4e (DP %+.2f%%)\n", result.hpwl,
              100.0 * (result.hpwl / result.hpwlLegal - 1.0));
  std::printf("overflow      : %.4f\n", result.overflow);
  std::printf("legal         : %s\n", result.legal ? "yes" : "NO");
  std::printf("runtime       : GP %.2fs  LG %.2fs  DP %.2fs\n",
              result.gpSeconds, result.lgSeconds, result.dpSeconds);
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
