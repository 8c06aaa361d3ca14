// Fence-region placement (paper Sec. III-G): constrain two groups of
// cells to the left and right thirds of the die using one electric field
// per region, and visualize the outcome as occupancy statistics.
//
//   ./fence_regions [num_cells] [seed]
#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/parse.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "gp/global_placer.h"

namespace {

int run(int argc, char** argv) {
  using namespace dreamplace;

  GeneratorConfig config;
  config.numCells = argc > 1 ? parseNumber<Index>(argv[1], "num_cells") : 1500;
  config.utilization = 0.5;
  config.seed = argc > 2 ? parseNumber<std::uint64_t>(argv[2], "seed") : 7;
  auto db = generateNetlist(config);
  const Box<Coord>& die = db->dieArea();

  // Two fences: left and right thirds. Every third cell is pinned to a
  // fence, the rest roam the default region.
  GlobalPlacerOptions options;
  const double w3 = die.width() / 3.0;
  options.fences.push_back({{die.xl, die.yl, die.xl + w3, die.yh}});
  options.fences.push_back({{die.xh - w3, die.yl, die.xh, die.yh}});
  options.cellFence.resize(db->numMovable());
  for (Index i = 0; i < db->numMovable(); ++i) {
    options.cellFence[i] = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 2 : 0;
  }

  GlobalPlacer<double> placer(*db, options);
  const auto result = placer.run();

  // Report how the three populations distribute over the three bands.
  int counts[3][3] = {};
  for (Index i = 0; i < db->numMovable(); ++i) {
    const double cx = db->cellX(i) + db->cellWidth(i) / 2;
    const int band = cx < die.xl + w3 ? 0 : (cx > die.xh - w3 ? 2 : 1);
    ++counts[options.cellFence[i]][band];
  }
  std::printf("\nGP hpwl %.4e, overflow %.3f\n", result.hpwl,
              result.overflow);
  std::printf("%-16s %10s %10s %10s\n", "group", "left band", "middle",
              "right band");
  const char* names[3] = {"default", "fence 1 (left)", "fence 2 (right)"};
  for (int g = 0; g < 3; ++g) {
    std::printf("%-16s %10d %10d %10d\n", names[g], counts[g][0],
                counts[g][1], counts[g][2]);
  }
  // Fence members must sit entirely in their bands.
  const bool ok = counts[1][1] == 0 && counts[1][2] == 0 &&
                  counts[2][0] == 0 && counts[2][1] == 0;
  std::printf("fence containment: %s\n", ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
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
