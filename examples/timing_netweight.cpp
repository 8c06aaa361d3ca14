// Timing-driven placement via net weighting (paper Sec. III-G).
//
// Without timing libraries, long nets are the delay proxy: the flow
// iteratively boosts the weights of the longest nets and re-runs GP,
// trading a bounded amount of total HPWL for a shorter critical tail —
// the same mechanism a slack-driven weighter would use.
//
//   ./timing_netweight [num_cells] [rounds]
#include <cstdio>
#include <exception>

#include "common/parse.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "place/net_weighting.h"

namespace {

int run(int argc, char** argv) {
  using namespace dreamplace;

  GeneratorConfig config;
  config.numCells = argc > 1 ? parseNumber<Index>(argv[1], "num_cells") : 2000;
  config.seed = 19;

  NetWeightingOptions options;
  options.rounds = argc > 2 ? parseNumber<int>(argv[2], "rounds") : 3;

  // Baseline: plain GP through the same code path (0 rounds).
  double base_hpwl = 0;
  double base_tail = 0;
  {
    auto db = generateNetlist(config);
    NetWeightingOptions plain = options;
    plain.rounds = 0;
    const auto r = netWeightingPlace<double>(*db, plain);
    base_hpwl = r.hpwl;
    base_tail = r.tailNetHpwl;
    std::printf("baseline    : HPWL %.4e  tail-5%% net %.4e  max net %.4e\n",
                r.hpwl, r.tailNetHpwl, r.maxNetHpwl);
  }

  auto db = generateNetlist(config);
  const auto r = netWeightingPlace<double>(*db, options);
  std::printf("net-weighted: HPWL %.4e  tail-5%% net %.4e  max net %.4e\n",
              r.hpwl, r.tailNetHpwl, r.maxNetHpwl);
  std::printf("\ntail trace per round:");
  for (double t : r.tailTrace) {
    std::printf(" %.4e", t);
  }
  std::printf("\nresult: tail %.1f%% shorter for %.1f%% HPWL cost\n",
              100.0 * (1.0 - r.tailNetHpwl / base_tail),
              100.0 * (r.hpwl / base_hpwl - 1.0));
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
