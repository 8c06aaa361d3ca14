// Routability-driven global placement via cell inflation
// (paper Sec. III-F, evaluated in Table V).
//
// Loop: run GP until the overflow drops to the inflation trigger (20%),
// invoke the global router for a congestion map, inflate cells under
// congested tiles by min((max_l demand/capacity)^2.5, 2.5) (eq. (19)),
// capping the total area increment at 10% of the whitespace per round,
// then restart the solver from the current positions. Stops when the
// round's inflation is below 1% of the total cell area or after 5 rounds;
// a final GP run converges to the normal stopping overflow with the
// density weight updated every 5 iterations (the slowed schedule).
#pragma once

#include "db/database.h"
#include "gp/global_placer.h"
#include "router/congestion.h"
#include "router/global_router.h"

namespace dreamplace {

struct RoutabilityOptions {
  GlobalPlacerOptions gp;
  RouterOptions router;
  double inflationTrigger = 0.20;   ///< Overflow at which to inflate.
  double inflationExponent = 2.5;   ///< eq. (19) exponent.
  double inflationMax = 2.5;        ///< eq. (19) clamp.
  double whitespaceBudget = 0.10;   ///< Max area increment per round.
  double stopInflationRatio = 0.01; ///< Stop when round inflation < 1%.
  int maxRounds = 5;
  int slowLambdaEvery = 5;          ///< Lambda update period after round 1.
};

struct RoutabilityResult {
  GlobalPlacerResult gp;         ///< The last GP run.
  std::vector<GlobalPlacerResult> gpRuns;  ///< Every GP restart, in order.
  CongestionReport congestion;   ///< After the final routing.
  double hpwl = 0.0;
  double sHpwl = 0.0;
  int inflationRounds = 0;
  int routerInvocations = 0;
  double nlSeconds = 0.0;        ///< Nonlinear optimization time.
  double grSeconds = 0.0;        ///< Global routing time.
};

template <typename T>
class RoutabilityDrivenPlacer {
 public:
  RoutabilityDrivenPlacer(Database& db, RoutabilityOptions options)
      : db_(db), options_(std::move(options)) {}

  RoutabilityResult run();

 private:
  /// Per-movable-cell inflation from the routing congestion map, merged
  /// into `inflation` (multiplicative, monotone non-decreasing). Returns
  /// the attempted area increment as a fraction of the total cell area.
  double applyInflation(const RoutingResult& routing,
                        std::vector<double>& inflation) const;

  Database& db_;
  RoutabilityOptions options_;
};

}  // namespace dreamplace
