#include "routeopt/inflation.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/timer.h"
#include "db/metrics.h"

namespace dreamplace {

template <typename T>
double RoutabilityDrivenPlacer<T>::applyInflation(
    const RoutingResult& routing, std::vector<double>& inflation) const {
  const Box<Coord>& die = db_.dieArea();
  const double tile_w = die.width() / routing.gridX;
  const double tile_h = die.height() / routing.gridY;

  // Tile inflation ratios per eq. (19).
  std::vector<double> tile_ratio(
      static_cast<size_t>(routing.gridX) * routing.gridY, 1.0);
  for (int x = 0; x < routing.gridX; ++x) {
    for (int y = 0; y < routing.gridY; ++y) {
      const double cong = routing.tileCongestion(x, y);
      tile_ratio[x * routing.gridY + y] = std::min(
          std::pow(std::max(cong, 0.0), options_.inflationExponent),
          options_.inflationMax);
    }
  }

  // Per-cell ratio: max over overlapped tiles (a cell "inflates according
  // to the inflation ratios of the tiles it overlaps with").
  std::vector<double> cell_ratio(db_.numMovable(), 1.0);
  double attempted_increment = 0.0;
  double total_cell_area = 0.0;
  for (Index i = 0; i < db_.numMovable(); ++i) {
    const Box<Coord> box = db_.cellBox(i);
    const int bx0 = std::clamp(
        static_cast<int>((box.xl - die.xl) / tile_w), 0, routing.gridX - 1);
    const int bx1 = std::clamp(
        static_cast<int>((box.xh - die.xl) / tile_w), 0, routing.gridX - 1);
    const int by0 = std::clamp(
        static_cast<int>((box.yl - die.yl) / tile_h), 0, routing.gridY - 1);
    const int by1 = std::clamp(
        static_cast<int>((box.yh - die.yl) / tile_h), 0, routing.gridY - 1);
    double ratio = 1.0;
    for (int x = bx0; x <= bx1; ++x) {
      for (int y = by0; y <= by1; ++y) {
        ratio = std::max(ratio, tile_ratio[x * routing.gridY + y]);
      }
    }
    cell_ratio[i] = ratio;
    const double area = db_.cellArea(i) * inflation[i];
    total_cell_area += area;
    attempted_increment += area * (ratio - 1.0);
  }

  // Cap the increment at 10% of the whitespace; scale ratios down uniformly
  // if exceeded.
  const double whitespace = die.area() - db_.totalFixedArea() -
                            db_.totalMovableArea();
  const double budget = options_.whitespaceBudget * std::max(whitespace, 0.0);
  double scale = 1.0;
  if (attempted_increment > budget && attempted_increment > 0) {
    scale = budget / attempted_increment;
  }
  double applied_increment = 0.0;
  for (Index i = 0; i < db_.numMovable(); ++i) {
    const double extra = (cell_ratio[i] - 1.0) * scale;
    inflation[i] *= (1.0 + extra);
    applied_increment += db_.cellArea(i) * inflation[i] /
                         (1.0 + extra) * extra;
  }
  return total_cell_area > 0 ? applied_increment / total_cell_area : 0.0;
}

template <typename T>
RoutabilityResult RoutabilityDrivenPlacer<T>::run() {
  RoutabilityResult result;
  std::vector<double> inflation(db_.numMovable(), 1.0);

  std::vector<T> carry_x;
  std::vector<T> carry_y;
  bool have_carry = false;
  double carry_lambda = 0.0;
  int round = 0;

  for (;; ++round) {
    GlobalPlacerOptions gp_opts = options_.gp;
    gp_opts.inflation = inflation;
    if (round > 0) {
      // Slow down the density weight schedule from the first inflation on,
      // and resume from the previous round's weight (a fresh lambda0 would
      // re-ramp from scratch under the slowed schedule).
      gp_opts.lambdaUpdateEvery = options_.slowLambdaEvery;
      gp_opts.initialDensityWeight = carry_lambda;
    }
    GlobalPlacer<T> placer(db_, gp_opts);
    if (have_carry) {
      // Inflation shrinks the filler population (area is given back to the
      // inflated cells); fillers are dropped from the tail, so truncating
      // the carried positions keeps node identities aligned.
      DP_ASSERT(static_cast<Index>(carry_x.size()) >= placer.numNodes());
      carry_x.resize(placer.numNodes());
      carry_y.resize(placer.numNodes());
      placer.setInitialPositions(carry_x, carry_y);
    }

    const bool final_round = round >= options_.maxRounds;
    Timer nl_timer;
    if (final_round) {
      result.gp = placer.run();
    } else {
      // Stop at the inflation trigger.
      const double trigger = options_.inflationTrigger;
      result.gp = placer.run([&](const IterationStats& stats) {
        return stats.overflow > trigger;
      });
    }
    result.nlSeconds += nl_timer.elapsed();
    result.gpRuns.push_back(result.gp);
    carry_x = placer.nodeX();
    carry_y = placer.nodeY();
    carry_lambda = result.gp.finalLambda;
    have_carry = true;

    if (final_round || result.gp.overflow <= options_.gp.stopOverflow) {
      break;
    }

    // Route at the current placement and inflate.
    Timer gr_timer;
    GlobalRouter router(options_.router);
    const RoutingResult routing = router.route(db_);
    result.grSeconds += gr_timer.elapsed();
    ++result.routerInvocations;

    const double round_inflation = applyInflation(routing, inflation);
    logInfo("routeopt: round %d inflation %.3f%% of cell area "
            "(overflowed edges %ld)",
            round, 100.0 * round_inflation, routing.overflowedEdges);
    if (round_inflation < options_.stopInflationRatio) {
      // Converged: finish GP to the normal stopping overflow.
      GlobalPlacerOptions final_opts = options_.gp;
      final_opts.inflation = inflation;
      final_opts.lambdaUpdateEvery = options_.slowLambdaEvery;
      final_opts.initialDensityWeight = carry_lambda;
      GlobalPlacer<T> final_placer(db_, final_opts);
      DP_ASSERT(static_cast<Index>(carry_x.size()) >=
                final_placer.numNodes());
      carry_x.resize(final_placer.numNodes());
      carry_y.resize(final_placer.numNodes());
      final_placer.setInitialPositions(carry_x, carry_y);
      Timer t;
      result.gp = final_placer.run();
      result.nlSeconds += t.elapsed();
      result.gpRuns.push_back(result.gp);
      ++round;
      break;
    }
  }
  result.inflationRounds = round;

  // Final congestion estimate for reporting.
  Timer gr_timer;
  GlobalRouter router(options_.router);
  const RoutingResult routing = router.route(db_);
  result.grSeconds += gr_timer.elapsed();
  ++result.routerInvocations;
  result.congestion = computeCongestion(routing);
  result.hpwl = hpwl(db_);
  result.sHpwl = scaledHpwl(result.hpwl, result.congestion.rc);
  logInfo("routeopt: done, %d rounds, RC %.2f, hpwl %.4e, sHPWL %.4e",
          result.inflationRounds, result.congestion.rc, result.hpwl,
          result.sHpwl);
  return result;
}

template class RoutabilityDrivenPlacer<float>;
template class RoutabilityDrivenPlacer<double>;

}  // namespace dreamplace
