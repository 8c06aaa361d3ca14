// Detailed placement: incremental refinement of a legal placement.
//
// The paper delegates DP to NTUplace3; this module is the in-repo stand-in
// providing the three classic moves academic detailed placers share:
//  * intra-row local reordering — sliding windows of consecutive cells are
//    exhaustively permuted and re-packed, keeping the best HPWL;
//  * global swap — each cell computes its optimal region (median of its
//    nets' bounding boxes) and tries swapping with an equal-width cell
//    there;
//  * independent-set matching — equal-width, net-disjoint cell sets are
//    jointly re-permuted over their slots via the Hungarian algorithm
//    (dp/independent_set.h).
// Each move set scans its nets straight from the database once
// (dp/move_nets.h): a reorder window's scan gives its current cost and
// the complement boxes every permutation folds onto; a swapping cell's
// scan gives its optimal region and the complement boxes all of its
// candidates reuse, and each candidate scans only its own nets; an ISM
// cell's scan gives its whole cost row. No per-net state outlives a move.
// All moves preserve legality and are only applied when they strictly
// reduce HPWL, so DP never degrades the solution.
#pragma once

#include "db/database.h"

namespace dreamplace {

struct DetailedPlacerResult {
  double initialHpwl = 0.0;
  double finalHpwl = 0.0;
  long reorderMoves = 0;
  long swapMoves = 0;
  long ismMoves = 0;
};

class DetailedPlacer {
 public:
  /// Largest reorder window: 8! = 40,320 permutations per window.
  static constexpr int kMaxWindowSize = 8;

  struct Options {
    int passes = 3;
    int windowSize = 3;  ///< Cells per reorder window, in [2, kMaxWindowSize].
    double swapRadiusRows = 10;  ///< Search radius around the optimal region.
    int maxCandidates = 12;      ///< Swap candidates examined per cell.
    /// Stop early once a full pass improves HPWL by less than this
    /// fraction; 0 disables the check (always run `passes` passes).
    double convergenceTolerance = 0.0;
    bool enableIsm = true;        ///< Independent-set matching pass.
    int ismSetSize = 24;          ///< Cells per ISM set, at least 2.
  };

  explicit DetailedPlacer(Options options) : options_(options) {}
  DetailedPlacer() : DetailedPlacer(Options()) {}

  DetailedPlacerResult run(Database& db) const;

 private:
  Options options_;
};

}  // namespace dreamplace
