// Incremental net-bounding-box cache for the detailed-placement back-end.
//
// Every DP move candidate asks "what is the HPWL of these nets with one or
// a few cells displaced?". The pre-cache evaluator answered by rescanning
// every pin of every incident net per candidate — O(sum of net degrees)
// work that dominates the reorder/swap passes. Two structures remove it:
//
//  * NetBboxCache keeps, per net, the exact bounding box of its pins plus
//    the *multiplicity* of pins on each boundary, updated after every
//    committed move in O(pins of the moved cell) — with an exact per-net
//    rescan only when a move takes away the last pin on a boundary.
//    Un-overridden nets evaluate straight from the cached box.
//  * NetBboxEval answers what-if queries for a fixed set of overridden
//    cells. Establishing the set computes, once, each incident net's
//    *complement box* — the bbox of its pins NOT on an overridden cell.
//    Every candidate evaluation is then a pure min/max fold of the moved
//    pins' new positions onto that box, so trying many positions for the
//    same cell set (reorder permutations, swap candidates, ISM cost rows)
//    costs O(pins of the moved cells) per candidate, never a rescan.
//
// Because min/max over doubles are exact, order-independent selections,
// a complement box extended by the moved pins equals a full rescan
// bit-for-bit — the cache accelerates the back-end without perturbing a
// single result bit, which is what lets the determinism suite keep
// EXPECT_EQ-exact HPWL across thread counts and against the pre-cache
// evaluator.
//
// Counters are accumulated locally (deltas/rescans members) so hot loops
// never touch the registry; callers flush them into dp/bbox_delta and
// dp/bbox_rescan at phase boundaries.
#pragma once

#include <cstdint>
#include <vector>

#include "db/database.h"

namespace dreamplace {

/// Exact per-net bounding boxes with boundary multiplicities, kept in
/// lockstep with the database by moveCell() calls after each committed
/// move.
class NetBboxCache {
 public:
  struct Box {
    double xl = 0, xh = 0, yl = 0, yh = 0;
    // Number of pins whose coordinate equals the respective boundary.
    std::int32_t nxl = 0, nxh = 0, nyl = 0, nyh = 0;
  };

  /// Rebuilds every net's box from the database's current positions.
  void build(const Database& db);

  /// Updates the boxes of `cell`'s nets after db.setCellPosition(cell, …).
  /// (oldX, oldY) is the position the cell had when the cache last saw it.
  /// Boundary-losing pin moves trigger an exact per-net rescan.
  void moveCell(const Database& db, Index cell, Coord oldX, Coord oldY);

  const Box& box(Index net) const { return boxes_[net]; }

  /// Exact weighted HPWL of one net from the cache (0 for degree < 2,
  /// matching the full-scan evaluator's skip).
  double netHpwl(const Database& db, Index net) const {
    if (db.netPinEnd(net) - db.netPinBegin(net) < 2) {
      return 0.0;
    }
    const Box& b = boxes_[net];
    return db.netWeight(net) * ((b.xh - b.xl) + (b.yh - b.yl));
  }

  /// Sum of netHpwl over `nets`, accumulated in list order (the same
  /// order the full-scan evaluator used, so sums agree bitwise).
  double netsHpwl(const Database& db, const std::vector<Index>& nets) const;

  /// Cache-maintenance rescans performed by moveCell (boundary losses).
  std::int64_t maintenanceRescans = 0;

 private:
  void rescanNet(const Database& db, Index net);

  std::vector<Box> boxes_;
};

/// Candidate-move evaluator over a NetBboxCache: computes net HPWL with up
/// to kMaxOverrides cells' positions overridden, without touching the
/// database or the cache. Carries its own scratch and local counters.
class NetBboxEval {
 public:
  static constexpr int kMaxOverrides = 16;

  NetBboxEval(const Database& db, const NetBboxCache& cache)
      : db_(db), cache_(cache) {}

  void clearOverrides() { numOverrides_ = 0; movedDirty_ = true; }
  void setOverride(Index cell, Coord x, Coord y);

  /// Re-positions the override in slot `slot` (0-based, in setOverride
  /// order) without changing the overridden cell set. Evaluation loops
  /// that try many positions for a fixed cell set (reorder permutations,
  /// ISM cost rows) use this to skip the moved-pin rebuild+sort — the
  /// sorted structure depends only on the cells, not their positions.
  void updateOverride(int slot, Coord x, Coord y);

  /// Weighted HPWL of the given nets under the current overrides. `nets`
  /// must be sorted ascending (incident-net unions are); contributions
  /// accumulate in list order.
  double netsHpwl(const std::vector<Index>& nets);

  /// Single-net HPWL under the current overrides (ISM cost loops iterate
  /// a cell's pins directly instead of a deduplicated union).
  double netHpwl(Index net);

  /// Local counters, flushed by the owner at phase end. Every evaluation
  /// is a delta (cached box or complement-box fold); `rescans` counts the
  /// complement-box scans performed when an override set is established.
  std::int64_t deltas = 0;
  std::int64_t rescans = 0;

 private:
  struct MovedPin {
    Index net;
    Index pin;
    std::int32_t slot;  ///< Override slot this pin belongs to.
    double newX, newY;  ///< Pin position under the override.
  };
  /// One net touched by the overrides: its moved pins (a range of
  /// `moved_`) plus the bbox of its un-overridden pins, computed once per
  /// override set and valid across updateOverride() calls.
  struct NetGroup {
    Index net;
    std::int32_t begin, count;
    double xl, xh, yl, yh;
  };

  void refreshMovedPins();
  double evalGroup(const NetGroup& g);
  double evalUntouched(Index net);

  const Database& db_;
  const NetBboxCache& cache_;
  Index cells_[kMaxOverrides];
  Coord xs_[kMaxOverrides];
  Coord ys_[kMaxOverrides];
  int numOverrides_ = 0;
  bool movedDirty_ = true;
  std::vector<MovedPin> moved_;   ///< Sorted by net.
  std::vector<NetGroup> groups_;  ///< One per distinct net in moved_.
};

}  // namespace dreamplace
