// Exact HPWL of detailed-placement moves, scanned straight from the
// database once per move set.
//
// A move set is the cells one DP move repositions: a reorder window, a
// swap's cell or its candidate, one ISM cell. MoveNets scans each net of
// the set once and keeps two boxes per net: the box of all its pins (the
// current cost) and the box of the pins on no cell of the set (the
// complement box). Trying positions for the set is then a min/max fold of
// the set's pins onto the complement boxes, with no rescan: a reorder
// window folds every permutation, a swap cell every candidate, an ISM cell
// every slot.
//
// min and max over doubles are exact, so a folded box equals the box a
// full rescan gives, bit for bit. Every per-net value is
// weight * ((xh - xl) + (yh - yl)), every pin sits at
// (x + width / 2) + offset as in Database::pinX, and every sum starts at
// 0.0 and runs in ascending net id (ISM rows: in cell-pin order). So each
// cost equals the full-rescan sum taken in the same order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "db/database.h"

namespace dreamplace {

/// Bounding box of some pins; empty until a pin is added.
struct PinBox {
  double xl = std::numeric_limits<double>::infinity();
  double xh = -std::numeric_limits<double>::infinity();
  double yl = std::numeric_limits<double>::infinity();
  double yh = -std::numeric_limits<double>::infinity();

  void add(double x, double y) {
    xl = std::min(xl, x);
    xh = std::max(xh, x);
    yl = std::min(yl, y);
    yh = std::max(yh, y);
  }
  bool empty() const { return xl > xh; }
  double hpwl(double weight) const {
    return weight * ((xh - xl) + (yh - yl));
  }
};

/// The nets of one move set, each scanned once. Reused across sets, so
/// its buffers stop allocating once they reach the largest set.
class MoveNets {
 public:
  struct Net {
    Index net;
    double weight;
    PinBox all;   ///< Every pin at its current position.
    PinBox rest;  ///< The pins on no cell of the set, nor on `also`.
    std::int32_t pinBegin, pinEnd;  ///< The set's pins on the net.
  };

  /// Scans each net of cells[0, count) once, in ascending net id. The
  /// pins of `also` are left out of every rest box as well: a swap scans
  /// its candidate this way, so a net both cells share is scanned
  /// without both.
  void scan(const Database& db, const Index* cells, int count,
            Index also = kInvalidIndex);

  Index cell(int slot) const { return cells_[slot]; }

  /// Puts slot `slot`'s cell at lower-left (x, y) for the folds below.
  void place(int slot, Coord x, Coord y) {
    cx_[slot] = x + halfW_[slot];
    cy_[slot] = y + halfH_[slot];
  }

  /// `box` extended by the set's pins on `n` at their placed positions.
  PinBox fold(const Net& n, PinBox box) const {
    for (std::int32_t i = n.pinBegin; i < n.pinEnd; ++i) {
      const Pin& p = pins_[i];
      box.add(cx_[p.slot] + p.offsetX, cy_[p.slot] + p.offsetY);
    }
    return box;
  }

  /// HPWL of the set's nets at the current positions.
  double current() const;
  /// HPWL of the set's nets with every slot at its placed position.
  double placed() const;
  /// Like placed(), but summed per pin of the set in cell-pin order, so a
  /// net holding two of the set's pins counts twice (ISM's cost).
  double placedPerPin() const;

  const std::vector<Net>& nets() const { return nets_; }
  /// Per pin of the set in cell-pin order, slot by slot: its net's index
  /// in nets().
  const std::vector<std::int32_t>& pinNets() const { return pinNets_; }

 private:
  struct Pin {
    std::int32_t slot;
    Coord offsetX, offsetY;
  };
  struct SetPin {
    Index net;
    std::int32_t order;  ///< Position in cell-pin order.
    std::int32_t slot;
    Index pin;
  };

  std::vector<Index> cells_;
  std::vector<Coord> halfW_, halfH_, cx_, cy_;
  std::vector<SetPin> setPins_;
  std::vector<Net> nets_;
  std::vector<Pin> pins_;
  std::vector<std::int32_t> pinNets_;
};

struct SwapCost {
  double before = 0.0;
  double after = 0.0;
};

/// HPWL of the union of two cells' nets, in ascending net id, before and
/// after the cells trade positions. `a` holds the first cell scanned
/// alone, `b` the second scanned with also = the first; both are placed
/// here.
SwapCost swapCost(const Database& db, MoveNets& a, MoveNets& b);

}  // namespace dreamplace
