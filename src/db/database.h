// Placement database: a flat structure-of-arrays netlist model.
//
// Layout conventions:
//  * Cells are ordered movable-first: indices [0, numMovable) are movable,
//    [numMovable, numCells) are fixed (pads, pre-placed macros). Gradient
//    and position arrays in the global placer exploit this ordering.
//  * Pins are grouped by net (CSR via netPinStart); a second CSR maps each
//    cell to its pins.
//  * Pin offsets are relative to the owning cell's center, matching the
//    Bookshelf .nets convention. pinX = cellX + cellWidth/2 + pinOffsetX.
//  * Cell (cellX, cellY) is the lower-left corner.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "common/memory.h"
#include "common/types.h"

namespace dreamplace {

/// One placement row (Bookshelf .scl CoreRow). All rows in the designs we
/// target share the same height and site width.
struct Row {
  Coord y = 0;       ///< Lower edge of the row.
  Coord height = 0;  ///< Row (and standard-cell) height.
  Coord xl = 0;      ///< Left edge of the usable span.
  Coord xh = 0;      ///< Right edge of the usable span.
  Coord siteWidth = 1;
};

class Database {
 public:
  // --- Construction -------------------------------------------------------
  // The database is built by io/ (Bookshelf) or gen/ (synthetic). Builders
  // push raw entities and then call finalize(), which derives CSR structures
  // and validates invariants.

  /// Adds a cell; returns its index. Movable/fixed partitioning is applied
  /// in finalize() by stable re-ordering, so builders may add in any order.
  /// finalize() checks that the size is positive.
  Index addCell(std::string name, Coord width, Coord height, bool movable);

  /// Adds a net; returns its index.
  Index addNet(std::string name, double weight = 1.0);

  /// Adds a pin on `cell` belonging to `net`, with offsets from cell center.
  /// finalize() range-checks `net` and `cell`.
  Index addPin(Index net, Index cell, Coord offsetX, Coord offsetY);

  void setDieArea(const Box<Coord>& area) { die_area_ = area; }
  /// Design name used in error messages (the generator's designName, the
  /// Bookshelf .aux stem); empty when the builder sets none.
  void setName(std::string name) { name_ = std::move(name); }
  void addRow(const Row& row) { rows_.push_back(row); }

  /// Sets the initial location (lower-left) of a cell.
  void setCellPosition(Index cell, Coord x, Coord y);

  /// Validates, then re-orders cells movable-first and builds CSR maps.
  /// Must be called exactly once after all entities are added. Throws
  /// std::invalid_argument naming the offending field, cell, net or pin
  /// (empty die, non-positive cell size, a net with no pins, a pin index
  /// out of range) and leaves the database unfinalized.
  void finalize();
  bool finalized() const { return finalized_; }
  const std::string& name() const { return name_; }

  // --- Sizes ---------------------------------------------------------------
  Index numCells() const { return static_cast<Index>(cell_width_.size()); }
  Index numMovable() const { return num_movable_; }
  Index numFixed() const { return numCells() - num_movable_; }
  Index numNets() const { return static_cast<Index>(net_pin_start_.size()) - 1; }
  Index numPins() const { return static_cast<Index>(pin_cell_.size()); }

  bool isMovable(Index cell) const { return cell < num_movable_; }

  // --- Region ---------------------------------------------------------------
  const Box<Coord>& dieArea() const { return die_area_; }
  const std::vector<Row>& rows() const { return rows_; }
  Coord rowHeight() const { return rows_.empty() ? 0 : rows_.front().height; }
  Coord siteWidth() const {
    return rows_.empty() ? 1 : rows_.front().siteWidth;
  }

  // --- Cells -----------------------------------------------------------------
  const std::string& cellName(Index cell) const { return cell_name_[cell]; }
  Coord cellWidth(Index cell) const { return cell_width_[cell]; }
  Coord cellHeight(Index cell) const { return cell_height_[cell]; }
  Coord cellArea(Index cell) const {
    return cell_width_[cell] * cell_height_[cell];
  }
  Coord cellX(Index cell) const { return cell_x_[cell]; }
  Coord cellY(Index cell) const { return cell_y_[cell]; }
  Box<Coord> cellBox(Index cell) const {
    return {cell_x_[cell], cell_y_[cell], cell_x_[cell] + cell_width_[cell],
            cell_y_[cell] + cell_height_[cell]};
  }
  /// Mutable access to positions (the flow moves cells).
  std::vector<Coord>& cellXs() { return cell_x_; }
  std::vector<Coord>& cellYs() { return cell_y_; }
  const std::vector<Coord>& cellXs() const { return cell_x_; }
  const std::vector<Coord>& cellYs() const { return cell_y_; }
  const std::vector<Coord>& cellWidths() const { return cell_width_; }
  const std::vector<Coord>& cellHeights() const { return cell_height_; }

  /// Looks up a cell by name after finalize(): kInvalidIndex if absent,
  /// the lowest index if several cells share the name. O(log n).
  Index findCell(std::string_view name) const;

  // --- Nets ------------------------------------------------------------------
  const std::string& netName(Index net) const { return net_name_[net]; }
  double netWeight(Index net) const { return net_weight_[net]; }
  /// Updates a net weight (net-weighting flows re-weight between GP
  /// rounds; ops snapshot weights at construction).
  void setNetWeight(Index net, double weight) { net_weight_[net] = weight; }
  Index netDegree(Index net) const {
    return net_pin_start_[net + 1] - net_pin_start_[net];
  }
  /// Pin index range [begin, end) of a net.
  Index netPinBegin(Index net) const { return net_pin_start_[net]; }
  Index netPinEnd(Index net) const { return net_pin_start_[net + 1]; }
  const std::vector<Index>& netPinStarts() const { return net_pin_start_; }

  // --- Pins ------------------------------------------------------------------
  Index pinCell(Index pin) const { return pin_cell_[pin]; }
  Index pinNet(Index pin) const { return pin_net_[pin]; }
  Coord pinOffsetX(Index pin) const { return pin_offset_x_[pin]; }
  Coord pinOffsetY(Index pin) const { return pin_offset_y_[pin]; }
  /// Absolute pin position given the current cell locations.
  Coord pinX(Index pin) const {
    const Index c = pin_cell_[pin];
    return cell_x_[c] + cell_width_[c] / 2 + pin_offset_x_[pin];
  }
  Coord pinY(Index pin) const {
    const Index c = pin_cell_[pin];
    return cell_y_[c] + cell_height_[c] / 2 + pin_offset_y_[pin];
  }
  const std::vector<Index>& pinCells() const { return pin_cell_; }
  const std::vector<Index>& pinNets() const { return pin_net_; }
  const std::vector<Coord>& pinOffsetXs() const { return pin_offset_x_; }
  const std::vector<Coord>& pinOffsetYs() const { return pin_offset_y_; }

  // --- Cell -> pins CSR -------------------------------------------------------
  Index cellPinBegin(Index cell) const { return cell_pin_start_[cell]; }
  Index cellPinEnd(Index cell) const { return cell_pin_start_[cell + 1]; }
  Index cellPinAt(Index slot) const { return cell_pins_[slot]; }

  // --- Derived statistics ------------------------------------------------------
  /// Total area of movable cells.
  Coord totalMovableArea() const;
  /// Total area of fixed cells clipped to the die area.
  Coord totalFixedArea() const;
  /// Whitespace = die area - fixed area; utilization = movable / whitespace.
  Coord utilization() const;

 private:
  void buildCellPinCsr();
  void validate() const;

  std::string name_;
  Box<Coord> die_area_{};
  std::vector<Row> rows_;

  std::vector<std::string> cell_name_;
  std::vector<Coord> cell_width_;
  std::vector<Coord> cell_height_;
  std::vector<Coord> cell_x_;
  std::vector<Coord> cell_y_;
  std::vector<char> cell_movable_;  // pre-finalize flag
  Index num_movable_ = 0;

  std::vector<std::string> net_name_;
  std::vector<double> net_weight_;
  std::vector<Index> net_pin_start_;  // size numNets+1 after finalize

  // During building, pins are appended in arbitrary order with their net id;
  // finalize() sorts them into net-grouped CSR order.
  std::vector<Index> pin_cell_;
  std::vector<Index> pin_net_;
  std::vector<Coord> pin_offset_x_;
  std::vector<Coord> pin_offset_y_;

  std::vector<Index> cell_pin_start_;
  std::vector<Index> cell_pins_;

  std::vector<Index> name_index_;  // cells sorted by (name, index)
  TrackedBytes mem_{"db"};  ///< flat-array footprint, set in finalize()
  bool finalized_ = false;
};

}  // namespace dreamplace
