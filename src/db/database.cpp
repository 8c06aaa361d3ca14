#include "db/database.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/log.h"

namespace dreamplace {

Index Database::addCell(std::string name, Coord width, Coord height,
                        bool movable) {
  DP_ASSERT_MSG(!finalized_, "addCell after finalize");
  cell_name_.push_back(std::move(name));
  cell_width_.push_back(width);
  cell_height_.push_back(height);
  cell_x_.push_back(0);
  cell_y_.push_back(0);
  cell_movable_.push_back(movable ? 1 : 0);
  return numCells() - 1;
}

Index Database::addNet(std::string name, double weight) {
  DP_ASSERT_MSG(!finalized_, "addNet after finalize");
  net_name_.push_back(std::move(name));
  net_weight_.push_back(weight);
  return static_cast<Index>(net_name_.size()) - 1;
}

Index Database::addPin(Index net, Index cell, Coord offsetX, Coord offsetY) {
  DP_ASSERT_MSG(!finalized_, "addPin after finalize");
  pin_cell_.push_back(cell);
  pin_net_.push_back(net);
  pin_offset_x_.push_back(offsetX);
  pin_offset_y_.push_back(offsetY);
  return static_cast<Index>(pin_cell_.size()) - 1;
}

void Database::setCellPosition(Index cell, Coord x, Coord y) {
  DP_ASSERT(cell >= 0 && cell < numCells());
  cell_x_[cell] = x;
  cell_y_[cell] = y;
}

void Database::finalize() {
  DP_ASSERT_MSG(!finalized_, "finalize called twice");
  validate();

  const Index n = numCells();
  // Stable movable-first permutation: newIndex[oldIndex].
  std::vector<Index> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
    return cell_movable_[a] > cell_movable_[b];
  });
  std::vector<Index> new_index(n);
  for (Index i = 0; i < n; ++i) {
    new_index[order[i]] = i;
  }

  auto permute = [&](auto& vec) {
    using V = std::remove_reference_t<decltype(vec)>;
    V out(vec.size());
    for (Index i = 0; i < n; ++i) {
      out[i] = std::move(vec[order[i]]);
    }
    vec = std::move(out);
  };
  permute(cell_name_);
  permute(cell_width_);
  permute(cell_height_);
  permute(cell_x_);
  permute(cell_y_);
  permute(cell_movable_);
  num_movable_ = static_cast<Index>(
      std::count(cell_movable_.begin(), cell_movable_.end(), 1));

  for (Index& c : pin_cell_) {
    c = new_index[c];
  }

  // Group pins by net into CSR order.
  const Index num_nets = static_cast<Index>(net_name_.size());
  const Index num_pins = static_cast<Index>(pin_cell_.size());
  net_pin_start_.assign(num_nets + 1, 0);
  for (Index p = 0; p < num_pins; ++p) {
    ++net_pin_start_[pin_net_[p] + 1];
  }
  std::partial_sum(net_pin_start_.begin(), net_pin_start_.end(),
                   net_pin_start_.begin());

  std::vector<Index> cursor(net_pin_start_.begin(), net_pin_start_.end() - 1);
  std::vector<Index> pc(num_pins);
  std::vector<Index> pn(num_pins);
  std::vector<Coord> px(num_pins);
  std::vector<Coord> py(num_pins);
  for (Index p = 0; p < num_pins; ++p) {
    const Index slot = cursor[pin_net_[p]]++;
    pc[slot] = pin_cell_[p];
    pn[slot] = pin_net_[p];
    px[slot] = pin_offset_x_[p];
    py[slot] = pin_offset_y_[p];
  }
  pin_cell_ = std::move(pc);
  pin_net_ = std::move(pn);
  pin_offset_x_ = std::move(px);
  pin_offset_y_ = std::move(py);

  buildCellPinCsr();

  name_index_.resize(n);
  std::iota(name_index_.begin(), name_index_.end(), 0);
  std::sort(name_index_.begin(), name_index_.end(), [&](Index a, Index b) {
    const int order = cell_name_[a].compare(cell_name_[b]);
    return order != 0 ? order < 0 : a < b;
  });

  finalized_ = true;

  const auto vec_bytes = [](const auto& v) {
    return static_cast<std::int64_t>(
        v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  mem_.set(vec_bytes(cell_width_) + vec_bytes(cell_height_) +
           vec_bytes(cell_x_) + vec_bytes(cell_y_) +
           vec_bytes(cell_movable_) + vec_bytes(net_weight_) +
           vec_bytes(net_pin_start_) + vec_bytes(pin_cell_) +
           vec_bytes(pin_net_) + vec_bytes(pin_offset_x_) +
           vec_bytes(pin_offset_y_) + vec_bytes(cell_pin_start_) +
           vec_bytes(cell_pins_) + vec_bytes(rows_));
}

void Database::buildCellPinCsr() {
  const Index n = numCells();
  const Index num_pins = numPins();
  cell_pin_start_.assign(n + 1, 0);
  for (Index p = 0; p < num_pins; ++p) {
    ++cell_pin_start_[pin_cell_[p] + 1];
  }
  std::partial_sum(cell_pin_start_.begin(), cell_pin_start_.end(),
                   cell_pin_start_.begin());
  cell_pins_.resize(num_pins);
  std::vector<Index> cursor(cell_pin_start_.begin(),
                            cell_pin_start_.end() - 1);
  for (Index p = 0; p < num_pins; ++p) {
    cell_pins_[cursor[pin_cell_[p]]++] = p;
  }
}

void Database::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("Database: " + what);
  };
  if (!(die_area_.width() > 0 && die_area_.height() > 0)) {
    fail("die area is empty");
  }
  for (Index i = 0; i < numCells(); ++i) {
    if (!(cell_width_[i] > 0 && cell_height_[i] > 0)) {
      fail("cell " + cell_name_[i] + " has non-positive size " +
           std::to_string(cell_width_[i]) + " x " +
           std::to_string(cell_height_[i]));
    }
  }
  const Index num_nets = static_cast<Index>(net_name_.size());
  std::vector<Index> degree(num_nets, 0);
  for (std::size_t p = 0; p < pin_cell_.size(); ++p) {
    if (pin_net_[p] < 0 || pin_net_[p] >= num_nets) {
      fail("pin " + std::to_string(p) + " has net index " +
           std::to_string(pin_net_[p]) + " outside [0, " +
           std::to_string(num_nets) + ")");
    }
    if (pin_cell_[p] < 0 || pin_cell_[p] >= numCells()) {
      fail("pin " + std::to_string(p) + " of net " + net_name_[pin_net_[p]] +
           " has cell index " + std::to_string(pin_cell_[p]) +
           " outside [0, " + std::to_string(numCells()) + ")");
    }
    ++degree[pin_net_[p]];
  }
  for (Index e = 0; e < num_nets; ++e) {
    if (degree[e] == 0) {
      fail("net " + net_name_[e] + " has no pins");
    }
  }
}

Index Database::findCell(std::string_view name) const {
  const auto it = std::lower_bound(
      name_index_.begin(), name_index_.end(), name,
      [this](Index cell, std::string_view key) {
        return cell_name_[cell] < key;
      });
  if (it != name_index_.end() && cell_name_[*it] == name) {
    return *it;
  }
  return kInvalidIndex;
}

Coord Database::totalMovableArea() const {
  Coord area = 0;
  for (Index i = 0; i < num_movable_; ++i) {
    area += cellArea(i);
  }
  return area;
}

Coord Database::totalFixedArea() const {
  Coord area = 0;
  for (Index i = num_movable_; i < numCells(); ++i) {
    Box<Coord> box = cellBox(i);
    // Clip to the die; pads may sit on or outside the boundary.
    box.xl = std::max(box.xl, die_area_.xl);
    box.yl = std::max(box.yl, die_area_.yl);
    box.xh = std::min(box.xh, die_area_.xh);
    box.yh = std::min(box.yh, die_area_.yh);
    if (box.width() > 0 && box.height() > 0) {
      area += box.area();
    }
  }
  return area;
}

Coord Database::utilization() const {
  const Coord whitespace = die_area_.area() - totalFixedArea();
  return whitespace > 0 ? totalMovableArea() / whitespace : 1.0;
}

}  // namespace dreamplace
