#include "ops/density_op.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/counters.h"
#include "common/log.h"
#include "common/timer.h"

namespace dreamplace {

namespace {

/// Adds to every bin of `map` the fraction of the bin that lies inside
/// `box`, or outside it when `outside`, in density units.
template <typename T>
void addBoxCoverage(const Box<Coord>& box, bool outside,
                    const DensityGrid<T>& grid, std::vector<T>& map) {
  for (int bx = 0; bx < grid.mx; ++bx) {
    const double bin_xl = grid.xl + bx * grid.binW;
    const double ox =
        overlapLength<double>(bin_xl, bin_xl + grid.binW, box.xl, box.xh);
    for (int by = 0; by < grid.my; ++by) {
      const double bin_yl = grid.yl + by * grid.binH;
      const double oy =
          overlapLength<double>(bin_yl, bin_yl + grid.binH, box.yl, box.yh);
      const double inside = ox * oy / grid.binArea();
      map[bx * grid.my + by] +=
          static_cast<T>(outside ? 1.0 - inside : inside);
    }
  }
}

std::string boxString(const Box<Coord>& box) {
  return "(" + std::to_string(box.xl) + ", " + std::to_string(box.yl) +
         ", " + std::to_string(box.xh) + ", " + std::to_string(box.yh) + ")";
}

/// Throws unless `regions` has `count` entries, each 0 (the default
/// region) or a 1-based index into `numFences` fences.
void checkRegions(const std::vector<int>& regions, std::size_t count,
                  std::size_t numFences, const char* entities) {
  if (regions.size() != count) {
    throw std::invalid_argument(
        "gp.cellFence: has " + std::to_string(regions.size()) +
        " entries, expected one per " + entities + " (" +
        std::to_string(count) + ")");
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (regions[i] < 0 || regions[i] > static_cast<int>(numFences)) {
      throw std::invalid_argument(
          "gp.cellFence: entry " + std::to_string(i) + " is " +
          std::to_string(regions[i]) + ", but there are " +
          std::to_string(numFences) + " fences");
    }
  }
}

}  // namespace

template <typename T>
void DensityOp<T>::makeNodeSizes(const Database& db,
                                 const std::vector<T>& fillerW,
                                 const std::vector<T>& fillerH,
                                 std::vector<T>& nodeW,
                                 std::vector<T>& nodeH) {
  DP_ASSERT(fillerW.size() == fillerH.size());
  nodeW.clear();
  nodeH.clear();
  nodeW.reserve(db.numMovable() + fillerW.size());
  nodeH.reserve(db.numMovable() + fillerH.size());
  for (Index i = 0; i < db.numMovable(); ++i) {
    nodeW.push_back(static_cast<T>(db.cellWidth(i)));
    nodeH.push_back(static_cast<T>(db.cellHeight(i)));
  }
  nodeW.insert(nodeW.end(), fillerW.begin(), fillerW.end());
  nodeH.insert(nodeH.end(), fillerH.begin(), fillerH.end());
}

template <typename T>
DensityOp<T>::DensityOp(const Database& db, const DensityGrid<T>& grid,
                        std::vector<T> nodeW, std::vector<T> nodeH,
                        Options options)
    : num_nodes_(static_cast<Index>(nodeW.size())),
      options_(options),
      solver_(grid.mx, grid.my, options.dct) {
  DP_ASSERT(num_nodes_ >= db.numMovable());
  fields_.push_back(Field{
      {},
      DensityMapBuilder<T>(grid, std::move(nodeW), std::move(nodeH),
                           options.map),
      buildFixedDensityMap<T>(db, grid), db.numMovable(),
      db.totalMovableArea(), db.dieArea()});
  allocateWorkspaces();
}

template <typename T>
DensityOp<T>::DensityOp(const Database& db, const DensityGrid<T>& grid,
                        std::vector<FenceRegion> fences,
                        std::vector<int> nodeGroup, std::vector<T> nodeW,
                        std::vector<T> nodeH, Options options)
    : num_nodes_(static_cast<Index>(nodeW.size())),
      options_(options),
      node_field_(std::move(nodeGroup)),
      solver_(grid.mx, grid.my, options.dct) {
  DP_ASSERT(nodeW.size() == nodeH.size());
  checkRegions(node_field_, nodeW.size(), fences.size(), "density node");
  const int num_fields = static_cast<int>(fences.size()) + 1;
  std::vector<std::vector<Index>> members(num_fields);
  node_slot_.resize(num_nodes_);
  for (Index i = 0; i < num_nodes_; ++i) {
    std::vector<Index>& m = members[node_field_[i]];
    node_slot_[i] = static_cast<Index>(m.size());
    m.push_back(i);
  }

  const Box<Coord>& die = db.dieArea();
  const std::vector<T> base_fixed = buildFixedDensityMap<T>(db, grid);
  fields_.reserve(num_fields);
  for (int g = 0; g < num_fields; ++g) {
    const Box<Coord> box = g == 0 ? die : fences[g - 1].box;
    const auto name = [g] {
      return "gp.fences[" + std::to_string(g - 1) + "]";
    };
    if (g > 0 && !(box.overlapArea(die) > 0)) {
      throw std::invalid_argument(name() + ": box " + boxString(box) +
                                  " has no positive-area overlap with the "
                                  "die " + boxString(die));
    }
    const std::size_t count = members[g].size();
    std::vector<T> w(count);
    std::vector<T> h(count);
    Index movable = 0;
    double movable_area = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      const Index node = members[g][k];
      w[k] = nodeW[node];
      h[k] = nodeH[node];
      if (node < db.numMovable()) {
        ++movable;
        movable_area += db.cellArea(node);
      }
    }
    if (g > 0 && movable_area > box.overlapArea(die)) {
      throw std::invalid_argument(
          name() + ": its cells need area " + std::to_string(movable_area) +
          " but the fence has " + std::to_string(box.overlapArea(die)) +
          " inside the die");
    }
    // Fixed field: real fixed cells plus everything outside the region.
    // The default region is blocked by the other fences.
    std::vector<T> fixed = base_fixed;
    if (g == 0) {
      for (const FenceRegion& fence : fences) {
        addBoxCoverage(fence.box, false, grid, fixed);
      }
    } else {
      addBoxCoverage(box, true, grid, fixed);
    }
    for (T& d : fixed) {
      d = std::min(d, T(1));
    }
    fields_.push_back(Field{std::move(members[g]),
                            DensityMapBuilder<T>(grid, std::move(w),
                                                 std::move(h), options.map),
                            std::move(fixed), movable, movable_area, box});
  }
  allocateWorkspaces();
}

template <typename T>
void DensityOp<T>::allocateWorkspaces() {
  const auto& grid = builder().grid();
  map_.resize(static_cast<size_t>(grid.mx) * grid.my);
  overflow_map_.resize(map_.size());
  std::size_t max_members = 0;
  for (const Field& field : fields_) {
    max_members = std::max(max_members, field.members.size());
  }
  member_pos_.resize(2 * max_members);
  member_grad_.resize(2 * max_members);
  trackBytes();
}

template <typename T>
void DensityOp<T>::trackBytes() {
  std::size_t elems = map_.capacity() + overflow_map_.capacity() +
                      solution_.fieldX.capacity() +
                      solution_.fieldY.capacity();
  for (const Field& field : fields_) {
    elems += field.fixedMap.capacity();
  }
  mem_.set(static_cast<std::int64_t>(elems * sizeof(T)));
}

template <typename T>
std::pair<const T*, const T*> DensityOp<T>::positions(
    const Field& field, std::span<const T> params, Index count) const {
  const T* x = params.data();
  const T* y = params.data() + num_nodes_;
  if (field.members.empty()) {
    return {x, y};
  }
  T* mx = member_pos_.data();
  T* my = member_pos_.data() + count;
  for (Index k = 0; k < count; ++k) {
    mx[k] = x[field.members[k]];
    my[k] = y[field.members[k]];
  }
  return {mx, my};
}

template <typename T>
double DensityOp<T>::evaluate(std::span<const T> params, std::span<T> grad) {
  DP_ASSERT(params.size() == size() && grad.size() == size());
  static Counter calls("ops/density/evaluate");
  calls.add();
  double energy = 0.0;
  for (const Field& field : fields_) {
    const Index count = field.builder.numNodes();
    if (count == 0) {
      continue;
    }
    const T* x = nullptr;
    const T* y = nullptr;
    {
      ScopedTimer t("gp/op/density/scatter");
      std::tie(x, y) = positions(field, params, count);
      std::copy(field.fixedMap.begin(), field.fixedMap.end(), map_.begin());
      field.builder.scatter(x, y, 0, count, map_);
    }
    {
      ScopedTimer t("gp/op/density/poisson");
      solver_.solve(std::span<const T>(map_), solution_);
      // Attribute the solution buffers once they reach steady-state size
      // (set() is a no-op when nothing changed).
      trackBytes();
    }
    energy += solution_.energy;
    {
      ScopedTimer t("gp/op/density/gather");
      const bool in_place = field.members.empty();
      T* gx = in_place ? grad.data() : member_grad_.data();
      T* gy =
          in_place ? grad.data() + num_nodes_ : member_grad_.data() + count;
      field.builder.gatherForce(x, y, std::span<const T>(solution_.fieldX),
                                std::span<const T>(solution_.fieldY), gx, gy);
      for (std::size_t k = 0; k < field.members.size(); ++k) {
        grad[field.members[k]] = gx[k];
        grad[field.members[k] + num_nodes_] = gy[k];
      }
    }
  }
  return energy;
}

template <typename T>
double DensityOp<T>::overflow(std::span<const T> params) const {
  // Fillers have the highest node ids, so each field's movable members
  // are a prefix of its slots.
  double overflow_area = 0.0;
  double movable_area = 0.0;
  for (const Field& field : fields_) {
    if (field.movableMembers == 0 || field.movableArea <= 0) {
      continue;
    }
    const auto [x, y] = positions(field, params, field.movableMembers);
    std::fill(overflow_map_.begin(), overflow_map_.end(), T(0));
    field.builder.scatter(x, y, 0, field.movableMembers, overflow_map_);
    const double ovf =
        densityOverflow<T>(overflow_map_, field.fixedMap, grid(),
                           options_.targetDensity, field.movableArea);
    if (fields_.size() == 1) {
      return ovf;  // unweighted: ovf * area / area may round differently
    }
    overflow_area += ovf * field.movableArea;
    movable_area += field.movableArea;
  }
  return movable_area > 0 ? overflow_area / movable_area : 0.0;
}

template <typename T>
void computeFillers(const Database& db, double targetDensity,
                    std::vector<T>& widths, std::vector<T>& heights) {
  widths.clear();
  heights.clear();
  const double whitespace = db.dieArea().area() - db.totalFixedArea();
  const double movable = db.totalMovableArea();
  const double filler_total = targetDensity * whitespace - movable;
  if (filler_total <= 0) {
    return;
  }
  // Filler dimensions: row height tall, average movable width wide.
  double avg_w = 0.0;
  for (Index i = 0; i < db.numMovable(); ++i) {
    avg_w += db.cellWidth(i);
  }
  avg_w = db.numMovable() > 0 ? avg_w / db.numMovable() : db.siteWidth();
  const double h = db.rowHeight() > 0 ? db.rowHeight() : avg_w;
  const double count = std::floor(filler_total / (avg_w * h));
  if (!(count <= kMaxFillers)) {
    throw std::invalid_argument(
        "computeFillers: die area " + std::to_string(db.dieArea().area()) +
        " with whitespace " + std::to_string(whitespace) +
        " around a movable area of " + std::to_string(movable) + " needs " +
        std::to_string(count) + " fillers, more than the limit of 2^24");
  }
  widths.assign(static_cast<Index>(count), static_cast<T>(avg_w));
  heights.assign(static_cast<Index>(count), static_cast<T>(h));
}

std::vector<int> assignFillerGroups(const Database& db,
                                    const std::vector<int>& cellGroup,
                                    const std::vector<FenceRegion>& fences,
                                    Index numFillers) {
  checkRegions(cellGroup, db.numMovable(), fences.size(), "movable cell");
  const int num_groups = static_cast<int>(fences.size()) + 1;
  // Whitespace per group: fence area minus its movable cells (default
  // region: die minus fences minus its movable cells).
  std::vector<double> whitespace(num_groups, 0.0);
  whitespace[0] = db.dieArea().area() - db.totalFixedArea();
  for (int g = 1; g < num_groups; ++g) {
    whitespace[g] = fences[g - 1].box.area();
    whitespace[0] -= fences[g - 1].box.area();
  }
  for (Index i = 0; i < db.numMovable(); ++i) {
    whitespace[cellGroup[i]] -= db.cellArea(i);
  }
  double total = 0.0;
  for (double& w : whitespace) {
    w = std::max(w, 0.0);
    total += w;
  }
  std::vector<int> node_group(cellGroup.begin(), cellGroup.end());
  node_group.reserve(cellGroup.size() + numFillers);
  // Deterministic proportional assignment (largest remainder not needed:
  // running-quota rounding is stable and adds up to numFillers).
  double carry = 0.0;
  Index assigned = 0;
  for (int g = 0; g < num_groups && total > 0; ++g) {
    const double exact =
        static_cast<double>(numFillers) * whitespace[g] / total + carry;
    Index count = static_cast<Index>(std::floor(exact));
    carry = exact - count;
    if (g == num_groups - 1) {
      count = numFillers - assigned;  // absorb rounding remainder
    }
    for (Index k = 0; k < count; ++k) {
      node_group.push_back(g);
    }
    assigned += count;
  }
  while (static_cast<Index>(node_group.size()) <
         db.numMovable() + numFillers) {
    node_group.push_back(0);
  }
  return node_group;
}

template class DensityOp<float>;
template class DensityOp<double>;
template void computeFillers<float>(const Database&, double,
                                    std::vector<float>&,
                                    std::vector<float>&);
template void computeFillers<double>(const Database&, double,
                                     std::vector<double>&,
                                     std::vector<double>&);

}  // namespace dreamplace
