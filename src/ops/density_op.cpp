#include "ops/density_op.h"

#include <algorithm>
#include <cmath>

#include "common/counters.h"
#include "common/log.h"
#include "common/timer.h"

namespace dreamplace {

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
    : db_(db),
      num_nodes_(static_cast<Index>(nodeW.size())),
      options_(options),
      builder_(grid, std::move(nodeW), std::move(nodeH), options.map),
      solver_(grid.mx, grid.my, options.dct),
      fixed_map_(buildFixedDensityMap<T>(db, grid)),
      total_movable_area_(db.totalMovableArea()) {
  DP_ASSERT(num_nodes_ >= db.numMovable());
  map_.resize(static_cast<size_t>(grid.mx) * grid.my);
  overflow_map_.resize(map_.size());
  mem_.set(static_cast<std::int64_t>(
      (map_.capacity() + fixed_map_.capacity() + overflow_map_.capacity()) *
      sizeof(T)));
}

template <typename T>
double DensityOp<T>::evaluate(std::span<const T> params, std::span<T> grad) {
  DP_ASSERT(params.size() == size() && grad.size() == size());
  static Counter calls("ops/density/evaluate");
  calls.add();
  const T* x = params.data();
  const T* y = params.data() + num_nodes_;

  {
    ScopedTimer t("gp/op/density/scatter");
    std::copy(fixed_map_.begin(), fixed_map_.end(), map_.begin());
    builder_.scatter(x, y, 0, num_nodes_, map_);
  }
  {
    ScopedTimer t("gp/op/density/poisson");
    solver_.solve(std::span<const T>(map_), solution_);
    // Attribute the solution buffers once they reach steady-state size
    // (set() is a no-op when nothing changed).
    mem_.set(static_cast<std::int64_t>(
        (map_.capacity() + fixed_map_.capacity() + overflow_map_.capacity() +
         solution_.fieldX.capacity() + solution_.fieldY.capacity()) *
        sizeof(T)));
  }
  {
    ScopedTimer t("gp/op/density/gather");
    builder_.gatherForce(x, y, std::span<const T>(solution_.fieldX),
                         std::span<const T>(solution_.fieldY), grad.data(),
                         grad.data() + num_nodes_);
  }
  return solution_.energy;
}

template <typename T>
double DensityOp<T>::overflow(std::span<const T> params) const {
  const T* x = params.data();
  const T* y = params.data() + num_nodes_;
  std::fill(overflow_map_.begin(), overflow_map_.end(), T(0));
  builder_.scatter(x, y, 0, db_.numMovable(), overflow_map_);
  return densityOverflow<T>(overflow_map_, fixed_map_, builder_.grid(),
                            options_.targetDensity, total_movable_area_);
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
  const auto count =
      static_cast<Index>(std::floor(filler_total / (avg_w * h)));
  widths.assign(count, static_cast<T>(avg_w));
  heights.assign(count, static_cast<T>(h));
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
