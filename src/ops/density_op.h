// Electrostatic density penalty operator (paper Sec. III-B).
//
// Forward: scatter node charge into the bin density map, add the static
// fixed-cell map, solve Poisson's equation spectrally, return the system
// potential energy. Backward: gather the electric field onto each node.
// This is the D(w) "regularization term" of the training analogy.
//
// Fence regions (paper Sec. III-G) are "multiple electric fields, one for
// each region": the operator then owns one field per region on the shared
// bin grid, each with its own members and a fixed map that marks
// everything outside the region as occupied. A region's cells spread
// within it, repelled by its walls; different regions interact only
// through wirelength. Field 0 is the default region: the die minus the
// other fences. Without fences there is a single field over every node.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "autograd/objective.h"
#include "common/memory.h"
#include "db/database.h"
#include "ops/density_map.h"
#include "ops/electrostatics.h"

namespace dreamplace {

struct FenceRegion {
  Box<Coord> box;
};

template <typename T>
class DensityOp final : public ObjectiveFunction<T> {
 public:
  struct Options {
    double targetDensity = 1.0;
    typename DensityMapBuilder<T>::Options map;
    fft::Dct2dAlgorithm dct = fft::Dct2dAlgorithm::kFft2dN;
  };

  /// `nodeW`/`nodeH` give the density footprint of every node: the
  /// database's movable cells [0, numMovable) followed by filler nodes.
  /// Passing widths larger than the physical cells implements routability
  /// cell inflation (Sec. III-F). Use makeNodeSizes() for the plain case.
  DensityOp(const Database& db, const DensityGrid<T>& grid,
            std::vector<T> nodeW, std::vector<T> nodeH,
            Options options = {});

  /// One field per fence region plus the default region. `nodeGroup[i]`
  /// is node i's region: 0 for the default region, k for fences[k - 1]
  /// (see assignFillerGroups()). Throws std::invalid_argument naming
  /// gp.cellFence or gp.fences[k] when `nodeGroup` does not cover the
  /// nodes, a fence has no positive-area overlap with the die, or a
  /// fence's members need more area than the fence has inside the die.
  DensityOp(const Database& db, const DensityGrid<T>& grid,
            std::vector<FenceRegion> fences, std::vector<int> nodeGroup,
            std::vector<T> nodeW, std::vector<T> nodeH,
            Options options = {});

  /// Physical movable-cell sizes followed by the given filler sizes.
  static void makeNodeSizes(const Database& db,
                            const std::vector<T>& fillerW,
                            const std::vector<T>& fillerH,
                            std::vector<T>& nodeW, std::vector<T>& nodeH);

  std::size_t size() const override {
    return 2 * static_cast<std::size_t>(num_nodes_);
  }
  /// Sum of the fields' energies, in field order.
  double evaluate(std::span<const T> params, std::span<T> grad) override;

  /// Movable-cell density overflow at `params` (the GP stopping metric);
  /// fillers are excluded. With fences, the fields' overflows are
  /// weighted by their movable area.
  double overflow(std::span<const T> params) const;

  Index numNodes() const { return num_nodes_; }
  const DensityGrid<T>& grid() const { return builder().grid(); }
  /// Builder of field 0 (the only field without fences).
  const DensityMapBuilder<T>& builder() const { return fields_[0].builder; }

  /// Per-node charge (area) for the Jacobi preconditioner, and the node
  /// footprints used to keep nodes inside their box.
  T nodeArea(Index node) const {
    const DensityMapBuilder<T>& b = fieldOf(node).builder;
    const Index slot = slotOf(node);
    return b.chargeScale(slot) * b.effectiveWidth(slot) *
           b.effectiveHeight(slot);
  }
  T nodeWidth(Index node) const {
    return fieldOf(node).builder.effectiveWidth(slotOf(node));
  }
  T nodeHeight(Index node) const {
    return fieldOf(node).builder.effectiveHeight(slotOf(node));
  }
  /// The box a node must stay in: its fence, or the die.
  const Box<Coord>& nodeBox(Index node) const { return fieldOf(node).box; }

 private:
  struct Field {
    /// Global node ids, ascending, so the movable members come first.
    /// Empty for the field over every node in index order, which reads
    /// `params` and writes `grad` in place.
    std::vector<Index> members;
    DensityMapBuilder<T> builder;  ///< Over the members' sizes, by slot.
    std::vector<T> fixedMap;       ///< Blocked density for this field.
    Index movableMembers = 0;      ///< Members [0, movableMembers).
    double movableArea = 0.0;      ///< Physical movable area.
    Box<Coord> box;
  };

  const Field& fieldOf(Index node) const {
    return fields_[node_field_.empty() ? 0 : node_field_[node]];
  }
  Index slotOf(Index node) const {
    return node_slot_.empty() ? node : node_slot_[node];
  }
  /// Centers of the first `count` members of `field`: `params` itself for
  /// the all-nodes field, else gathered into member_pos_.
  std::pair<const T*, const T*> positions(const Field& field,
                                          std::span<const T> params,
                                          Index count) const;
  /// Sizes the shared workspaces and attributes every map to mem_.
  void allocateWorkspaces();
  void trackBytes();

  Index num_nodes_ = 0;
  Options options_;
  std::vector<Field> fields_;
  /// Field and slot of each node; empty when there is a single field.
  std::vector<int> node_field_;
  std::vector<Index> node_slot_;
  PoissonSolver<T> solver_;

  // Workspaces shared by all fields.
  std::vector<T> map_;
  /// Movable-only map of overflow(); a member so the per-iteration metric
  /// reuses one buffer instead of allocating a map each call.
  mutable std::vector<T> overflow_map_;
  PoissonSolution<T> solution_;
  /// Fence fields' member centers (x then y) and gradients.
  mutable std::vector<T> member_pos_;
  std::vector<T> member_grad_;
  TrackedBytes mem_{"ops/density/grids"};  ///< all maps above
};

/// Most fillers computeFillers() creates: 2^24, about 8x the cell count of
/// bigblue4, the largest ISPD 2005 design. Only a die that is almost all
/// whitespace (rows ~2^29 sites wide around a handful of cells) asks for
/// more, and placing it would take gigabytes for nothing.
inline constexpr Index kMaxFillers = Index(1) << 24;

/// Computes the filler cell sizes for a database: total filler area =
/// targetDensity * whitespace - movable area (zero if negative); fillers
/// are square-ish with the average movable cell dimensions, matching
/// ePlace's whitespace filling. Throws std::invalid_argument naming the die
/// area, whitespace, movable area and filler count when the count exceeds
/// kMaxFillers; nothing is allocated then.
template <typename T>
void computeFillers(const Database& db, double targetDensity,
                    std::vector<T>& widths, std::vector<T>& heights);

/// Assigns fillers to regions in proportion to each region's whitespace
/// and returns the per-node region vector for movable cells + fillers,
/// given the per-movable-cell assignment `cellGroup` (gp.cellFence).
/// Throws std::invalid_argument naming gp.cellFence when it does not
/// cover the movable cells or names a region that does not exist.
std::vector<int> assignFillerGroups(const Database& db,
                                    const std::vector<int>& cellGroup,
                                    const std::vector<FenceRegion>& fences,
                                    Index numFillers);

}  // namespace dreamplace
