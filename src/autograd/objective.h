// Objective-function abstraction: the placement-as-training analogy.
//
// The paper (Fig. 1/2a) casts analytical placement as neural-network
// training: cell coordinates are the "weights", the wirelength op is the
// prediction loss, the density op is the regularizer, and a gradient-
// descent engine minimizes their weighted sum. This header is the seam
// between those layers: ops implement ObjectiveFunction (forward =
// objective value, backward = gradient), and the optimizers in
// optimizers.h consume it without knowing anything about placement.
#pragma once

#include <cstddef>
#include <span>

namespace dreamplace {

/// A differentiable scalar objective over a flat parameter vector.
template <typename T>
class ObjectiveFunction {
 public:
  virtual ~ObjectiveFunction() = default;

  /// Number of parameters.
  virtual std::size_t size() const = 0;

  /// Computes the objective at `params` and writes its gradient into
  /// `grad` (same length as `params`). Returns the objective value.
  /// Implementations must overwrite, not accumulate into, `grad`.
  virtual double evaluate(std::span<const T> params, std::span<T> grad) = 0;
};

}  // namespace dreamplace
