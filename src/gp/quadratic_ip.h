// Bound-to-bound quadratic initial placement (the conventional "GP-IP").
//
// This is the initial-placement algorithm the classical flow (ePlace,
// RePlAce, NTUplace) runs before nonlinear optimization, and whose runtime
// share Fig. 3 reports (25-30% of GP). DREAMPlace's observation is that a
// random center-plus-noise start matches its quality; this module exists
// so the RePlAce-mode reference configuration actually pays the cost the
// paper measured.
//
// Model (Spindler's bound-to-bound net model): per dimension, every pin of
// a net is connected to the net's two bound pins with weights
// w = 2 / ((p-1) * max(|x_i - x_b|, eps)), making the quadratic energy
// match HPWL at the current positions. The resulting SPD system is solved
// matrix-free with Jacobi-preconditioned conjugate gradient; bounds and
// weights are refreshed for a few rounds.
//
// Parallelism (docs/PARALLEL.md): the x and y systems are independent,
// so each dimension's chain of rounds runs as one pool task; the result
// is bit-identical at any thread count. The CG matrix-vector product
// stays serial: each step is too short to repay a fork-join.
#pragma once

#include <vector>

#include "db/database.h"

namespace dreamplace {

struct QuadraticIpOptions {
  int b2bRounds = 30;
  int cgIterations = 60;
  double cgTolerance = 1e-6;
  /// Distance clamp so coincident pins do not produce infinite weights.
  double epsilonFactor = 1e-3;  ///< times the die dimension
};

/// Computes movable-cell *center* coordinates minimizing the iterated
/// bound-to-bound quadratic wirelength. Fixed pins anchor the system; if a
/// connected component has no fixed anchor, a weak pull to the die center
/// keeps the system non-singular.
template <typename T>
void quadraticInitialPlacement(const Database& db,
                               const QuadraticIpOptions& options,
                               std::vector<T>& x, std::vector<T>& y);

}  // namespace dreamplace
