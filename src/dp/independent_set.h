// Independent-set matching (ISM) for detailed placement.
//
// The classic third detailed-placement move (alongside local reordering
// and global swap), and the core batch algorithm of the GPU-DP line of
// work the paper cites as future work (ABCDPlace): pick a set of
// equal-width cells that share no nets (so their costs are independent),
// treat their current locations as slots, and solve the assignment
// problem that places each cell on the slot minimizing its own net cost.
// The Hungarian algorithm returns the jointly optimal permutation; the
// identity permutation is always feasible, so ISM never increases HPWL.
#pragma once

#include <vector>

#include "db/database.h"

namespace dreamplace {

struct IsmOptions {
  int maxSetSize = 24;    ///< Cells per matching problem (O(K^3) solve), >= 2.
  int maxSetsPerPass = 0; ///< 0 => unlimited.
};

struct IsmResult {
  long setsSolved = 0;
  long cellsMoved = 0;
  double hpwlGain = 0.0;  ///< Positive = improvement.
};

/// One ISM pass over all width classes. Positions in `db` are permuted
/// within each matched set; legality is preserved (slots are the cells'
/// own legal positions).
IsmResult independentSetMatching(Database& db, const IsmOptions& options);

/// Solves square assignment problems min sum_i cost[i * n + col[i]]
/// (Hungarian / Kuhn-Munkres, O(n^3)), reusing its scratch across
/// solves. Exposed for testing.
class AssignmentSolver {
 public:
  /// The optimal column of each row, valid until the next solve.
  const std::vector<int>& solve(const std::vector<double>& cost, int n);

 private:
  std::vector<double> u_, v_, minv_;
  std::vector<int> p_, way_, assignment_;
  std::vector<char> used_;
};

}  // namespace dreamplace
