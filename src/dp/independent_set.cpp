#include "dp/independent_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/log.h"
#include "common/timer.h"
#include "dp/move_nets.h"
#include "lg/macro_legalizer.h"

namespace dreamplace {

const std::vector<int>& AssignmentSolver::solve(
    const std::vector<double>& cost, int n) {
  // Kuhn-Munkres with potentials (the standard O(n^3) formulation using
  // 1-based auxiliary arrays; row 0 / column 0 are sentinels).
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  u_.assign(n + 1, 0.0);
  v_.assign(n + 1, 0.0);
  p_.assign(n + 1, 0);
  way_.assign(n + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p_[0] = i;
    int j0 = 0;
    minv_.assign(n + 1, kInfinity);
    used_.assign(n + 1, 0);
    do {
      used_[j0] = 1;
      const int i0 = p_[j0];
      const double* row = cost.data() + static_cast<std::size_t>(i0 - 1) * n;
      double delta = kInfinity;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used_[j]) {
          continue;
        }
        const double cur = row[j - 1] - u_[i0] - v_[j];
        if (cur < minv_[j]) {
          minv_[j] = cur;
          way_[j] = j0;
        }
        if (minv_[j] < delta) {
          delta = minv_[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used_[j]) {
          u_[p_[j]] += delta;
          v_[j] -= delta;
        } else {
          minv_[j] -= delta;
        }
      }
      j0 = j1;
    } while (p_[j0] != 0);
    do {
      const int j1 = way_[j0];
      p_[j0] = p_[j1];
      j0 = j1;
    } while (j0);
  }
  assignment_.assign(n, -1);
  for (int j = 1; j <= n; ++j) {
    if (p_[j] > 0) {
      assignment_[p_[j] - 1] = j - 1;
    }
  }
  return assignment_;
}

IsmResult independentSetMatching(Database& db, const IsmOptions& options) {
  DP_ASSERT_MSG(options.maxSetSize >= 2, "ISM maxSetSize must be >= 2");
  ScopedTimer timer("dp/ism");
  IsmResult result;

  // Group movable standard cells by (width, height): equal-footprint
  // cells can exchange slots without perturbing anything else. Movable
  // macros are frozen after macro legalization.
  std::map<std::pair<Coord, Coord>, std::vector<Index>> by_width;
  for (Index i = 0; i < db.numMovable(); ++i) {
    if (!isMovableMacro(db, i)) {
      by_width[{db.cellWidth(i), db.cellHeight(i)}].push_back(i);
    }
  }

  // net_set[e] == set_id marks net e as used by the set being built.
  std::vector<long> net_set(db.numNets(), -1);
  long set_id = -1;
  std::vector<Index> set;
  MoveNets nets;
  std::vector<double> cost;
  std::vector<std::pair<Coord, Coord>> slots;
  AssignmentSolver solver;
  for (auto& [footprint, cells] : by_width) {
    if (static_cast<int>(cells.size()) < 2) {
      continue;
    }
    // Scan cells in index order, greedily building maximal independent
    // sets: a cell joins if none of its nets are used by the set yet
    // (net-disjointness makes the assignment costs exact).
    size_t cursor = 0;
    while (cursor < cells.size()) {
      set.clear();
      ++set_id;
      for (; cursor < cells.size() &&
             static_cast<int>(set.size()) < options.maxSetSize;
           ++cursor) {
        const Index cell = cells[cursor];
        bool independent = true;
        for (Index s = db.cellPinBegin(cell);
             s < db.cellPinEnd(cell) && independent; ++s) {
          independent = net_set[db.pinNet(db.cellPinAt(s))] != set_id;
        }
        if (!independent) {
          continue;  // skipped for this pass (the next pass rescans)
        }
        set.push_back(cell);
        for (Index s = db.cellPinBegin(cell); s < db.cellPinEnd(cell);
             ++s) {
          net_set[db.pinNet(db.cellPinAt(s))] = set_id;
        }
      }
      const int k = static_cast<int>(set.size());
      if (k < 2) {
        continue;
      }
      // Cost matrix, row-major: cell i at slot j (= cell j's current
      // position) costs the HPWL of its nets, summed per pin (a net on two
      // of the cell's pins counts twice). One scan per row.
      slots.resize(k);
      for (int j = 0; j < k; ++j) {
        slots[j] = {db.cellX(set[j]), db.cellY(set[j])};
      }
      cost.resize(static_cast<std::size_t>(k) * k);
      for (int i = 0; i < k; ++i) {
        nets.scan(db, &set[i], 1);
        for (int j = 0; j < k; ++j) {
          nets.place(0, slots[j].first, slots[j].second);
          cost[i * k + j] = nets.placedPerPin();
        }
      }
      double identity_cost = 0.0;
      for (int i = 0; i < k; ++i) {
        identity_cost += cost[i * k + i];
      }
      const std::vector<int>& assignment = solver.solve(cost, k);
      double best_cost = 0.0;
      for (int i = 0; i < k; ++i) {
        best_cost += cost[i * k + assignment[i]];
      }
      ++result.setsSolved;
      if (best_cost < identity_cost - 1e-9) {
        for (int i = 0; i < k; ++i) {
          if (assignment[i] != i) {
            ++result.cellsMoved;
          }
          db.setCellPosition(set[i], slots[assignment[i]].first,
                             slots[assignment[i]].second);
        }
        result.hpwlGain += identity_cost - best_cost;
      }
      if (options.maxSetsPerPass > 0 &&
          result.setsSolved >= options.maxSetsPerPass) {
        return result;
      }
    }
  }
  return result;
}

}  // namespace dreamplace
