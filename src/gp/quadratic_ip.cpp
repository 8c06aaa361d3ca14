#include "gp/quadratic_ip.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace dreamplace {

namespace {

/// One quadratic connection: movable cell `i` to either movable cell `j`
/// (j >= 0) or a fixed coordinate `anchor` (j < 0), with weight `w`.
struct Spring {
  Index i;
  Index j;
  double anchor;
  double w;
};

/// Builds the B2B springs for one dimension at the given positions.
/// `pos(pin)` returns the pin's absolute coordinate; `cellOf(pin)` the
/// movable cell index or -1.
template <typename PinPos, typename PinCell, typename PinOffset>
void buildSprings(const Database& db, double eps, PinPos pos,
                  PinCell cellOf, PinOffset offsetOf,
                  std::vector<Spring>& springs) {
  springs.clear();
  for (Index e = 0; e < db.numNets(); ++e) {
    const Index begin = db.netPinBegin(e);
    const Index end = db.netPinEnd(e);
    const Index degree = end - begin;
    if (degree < 2) {
      continue;
    }
    // Bound pins.
    Index lo = begin;
    Index hi = begin;
    for (Index p = begin + 1; p < end; ++p) {
      if (pos(p) < pos(lo)) {
        lo = p;
      }
      if (pos(p) > pos(hi)) {
        hi = p;
      }
    }
    const double base = 2.0 / std::max<Index>(degree - 1, 1);
    auto addSpring = [&](Index pa, Index pb) {
      const double dist = std::max(std::abs(pos(pa) - pos(pb)), eps);
      const double w = base / dist;
      const Index ca = cellOf(pa);
      const Index cb = cellOf(pb);
      if (ca < 0 && cb < 0) {
        return;  // fixed-fixed: constant energy
      }
      // Express pin position = cell center + offset; offsets shift the
      // anchor of the other end.
      if (ca >= 0 && cb >= 0) {
        // Movable-movable: with pin offsets oa/ob from the cell variable,
        // (xa + oa - xb - ob)^2 == (xa - xb - (ob - oa))^2, so the spring
        // carries the offset difference as its rest separation.
        springs.push_back({ca, cb, offsetOf(pb) - offsetOf(pa), w});
      } else if (ca >= 0) {
        springs.push_back({ca, kInvalidIndex, pos(pb) - offsetOf(pa), w});
      } else {
        springs.push_back({cb, kInvalidIndex, pos(pa) - offsetOf(pb), w});
      }
    };
    for (Index p = begin; p < end; ++p) {
      if (p != lo) {
        addSpring(p, lo);
      }
      if (p != hi && lo != hi) {
        addSpring(p, hi);
      }
    }
  }
}

/// Jacobi-preconditioned CG on the spring system: minimize
/// sum w (x_i - x_j - d)^2 (+ weak center regularization).
void solveCg(const std::vector<Spring>& springs, Index n, double center,
             double regWeight, int iterations, double tolerance,
             std::vector<double>& x) {
  std::vector<double> diag(n, regWeight);
  std::vector<double> rhs(n, regWeight * center);
  for (const Spring& s : springs) {
    if (s.j >= 0) {
      diag[s.i] += s.w;
      diag[s.j] += s.w;
      // (x_i - x_j - d)^2: rhs_i += w*d, rhs_j -= w*d.
      rhs[s.i] += s.w * s.anchor;
      rhs[s.j] -= s.w * s.anchor;
    } else {
      diag[s.i] += s.w;
      rhs[s.i] += s.w * s.anchor;
    }
  }

  auto applyA = [&](const std::vector<double>& v, std::vector<double>& out) {
    for (Index i = 0; i < n; ++i) {
      out[i] = regWeight * v[i];
    }
    for (const Spring& s : springs) {
      if (s.j >= 0) {
        const double d = v[s.i] - v[s.j];
        out[s.i] += s.w * d;
        out[s.j] -= s.w * d;
      } else {
        out[s.i] += s.w * v[s.i];
      }
    }
  };

  std::vector<double> r(n), z(n), p(n), ap(n);
  applyA(x, ap);
  double rz = 0.0;
  for (Index i = 0; i < n; ++i) {
    r[i] = rhs[i] - ap[i];
    z[i] = r[i] / diag[i];
    p[i] = z[i];
    rz += r[i] * z[i];
  }
  const double r0 = std::sqrt(std::max(rz, 0.0));
  if (r0 == 0.0) {
    return;
  }
  for (int it = 0; it < iterations; ++it) {
    applyA(p, ap);
    double pap = 0.0;
    for (Index i = 0; i < n; ++i) {
      pap += p[i] * ap[i];
    }
    if (pap <= 0) {
      break;
    }
    const double alpha = rz / pap;
    double rz_next = 0.0;
    for (Index i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      z[i] = r[i] / diag[i];
      rz_next += r[i] * z[i];
    }
    if (std::sqrt(std::max(rz_next, 0.0)) < tolerance * r0) {
      break;
    }
    const double beta = rz_next / rz;
    rz = rz_next;
    for (Index i = 0; i < n; ++i) {
      p[i] = z[i] + beta * p[i];
    }
  }
}

/// Runs every B2B round of one dimension (kX: x, else y) on its own
/// coordinate vector `c` (cell lower-left): rebuild the springs at the
/// current positions, then CG-solve. A chain reads only `db` and its own
/// `c`, so the x and y chains may run concurrently.
template <bool kX>
void runB2bChain(const Database& db, const QuadraticIpOptions& options,
                 double eps, double center, double reg,
                 std::size_t maxSprings, std::vector<double>& c) {
  auto halfSize = [&](Index cell) {
    return (kX ? db.cellWidth(cell) : db.cellHeight(cell)) / 2;
  };
  auto pinOffset = [&](Index p) {
    return kX ? db.pinOffsetX(p) : db.pinOffsetY(p);
  };
  std::vector<Spring> springs;
  springs.reserve(maxSprings);
  for (int round = 0; round < options.b2bRounds; ++round) {
    buildSprings(
        db, eps,
        [&](Index p) {
          const Index cell = db.pinCell(p);
          return db.isMovable(cell) ? c[cell] + halfSize(cell) + pinOffset(p)
                                    : (kX ? db.pinX(p) : db.pinY(p));
        },
        [&](Index p) {
          const Index cell = db.pinCell(p);
          return db.isMovable(cell) ? cell : kInvalidIndex;
        },
        [&](Index p) { return halfSize(db.pinCell(p)) + pinOffset(p); },
        springs);
    solveCg(springs, db.numMovable(), center, reg, options.cgIterations,
            options.cgTolerance, c);
  }
}

}  // namespace

template <typename T>
void quadraticInitialPlacement(const Database& db,
                               const QuadraticIpOptions& options,
                               std::vector<T>& x, std::vector<T>& y) {
  ScopedTimer timer("gp/init/b2b");
  const Index n = db.numMovable();
  const Box<Coord>& die = db.dieArea();
  DP_ASSERT(static_cast<Index>(x.size()) >= n &&
            static_cast<Index>(y.size()) >= n);

  // Work in double regardless of T: CG conditioning benefits.
  // Solver variables are cell lower-left coordinates; the inputs/outputs
  // of this function are centers (the GP parameter convention).
  std::vector<double> cx(n), cy(n);
  for (Index i = 0; i < n; ++i) {
    cx[i] = static_cast<double>(x[i]) - db.cellWidth(i) / 2;
    cy[i] = static_cast<double>(y[i]) - db.cellHeight(i) / 2;
  }

  // A net of degree p yields at most 2*(p-1) springs per round.
  std::size_t maxSprings = 0;
  for (Index e = 0; e < db.numNets(); ++e) {
    const Index degree = db.netPinEnd(e) - db.netPinBegin(e);
    if (degree >= 2) {
      maxSprings += 2 * static_cast<std::size_t>(degree - 1);
    }
  }
  // Weak center regularization: keeps anchorless components placeable and
  // the system strictly SPD. Scaled against typical B2B weights.
  const double reg = 1e-4;
  // The two dimensions are independent systems: one task per chain, so
  // the result is the serial x-then-y result at any thread count.
  parallelFor("gp/init/b2b_dims", 2, 1, [&](Index dim) {
    if (dim == 0) {
      runB2bChain<true>(db, options, options.epsilonFactor * die.width(),
                        die.centerX(), reg, maxSprings, cx);
    } else {
      runB2bChain<false>(db, options, options.epsilonFactor * die.height(),
                         die.centerY(), reg, maxSprings, cy);
    }
  });

  for (Index i = 0; i < n; ++i) {
    // cx/cy are center-of-pin-frame solutions; convert back to centers and
    // clamp into the die.
    x[i] = static_cast<T>(clampSafe(
        cx[i] + db.cellWidth(i) / 2,
        die.xl + db.cellWidth(i) / 2, die.xh - db.cellWidth(i) / 2));
    y[i] = static_cast<T>(clampSafe(
        cy[i] + db.cellHeight(i) / 2,
        die.yl + db.cellHeight(i) / 2, die.yh - db.cellHeight(i) / 2));
  }
}

template void quadraticInitialPlacement<float>(const Database&,
                                               const QuadraticIpOptions&,
                                               std::vector<float>&,
                                               std::vector<float>&);
template void quadraticInitialPlacement<double>(const Database&,
                                                const QuadraticIpOptions&,
                                                std::vector<double>&,
                                                std::vector<double>&);

}  // namespace dreamplace
