#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "db/database.h"
#include "gen/netlist_generator.h"
#include "ops/wirelength.h"
#include "tape.h"

namespace dreamplace::autograd {
namespace {

TEST(TapeTest, BasicArithmetic) {
  Tape tape;
  Var x = tape.variable(2.0);
  Var y = tape.variable(3.0);
  Var f = x * y + x - y / x;  // f = xy + x - y/x
  EXPECT_DOUBLE_EQ(f.value(), 6.0 + 2.0 - 1.5);
  tape.backward(f);
  // df/dx = y + 1 + y/x^2 = 3 + 1 + 0.75; df/dy = x - 1/x = 1.5.
  EXPECT_DOUBLE_EQ(tape.grad(x), 4.75);
  EXPECT_DOUBLE_EQ(tape.grad(y), 1.5);
}

TEST(TapeTest, ScalarMixedOperators) {
  Tape tape;
  Var x = tape.variable(4.0);
  Var f = 2.0 * x + (x - 1.0) * 3.0 - (10.0 - x) / 2.0 + (-x);
  // f = 2x + 3x - 3 - 5 + x/2 - x = 4.5x - 8.
  EXPECT_DOUBLE_EQ(f.value(), 10.0);
  tape.backward(f);
  EXPECT_DOUBLE_EQ(tape.grad(x), 4.5);
}

TEST(TapeTest, TranscendentalChain) {
  Tape tape;
  Var x = tape.variable(0.7);
  Var f = exp(log(x) * 2.0) + sqrt(x);  // = x^2 + sqrt(x)
  EXPECT_NEAR(f.value(), 0.49 + std::sqrt(0.7), 1e-12);
  tape.backward(f);
  EXPECT_NEAR(tape.grad(x), 2 * 0.7 + 0.5 / std::sqrt(0.7), 1e-12);
}

TEST(TapeTest, SharedSubexpressionAccumulates) {
  Tape tape;
  Var x = tape.variable(3.0);
  Var a = x * x;
  Var f = a + a;  // 2x^2 -> df/dx = 4x
  tape.backward(f);
  EXPECT_DOUBLE_EQ(tape.grad(x), 12.0);
}

TEST(TapeTest, MaxMinSubgradients) {
  Tape tape;
  Var x = tape.variable(2.0);
  Var y = tape.variable(5.0);
  Var f = maximum(x, y) + minimum(x, y) * 2.0;
  EXPECT_DOUBLE_EQ(f.value(), 5.0 + 4.0);
  tape.backward(f);
  EXPECT_DOUBLE_EQ(tape.grad(x), 2.0);  // x is the min
  EXPECT_DOUBLE_EQ(tape.grad(y), 1.0);  // y is the max
}

TEST(TapeTest, MatchesFiniteDifferenceOnRandomExpression) {
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const double x0 = rng.uniform(0.5, 2.0);
    const double y0 = rng.uniform(0.5, 2.0);
    auto build = [](Tape& t, double xv, double yv) {
      Var x = t.variable(xv);
      Var y = t.variable(yv);
      Var f = exp(x / (y + 1.0)) * log(x * y + 2.0) + sqrt(x * x + y * y);
      return std::tuple{x, y, f};
    };
    Tape tape;
    auto [x, y, f] = build(tape, x0, y0);
    tape.backward(f);
    const double gx = tape.grad(x);
    const double h = 1e-6;
    Tape tp, tm;
    auto [xp, yp, fp] = build(tp, x0 + h, y0);
    auto [xm, ym, fm] = build(tm, x0 - h, y0);
    (void)xp; (void)yp; (void)xm; (void)ym;
    EXPECT_NEAR(gx, (fp.value() - fm.value()) / (2 * h), 1e-5);
  }
}

/// The tape as a gradient oracle for the production WA wirelength op: the
/// same max-shifted WA formula is written with Vars and differentiated
/// automatically; the hand-derived kernel must agree.
TEST(TapeTest, ReproducesWaWirelengthGradient) {
  GeneratorConfig cfg;
  cfg.numCells = 30;
  cfg.numPads = 4;
  cfg.seed = 3;
  auto db = generateNetlist(cfg);
  const Index n = db->numMovable();
  const double gamma = 5.0;

  // Production op.
  WaWirelengthOp<double> op(*db, n);
  op.setGamma(gamma);
  std::vector<double> params(2 * static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    params[i] = db->cellX(i) + db->cellWidth(i) / 2;
    params[i + n] = db->cellY(i) + db->cellHeight(i) / 2;
  }
  std::vector<double> grad(params.size());
  const double wl = op.evaluate(params, grad);

  // Tape version: one Var per movable-cell coordinate.
  Tape tape;
  std::vector<Var> vx(n), vy(n);
  for (Index i = 0; i < n; ++i) {
    vx[i] = tape.variable(params[i]);
    vy[i] = tape.variable(params[i + n]);
  }
  std::vector<Var> terms;
  for (Index e = 0; e < db->numNets(); ++e) {
    const Index begin = db->netPinBegin(e);
    const Index end = db->netPinEnd(e);
    if (end - begin < 2) {
      continue;
    }
    for (int dim = 0; dim < 2; ++dim) {
      std::vector<Var> pin_pos;
      for (Index p = begin; p < end; ++p) {
        const Index c = db->pinCell(p);
        if (db->isMovable(c)) {
          const Var base = dim == 0 ? vx[c] : vy[c];
          const double off =
              dim == 0 ? db->pinOffsetX(p) : db->pinOffsetY(p);
          pin_pos.push_back(base + off);
        } else {
          pin_pos.push_back(tape.constant(
              dim == 0 ? db->pinX(p) : db->pinY(p)));
        }
      }
      // Max-shifted WA, exactly as in the kernel.
      Var pmax = pin_pos[0];
      Var pmin = pin_pos[0];
      for (size_t k = 1; k < pin_pos.size(); ++k) {
        pmax = maximum(pmax, pin_pos[k]);
        pmin = minimum(pmin, pin_pos[k]);
      }
      Var bp = tape.constant(0.0);
      Var bm = tape.constant(0.0);
      Var cp = tape.constant(0.0);
      Var cm = tape.constant(0.0);
      for (const Var& pos : pin_pos) {
        Var sp = (pos - pmax) / gamma;
        Var sm = (pmin - pos) / gamma;
        Var ap = exp(sp);
        Var am = exp(sm);
        bp = bp + ap;
        bm = bm + am;
        cp = cp + (pos - pmax) * ap;
        cm = cm + (pos - pmin) * am;
      }
      terms.push_back((cp / bp + pmax) - (cm / bm + pmin));
    }
  }
  Var total = sum(terms);
  EXPECT_NEAR(total.value(), wl, 1e-8 * std::abs(wl));
  tape.backward(total);
  for (Index i = 0; i < n; ++i) {
    ASSERT_NEAR(tape.grad(vx[i]), grad[i], 1e-6 * (1 + std::abs(grad[i])))
        << "x grad of cell " << i;
    ASSERT_NEAR(tape.grad(vy[i]), grad[i + n],
                1e-6 * (1 + std::abs(grad[i + n])))
        << "y grad of cell " << i;
  }
}

TEST(TapeTest, ClearAllowsReuse) {
  Tape tape;
  Var x = tape.variable(1.0);
  tape.backward(x + 1.0);
  EXPECT_DOUBLE_EQ(tape.grad(x), 1.0);
  tape.clear();
  EXPECT_EQ(tape.size(), 0u);
  Var y = tape.variable(2.0);
  Var f = y * y;
  tape.backward(f);
  EXPECT_DOUBLE_EQ(tape.grad(y), 4.0);
}

}  // namespace
}  // namespace dreamplace::autograd
