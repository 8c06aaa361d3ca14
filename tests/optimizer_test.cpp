#include <gtest/gtest.h>

#include <cmath>

#include "autograd/objective.h"
#include "autograd/optimizers.h"

namespace dreamplace {
namespace {

/// Convex quadratic f(p) = 1/2 sum_i a_i (p_i - c_i)^2.
template <typename T>
class Quadratic final : public ObjectiveFunction<T> {
 public:
  Quadratic(std::vector<double> a, std::vector<double> c)
      : a_(std::move(a)), c_(std::move(c)) {}

  std::size_t size() const override { return a_.size(); }

  double evaluate(std::span<const T> p, std::span<T> g) override {
    double value = 0;
    for (std::size_t i = 0; i < a_.size(); ++i) {
      const double d = static_cast<double>(p[i]) - c_[i];
      value += 0.5 * a_[i] * d * d;
      g[i] = static_cast<T>(a_[i] * d);
    }
    return value;
  }

 private:
  std::vector<double> a_;
  std::vector<double> c_;
};

/// Rosenbrock in 2-D: a classic non-convex stress test.
template <typename T>
class Rosenbrock final : public ObjectiveFunction<T> {
 public:
  std::size_t size() const override { return 2; }
  double evaluate(std::span<const T> p, std::span<T> g) override {
    const double x = p[0], y = p[1];
    const double value =
        (1 - x) * (1 - x) + 100 * (y - x * x) * (y - x * x);
    g[0] = static_cast<T>(-2 * (1 - x) - 400 * x * (y - x * x));
    g[1] = static_cast<T>(200 * (y - x * x));
    return value;
  }
};

TEST(NesterovTest, ConvergesOnQuadratic) {
  Quadratic<double> obj({1.0, 4.0, 0.25}, {3.0, -2.0, 10.0});
  NesterovOptimizer<double> opt(obj, {0.0, 0.0, 0.0});
  double value = 0;
  for (int i = 0; i < 400; ++i) {
    value = opt.step();
  }
  EXPECT_LT(value, 1e-7);
  EXPECT_NEAR(opt.params()[0], 3.0, 1e-4);
  EXPECT_NEAR(opt.params()[1], -2.0, 1e-4);
  EXPECT_NEAR(opt.params()[2], 10.0, 1e-3);
}

TEST(NesterovTest, LineSearchAdaptsToCurvatureScale) {
  // Extremely stiff quadratic: a fixed-step method with lr=1 would blow
  // up; the Lipschitz line search must keep it stable.
  Quadratic<double> obj({1e4, 1.0}, {1.0, 1.0});
  NesterovOptimizer<double> opt(obj, {10.0, -10.0});
  const double initial = 0.5 * 1e4 * 81 + 0.5 * 121;  // f(10,-10)
  double value = 0;
  // Condition number 1e4: accelerated gradient needs ~sqrt(kappa)*ln(1/eps)
  // iterations. (The placer avoids this regime with its Jacobi
  // preconditioner; here we check the raw solver stays stable and makes
  // the theoretically expected progress.)
  for (int i = 0; i < 3000; ++i) {
    value = opt.step();
    ASSERT_TRUE(std::isfinite(value)) << "diverged at iter " << i;
  }
  EXPECT_LT(value, initial * 1e-8);
}

TEST(NesterovTest, ProgressOnRosenbrock) {
  Rosenbrock<double> obj;
  NesterovOptimizer<double> opt(obj, {-1.2, 1.0});
  const double initial = 24.2;  // f(-1.2, 1)
  double value = initial;
  for (int i = 0; i < 800; ++i) {
    value = opt.step();
  }
  EXPECT_LT(value, initial / 100);
}

TEST(NesterovTest, ProjectionKeepsIterateInBox) {
  Quadratic<double> obj({1.0}, {100.0});  // minimum far outside the box
  NesterovOptimizer<double>::Options options;
  options.projection = [](std::vector<double>& p) {
    p[0] = std::clamp(p[0], -1.0, 5.0);
  };
  NesterovOptimizer<double> opt(obj, {0.0}, options);
  for (int i = 0; i < 100; ++i) {
    opt.step();
    ASSERT_LE(opt.params()[0], 5.0 + 1e-12);
    ASSERT_GE(opt.params()[0], -1.0 - 1e-12);
  }
  EXPECT_NEAR(opt.params()[0], 5.0, 1e-6);  // lands on the boundary
}

TEST(NesterovTest, EvaluationsCounted) {
  Quadratic<double> obj({1.0}, {0.0});
  NesterovOptimizer<double> opt(obj, {1.0});
  opt.step();
  EXPECT_GE(opt.evaluations(), 2);  // init eval + at least one trial
}

/// All momentum solvers should solve a benign quadratic.
class SolverKindTest : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SolverKindTest, ConvergesOnQuadratic) {
  Quadratic<double> obj({1.0, 2.0}, {1.0, -1.0});
  auto opt = makeOptimizer<double>(GetParam(), obj, {5.0, 5.0},
                                   /*lr=*/0.05, /*lrDecay=*/1.0);
  double value = 0;
  for (int i = 0; i < 2000; ++i) {
    value = opt->step();
  }
  EXPECT_LT(value, 1e-3) << solverName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverKindTest,
                         ::testing::Values(SolverKind::kNesterov,
                                           SolverKind::kAdam,
                                           SolverKind::kSgdMomentum,
                                           SolverKind::kRmsProp));

TEST(AdamTest, LearningRateDecayShrinksSteps) {
  Quadratic<double> obj({1.0}, {1000.0});  // far minimum: steps ~ lr
  AdamOptimizer<double>::Options options;
  options.lr = 1.0;
  options.lrDecay = 0.5;  // aggressive decay
  AdamOptimizer<double> opt(obj, {0.0}, options);
  double prev = 0;
  double first_step = 0, fifth_step = 0;
  for (int i = 0; i < 5; ++i) {
    opt.step();
    const double step = std::abs(opt.params()[0] - prev);
    if (i == 0) first_step = step;
    if (i == 4) fifth_step = step;
    prev = opt.params()[0];
  }
  EXPECT_LT(fifth_step, first_step * 0.2);
}

TEST(SgdTest, MomentumAcceleratesDescent) {
  Quadratic<double> obj({1.0}, {10.0});
  SgdMomentumOptimizer<double>::Options with;
  with.lr = 0.01;
  with.momentum = 0.9;
  SgdMomentumOptimizer<double>::Options without;
  without.lr = 0.01;
  without.momentum = 0.0;
  SgdMomentumOptimizer<double> a(obj, {0.0}, with);
  SgdMomentumOptimizer<double> b(obj, {0.0}, without);
  double va = 0, vb = 0;
  for (int i = 0; i < 50; ++i) {
    va = a.step();
    vb = b.step();
  }
  EXPECT_LT(va, vb);  // momentum should be ahead on this smooth problem
}

TEST(OptimizerTest, ResetClearsState) {
  Quadratic<double> obj({1.0}, {1.0});
  AdamOptimizer<double> opt(obj, {0.0});
  for (int i = 0; i < 10; ++i) {
    opt.step();
  }
  const double after_ten = opt.params()[0];
  opt.mutableParams()[0] = 0.0;
  opt.reset();
  for (int i = 0; i < 10; ++i) {
    opt.step();
  }
  EXPECT_NEAR(opt.params()[0], after_ten, 1e-12);
}

TEST(OptimizerFloatTest, NesterovWorksInSinglePrecision) {
  Quadratic<float> obj({1.0, 1.0}, {2.0, -3.0});
  NesterovOptimizer<float> opt(obj, {0.0f, 0.0f});
  double value = 0;
  for (int i = 0; i < 200; ++i) {
    value = opt.step();
  }
  EXPECT_LT(value, 1e-4);
}

}  // namespace
}  // namespace dreamplace
