#include <gtest/gtest.h>

#include <cmath>

#include "common/counters.h"
#include "common/memory.h"
#include "common/rng.h"
#include "ops/electrostatics.h"

namespace dreamplace {
namespace {

/// Parameterized over (grid size, mode u, mode v): a single cosine mode
/// rho(x,y) = cos(wu*(x+1/2)) cos(wv*(y+1/2)) is an eigenfunction of the
/// Laplacian with Neumann BCs, so the solver must return exactly
/// psi = rho/(wu^2+wv^2) and the corresponding analytic fields.
class PoissonModeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PoissonModeTest, SingleModeSolvedExactly) {
  const auto [m, u, v] = GetParam();
  const double wu = M_PI * u / m;
  const double wv = M_PI * v / m;
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (int x = 0; x < m; ++x) {
    for (int y = 0; y < m; ++y) {
      rho[x * m + y] =
          std::cos(wu * (x + 0.5)) * std::cos(wv * (y + 0.5));
    }
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);

  const double w2 = wu * wu + wv * wv;
  for (int x = 0; x < m; ++x) {
    for (int y = 0; y < m; ++y) {
      const size_t i = static_cast<size_t>(x) * m + y;
      const double psi = rho[i] / w2;
      ASSERT_NEAR(sol.potential[i], psi, 1e-9) << x << "," << y;
      const double ex = wu / w2 * std::sin(wu * (x + 0.5)) *
                        std::cos(wv * (y + 0.5));
      const double ey = wv / w2 * std::cos(wu * (x + 0.5)) *
                        std::sin(wv * (y + 0.5));
      ASSERT_NEAR(sol.fieldX[i], ex, 1e-9);
      ASSERT_NEAR(sol.fieldY[i], ey, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PoissonModeTest,
                         ::testing::Values(std::make_tuple(16, 1, 0),
                                           std::make_tuple(16, 0, 1),
                                           std::make_tuple(16, 3, 2),
                                           std::make_tuple(32, 5, 7),
                                           std::make_tuple(64, 1, 1)));

TEST(PoissonTest, UniformDensityGivesZeroField) {
  const int m = 32;
  std::vector<double> rho(static_cast<size_t>(m) * m, 0.7);
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  for (size_t i = 0; i < rho.size(); ++i) {
    ASSERT_NEAR(sol.potential[i], 0.0, 1e-9);
    ASSERT_NEAR(sol.fieldX[i], 0.0, 1e-9);
    ASSERT_NEAR(sol.fieldY[i], 0.0, 1e-9);
  }
  EXPECT_NEAR(sol.energy, 0.0, 1e-9);
}

TEST(PoissonTest, DcOffsetIsIrrelevant) {
  // Adding a constant to rho must not change the solution (eq. (4c)).
  const int m = 16;
  Rng rng(8);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 1);
  }
  std::vector<double> shifted = rho;
  for (double& r : shifted) {
    r += 5.0;
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> a, b;
  solver.solve(rho, a);
  solver.solve(shifted, b);
  for (size_t i = 0; i < rho.size(); ++i) {
    ASSERT_NEAR(a.potential[i], b.potential[i], 1e-8);
    ASSERT_NEAR(a.fieldX[i], b.fieldX[i], 1e-8);
  }
}

TEST(PoissonTest, EnergyNonNegativeForZeroMeanCharge) {
  // Energy = 1/2 rho^T K^{-1} rho is PSD on the zero-mean subspace; with
  // the DC mode removed it is non-negative for any rho.
  const int m = 32;
  Rng rng(19);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(-1, 1);
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  EXPECT_GE(sol.energy, -1e-9);
}

TEST(PoissonTest, PotentialHasZeroMean) {
  const int m = 16;
  Rng rng(23);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 2);
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  double mean = 0;
  for (double p : sol.potential) {
    mean += p;
  }
  EXPECT_NEAR(mean / sol.potential.size(), 0.0, 1e-9);
}

TEST(PoissonTest, FieldIsDiscreteGradientOfPotential) {
  // For smooth rho, central differences of psi should approximate -field.
  const int m = 64;
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (int x = 0; x < m; ++x) {
    for (int y = 0; y < m; ++y) {
      const double dx = (x - m / 2.0) / (m / 6.0);
      const double dy = (y - m / 2.0) / (m / 6.0);
      rho[x * m + y] = std::exp(-(dx * dx + dy * dy));
    }
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  double max_err = 0;
  double max_field = 0;
  for (int x = 2; x < m - 2; ++x) {
    for (int y = 2; y < m - 2; ++y) {
      const double dpsi_dx = (sol.potential[(x + 1) * m + y] -
                              sol.potential[(x - 1) * m + y]) /
                             2.0;
      const double err = std::abs(-dpsi_dx - sol.fieldX[x * m + y]);
      max_err = std::max(max_err, err);
      max_field = std::max(max_field, std::abs(sol.fieldX[x * m + y]));
    }
  }
  EXPECT_LT(max_err, 0.05 * max_field);
}

TEST(PoissonTest, AllDctAlgorithmsAgree) {
  const int m = 32;
  Rng rng(31);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 1);
  }
  PoissonSolution<double> ref, other;
  PoissonSolver<double>(m, m, fft::Dct2dAlgorithm::kFft2dN).solve(rho, ref);
  for (auto algo : {fft::Dct2dAlgorithm::kRowCol2N,
                    fft::Dct2dAlgorithm::kRowColN}) {
    PoissonSolver<double>(m, m, algo).solve(rho, other);
    for (size_t i = 0; i < rho.size(); ++i) {
      ASSERT_NEAR(other.potential[i], ref.potential[i], 1e-8);
      ASSERT_NEAR(other.fieldX[i], ref.fieldX[i], 1e-8);
      ASSERT_NEAR(other.fieldY[i], ref.fieldY[i], 1e-8);
    }
  }
}

TEST(PoissonTest, SolveIsAllocationFreeAfterFirstCall) {
  // The solver owns its transform plans and spectral workspace, and the
  // caller-owned PoissonSolution buffers reach full size on the first
  // call, so every later call must touch the heap zero times. Proven for
  // every algorithm a flow can run via the counter registry (no workspace
  // growth, no new FFT plans) and the memory tracker (the plan's
  // attributed scratch bytes stand still).
  const int m = 32;
  Rng rng(41);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 1);
  }
  auto& reg = CounterRegistry::instance();
  auto& mem = MemoryTracker::instance();
  for (auto algo : {fft::Dct2dAlgorithm::kFft2dN,
                    fft::Dct2dAlgorithm::kRowCol2N,
                    fft::Dct2dAlgorithm::kRowColN}) {
    SCOPED_TRACE(static_cast<int>(algo));
    PoissonSolver<double> solver(m, m, algo);
    PoissonSolution<double> sol;
    solver.solve(rho, sol);  // warm-up: grows `sol` to full size

    const auto ws_alloc = reg.value("ops/electrostatics/ws_alloc");
    const auto ws_reuse = reg.value("ops/electrostatics/ws_reuse");
    const auto plan_create = reg.value("fft/plan/create");
    const auto scratch_bytes = mem.current("fft/scratch");
    constexpr int kSteadyCalls = 5;
    for (int i = 0; i < kSteadyCalls; ++i) {
      solver.solve(rho, sol);
    }
    EXPECT_EQ(reg.value("ops/electrostatics/ws_alloc"), ws_alloc);
    EXPECT_EQ(reg.value("ops/electrostatics/ws_reuse"),
              ws_reuse + kSteadyCalls);
    EXPECT_EQ(reg.value("fft/plan/create"), plan_create);
    EXPECT_EQ(mem.current("fft/scratch"), scratch_bytes);
  }
}

TEST(PoissonFloatTest, SinglePrecisionTracksDouble) {
  const int m = 32;
  Rng rng(37);
  std::vector<float> rho32(static_cast<size_t>(m) * m);
  std::vector<double> rho64(rho32.size());
  for (size_t i = 0; i < rho32.size(); ++i) {
    rho64[i] = rng.uniform(0, 1);
    rho32[i] = static_cast<float>(rho64[i]);
  }
  PoissonSolver<float> s32(m, m);
  PoissonSolver<double> s64(m, m);
  PoissonSolution<float> a;
  PoissonSolution<double> b;
  s32.solve(rho32, a);
  s64.solve(rho64, b);
  double err = 0;
  for (size_t i = 0; i < rho32.size(); ++i) {
    err = std::max(err, std::abs(a.potential[i] - b.potential[i]));
  }
  EXPECT_LT(err, 1e-2);
}

}  // namespace
}  // namespace dreamplace
