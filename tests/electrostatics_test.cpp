#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/flow_context.h"
#include "common/counters.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fft/dct2d.h"
#include "fft_reference.h"
#include "ops/electrostatics.h"

namespace dreamplace {
namespace {

/// Test-side oracle for the potential psi, which the solver does not
/// materialize: dct2d, the docs/ALGORITHMS.md §3 scaling
/// z = 4 coeff / (mx my (wu^2 + wv^2)) with z_00 = 0, then idct2d.
template <typename T>
std::vector<T> potentialOracle(
    const std::vector<T>& rho, int mx, int my,
    fft::Dct2dAlgorithm algo = fft::Dct2dAlgorithm::kFft2dN) {
  fft::Dct2dPlan<T> plan(mx, my, algo);
  std::vector<T> z(rho.size());
  plan.dct2d(rho.data(), z.data());
  const T norm = T(4) / (static_cast<T>(mx) * static_cast<T>(my));
  for (int u = 0; u < mx; ++u) {
    for (int v = 0; v < my; ++v) {
      const T wu = static_cast<T>(M_PI * u / mx);
      const T wv = static_cast<T>(M_PI * v / my);
      T& zi = z[static_cast<size_t>(u) * my + v];
      zi = (u == 0 && v == 0) ? T(0) : norm * zi / (wu * wu + wv * wv);
    }
  }
  std::vector<T> psi(rho.size());
  plan.idct2d(z.data(), psi.data());
  return psi;
}

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
  const std::vector<double> potential = potentialOracle(rho, m, m);

  const double w2 = wu * wu + wv * wv;
  for (int x = 0; x < m; ++x) {
    for (int y = 0; y < m; ++y) {
      const size_t i = static_cast<size_t>(x) * m + y;
      const double psi = rho[i] / w2;
      ASSERT_NEAR(potential[i], psi, 1e-9) << x << "," << y;
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
  const std::vector<double> potential = potentialOracle(rho, m, m);
  for (size_t i = 0; i < rho.size(); ++i) {
    ASSERT_NEAR(potential[i], 0.0, 1e-9);
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
  const std::vector<double> pa = potentialOracle(rho, m, m);
  const std::vector<double> pb = potentialOracle(shifted, m, m);
  for (size_t i = 0; i < rho.size(); ++i) {
    ASSERT_NEAR(pa[i], pb[i], 1e-8);
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
  const std::vector<double> potential = potentialOracle(rho, m, m);
  double mean = 0;
  for (double p : potential) {
    mean += p;
  }
  EXPECT_NEAR(mean / potential.size(), 0.0, 1e-9);
  // A zero-mean psi makes the energy blind to the mean of rho: the
  // solver's energy equals 1/2 sum (rho - mean rho) psi.
  double rho_mean = 0;
  for (double r : rho) {
    rho_mean += r / rho.size();
  }
  double centered = 0;
  for (size_t i = 0; i < rho.size(); ++i) {
    centered += 0.5 * (rho[i] - rho_mean) * potential[i];
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  EXPECT_NEAR(sol.energy, centered, 1e-9 * std::abs(centered));
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
  const std::vector<double> potential = potentialOracle(rho, m, m);
  double max_err = 0;
  double max_field = 0;
  for (int x = 2; x < m - 2; ++x) {
    for (int y = 2; y < m - 2; ++y) {
      const double dpsi_dx =
          (potential[(x + 1) * m + y] - potential[(x - 1) * m + y]) / 2.0;
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
  const std::vector<double> ref_potential = potentialOracle(rho, m, m);
  for (auto algo : {fft::Dct2dAlgorithm::kRowCol2N,
                    fft::Dct2dAlgorithm::kRowColN}) {
    PoissonSolver<double>(m, m, algo).solve(rho, other);
    const std::vector<double> potential = potentialOracle(rho, m, m, algo);
    for (size_t i = 0; i < rho.size(); ++i) {
      ASSERT_NEAR(potential[i], ref_potential[i], 1e-8);
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
  FlowContext context;
  FlowContextScope scope(context);
  auto& reg = context.counters();
  auto& mem = context.memory();
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

TEST(PoissonTest, SolveRunsOneForwardAndTwoFieldTransforms) {
  // The potential is never transformed back to bins: a solve is one
  // dct2d plus the two field inverses. Only the row-column algorithms
  // call idct2d, twice, inside those field inverses.
  const int m = 16;
  std::vector<double> rho(static_cast<size_t>(m) * m, 0.5);
  rho[3] = 2.0;
  FlowContext context;
  FlowContextScope scope(context);
  auto& reg = context.counters();
  for (auto algo : {fft::Dct2dAlgorithm::kFft2dN,
                    fft::Dct2dAlgorithm::kRowCol2N,
                    fft::Dct2dAlgorithm::kRowColN}) {
    SCOPED_TRACE(static_cast<int>(algo));
    PoissonSolver<double> solver(m, m, algo);
    PoissonSolution<double> sol;
    const auto dct = reg.value("fft/dct2d");
    const auto idct = reg.value("fft/idct2d");
    const auto idct_idxst = reg.value("fft/idct_idxst");
    const auto idxst_idct = reg.value("fft/idxst_idct");
    solver.solve(rho, sol);
    EXPECT_EQ(reg.value("fft/dct2d"), dct + 1);
    EXPECT_EQ(reg.value("fft/idct_idxst"), idct_idxst + 1);
    EXPECT_EQ(reg.value("fft/idxst_idct"), idxst_idct + 1);
    EXPECT_EQ(reg.value("fft/idct2d"),
              idct + (algo == fft::Dct2dAlgorithm::kFft2dN ? 0 : 2));
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
  const std::vector<float> pa = potentialOracle(rho32, m, m);
  const std::vector<double> pb = potentialOracle(rho64, m, m);
  double err = 0;
  for (size_t i = 0; i < rho32.size(); ++i) {
    err = std::max(err, std::abs(pa[i] - pb[i]));
    err = std::max(err, std::abs(a.fieldX[i] - b.fieldX[i]));
    err = std::max(err, std::abs(a.fieldY[i] - b.fieldY[i]));
  }
  EXPECT_LT(err, 1e-2);
}

/// The solver sums the energy over spectral modes (docs/ALGORITHMS.md §3);
/// it must equal the real-space 1/2 sum_b rho_b psi_b of the oracle
/// potential, for every algorithm and on non-square grids.
template <typename T>
void expectEnergyMatchesRealSpaceSum(double rel_tol) {
  const std::pair<int, int> grids[] = {{32, 32}, {32, 16}, {16, 64}};
  for (auto algo : {fft::Dct2dAlgorithm::kFft2dN,
                    fft::Dct2dAlgorithm::kRowColN,
                    fft::Dct2dAlgorithm::kRowCol2N}) {
    for (const auto& [mx, my] : grids) {
      SCOPED_TRACE(::testing::Message()
                   << "algo " << static_cast<int>(algo) << ", " << mx << "x"
                   << my);
      Rng rng(43 + mx + my);
      std::vector<T> rho(static_cast<size_t>(mx) * my);
      std::vector<double> rho64(rho.size());
      for (size_t i = 0; i < rho.size(); ++i) {
        rho[i] = static_cast<T>(rng.uniform(0, 1));
        rho64[i] = static_cast<double>(rho[i]);
      }
      PoissonSolver<T> solver(mx, my, algo);
      PoissonSolution<T> sol;
      solver.solve(rho, sol);
      const std::vector<double> psi = potentialOracle(rho64, mx, my, algo);
      double expected = 0.0;
      for (size_t i = 0; i < rho64.size(); ++i) {
        expected += 0.5 * rho64[i] * psi[i];
      }
      ASSERT_GT(expected, 0.0);
      EXPECT_NEAR(sol.energy, expected, rel_tol * expected);
    }
  }
}

TEST(PoissonTest, EnergyMatchesRealSpaceSum) {
  expectEnergyMatchesRealSpaceSum<double>(1e-9);
  expectEnergyMatchesRealSpaceSum<float>(1e-4);
}

template <typename T>
void expectSolveMatchesReference() {
  // Radix-2 grids, and 12x10 whose columns and half rows take Bluestein.
  for (const auto& [mx, my] : {std::pair{8, 8}, std::pair{12, 10},
                               std::pair{64, 32}, std::pair{256, 256}}) {
    Rng rng(mx * 1000 + my);
    std::vector<T> rho(static_cast<size_t>(mx) * my);
    for (T& v : rho) {
      v = rng.uniform(0, 1) < 0.3 ? T(0) : static_cast<T>(rng.uniform(0, 2));
    }
    const auto want = fft::reference::poissonSolve<T>(mx, my, rho);
    const size_t bytes = rho.size() * sizeof(T);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::instance().setThreads(threads);
      PoissonSolver<T> solver(mx, my);
      PoissonSolution<T> sol;
      // The second solve reuses the plan's scratch and spectra.
      for (int rep = 0; rep < 2; ++rep) {
        solver.solve(rho, sol);
        const std::string where = std::to_string(mx) + "x" +
                                  std::to_string(my) + " at " +
                                  std::to_string(threads) + " threads";
        EXPECT_EQ(std::memcmp(sol.fieldX.data(), want.fieldX.data(), bytes), 0)
            << "fieldX " << where;
        EXPECT_EQ(std::memcmp(sol.fieldY.data(), want.fieldY.data(), bytes), 0)
            << "fieldY " << where;
        EXPECT_EQ(std::memcmp(&sol.energy, &want.energy, sizeof(double)), 0)
            << "energy " << sol.energy << " vs " << want.energy << " "
            << where;
      }
    }
  }
  ThreadPool::instance().setThreads(0);
}

TEST(PoissonBitsTest, SolveMatchesReferenceBitForBit) {
  expectSolveMatchesReference<float>();
  expectSolveMatchesReference<double>();
}

}  // namespace
}  // namespace dreamplace
