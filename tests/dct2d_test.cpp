#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "common/rng.h"
#include "fft/dct2d.h"
#include "fft_reference.h"

namespace dreamplace::fft {
namespace {

std::vector<double> randomMap(int n1, int n2, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n1) * n2);
  for (double& v : x) {
    v = rng.uniform(-2, 2);
  }
  return x;
}

double maxDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// Parameterized over (n1, n2, algorithm): every fast 2-D formulation must
/// agree with the row-column naive oracle.
class Dct2dAlgoTest : public ::testing::TestWithParam<
                          std::tuple<int, int, Dct2dAlgorithm>> {};

TEST_P(Dct2dAlgoTest, ForwardMatchesNaive) {
  const auto [n1, n2, algo] = GetParam();
  auto x = randomMap(n1, n2, n1 * 100 + n2);
  std::vector<double> expected(x.size()), actual(x.size());
  Dct2dPlan<double>(n1, n2, Dct2dAlgorithm::kRowColNaive)
      .dct2d(x.data(), expected.data());
  Dct2dPlan<double>(n1, n2, algo).dct2d(x.data(), actual.data());
  EXPECT_LT(maxDiff(expected, actual), 1e-8 * n1 * n2);
}

TEST_P(Dct2dAlgoTest, InverseMatchesNaive) {
  const auto [n1, n2, algo] = GetParam();
  auto x = randomMap(n1, n2, n1 * 200 + n2);
  std::vector<double> expected(x.size()), actual(x.size());
  Dct2dPlan<double>(n1, n2, Dct2dAlgorithm::kRowColNaive)
      .idct2d(x.data(), expected.data());
  Dct2dPlan<double>(n1, n2, algo).idct2d(x.data(), actual.data());
  EXPECT_LT(maxDiff(expected, actual), 1e-8 * n1 * n2);
}

TEST_P(Dct2dAlgoTest, RoundTripScale) {
  const auto [n1, n2, algo] = GetParam();
  auto x = randomMap(n1, n2, n1 * 300 + n2);
  std::vector<double> c(x.size()), rt(x.size());
  Dct2dPlan<double> plan(n1, n2, algo);
  plan.dct2d(x.data(), c.data());
  plan.idct2d(c.data(), rt.data());
  const double scale = (n1 / 2.0) * (n2 / 2.0);
  double err = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(rt[i] - scale * x[i]));
  }
  EXPECT_LT(err, 1e-7 * n1 * n2);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlgos, Dct2dAlgoTest,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(4, 8, 16, 32),
                       ::testing::Values(Dct2dAlgorithm::kRowCol2N,
                                         Dct2dAlgorithm::kRowColN,
                                         Dct2dAlgorithm::kFft2dN)));

/// The mixed transforms against their separable definitions.
class MixedTransformTest
    : public ::testing::TestWithParam<Dct2dAlgorithm> {};

TEST_P(MixedTransformTest, IdctIdxstMatchesSeparable) {
  const auto algo = GetParam();
  const int n1 = 8, n2 = 16;
  auto x = randomMap(n1, n2, 41);
  std::vector<double> manual(x.size(), 0.0);
  for (int k1 = 0; k1 < n1; ++k1) {
    for (int k2 = 0; k2 < n2; ++k2) {
      double acc = 0;
      for (int m1 = 0; m1 < n1; ++m1) {
        for (int m2 = 0; m2 < n2; ++m2) {
          const double c1 =
              (m1 == 0 ? 0.5 : 1.0) * std::cos(M_PI * m1 * (k1 + 0.5) / n1);
          const double s2 = std::sin(M_PI * m2 * (k2 + 0.5) / n2);
          acc += x[m1 * n2 + m2] * c1 * s2;
        }
      }
      manual[k1 * n2 + k2] = acc;
    }
  }
  std::vector<double> actual(x.size());
  Dct2dPlan<double>(n1, n2, algo).idctIdxst(x.data(), actual.data());
  EXPECT_LT(maxDiff(manual, actual), 1e-9 * n1 * n2);
}

TEST_P(MixedTransformTest, IdxstIdctMatchesSeparable) {
  const auto algo = GetParam();
  const int n1 = 16, n2 = 8;
  auto x = randomMap(n1, n2, 42);
  std::vector<double> manual(x.size(), 0.0);
  for (int k1 = 0; k1 < n1; ++k1) {
    for (int k2 = 0; k2 < n2; ++k2) {
      double acc = 0;
      for (int m1 = 0; m1 < n1; ++m1) {
        for (int m2 = 0; m2 < n2; ++m2) {
          const double s1 = std::sin(M_PI * m1 * (k1 + 0.5) / n1);
          const double c2 =
              (m2 == 0 ? 0.5 : 1.0) * std::cos(M_PI * m2 * (k2 + 0.5) / n2);
          acc += x[m1 * n2 + m2] * s1 * c2;
        }
      }
      manual[k1 * n2 + k2] = acc;
    }
  }
  std::vector<double> actual(x.size());
  Dct2dPlan<double>(n1, n2, algo).idxstIdct(x.data(), actual.data());
  EXPECT_LT(maxDiff(manual, actual), 1e-9 * n1 * n2);
}

INSTANTIATE_TEST_SUITE_P(Algos, MixedTransformTest,
                         ::testing::Values(Dct2dAlgorithm::kRowCol2N,
                                           Dct2dAlgorithm::kRowColN,
                                           Dct2dAlgorithm::kFft2dN));

TEST(Dct2dTest, OddFirstDimensionUsesBluestein) {
  // n1 = 5 forces the Bluestein path in the column FFTs of the 2-D
  // single-pass transform (only n2 must be even).
  const int n1 = 5, n2 = 8;
  auto x = randomMap(n1, n2, 77);
  std::vector<double> a(x.size()), b(x.size());
  Dct2dPlan<double> naive(n1, n2, Dct2dAlgorithm::kRowColNaive);
  Dct2dPlan<double> fast(n1, n2, Dct2dAlgorithm::kFft2dN);
  naive.dct2d(x.data(), a.data());
  fast.dct2d(x.data(), b.data());
  EXPECT_LT(maxDiff(a, b), 1e-8 * n1 * n2);
  naive.idct2d(x.data(), a.data());
  fast.idct2d(x.data(), b.data());
  EXPECT_LT(maxDiff(a, b), 1e-8 * n1 * n2);
}

TEST(Dct2dTest, EvenNonPowerOfTwoUsesBluestein) {
  // 12 and 20 are even but not powers of two, so the row real FFTs run a
  // Bluestein half-size transform and the column FFTs are Bluestein
  // outright — all four transform kinds must still match the oracle.
  const int n1 = 12, n2 = 20;
  auto x = randomMap(n1, n2, 555);
  std::vector<double> a(x.size()), b(x.size());
  Dct2dPlan<double> naive(n1, n2, Dct2dAlgorithm::kRowColNaive);
  Dct2dPlan<double> fast(n1, n2, Dct2dAlgorithm::kFft2dN);
  naive.dct2d(x.data(), a.data());
  fast.dct2d(x.data(), b.data());
  EXPECT_LT(maxDiff(a, b), 1e-8 * n1 * n2);
  naive.idct2d(x.data(), a.data());
  fast.idct2d(x.data(), b.data());
  EXPECT_LT(maxDiff(a, b), 1e-8 * n1 * n2);
  naive.idctIdxst(x.data(), a.data());
  fast.idctIdxst(x.data(), b.data());
  EXPECT_LT(maxDiff(a, b), 1e-8 * n1 * n2);
  naive.idxstIdct(x.data(), a.data());
  fast.idxstIdct(x.data(), b.data());
  EXPECT_LT(maxDiff(a, b), 1e-8 * n1 * n2);
}

TEST(Dct2dTest, NonSquareMaps) {
  const int n1 = 8, n2 = 32;
  auto x = randomMap(n1, n2, 99);
  std::vector<double> a(x.size()), b(x.size());
  Dct2dPlan<double> naive(n1, n2, Dct2dAlgorithm::kRowColNaive);
  Dct2dPlan<double> fast(n1, n2, Dct2dAlgorithm::kFft2dN);
  naive.dct2d(x.data(), a.data());
  fast.dct2d(x.data(), b.data());
  EXPECT_LT(maxDiff(a, b), 1e-8 * n1 * n2);
}

TEST(Dct2dTest, ConstantMapHasOnlyDc) {
  const int n = 16;
  std::vector<double> x(n * n, 3.0);
  std::vector<double> c(n * n);
  Dct2dPlan<double>(n, n).dct2d(x.data(), c.data());
  EXPECT_NEAR(c[0], 3.0 * n * n, 1e-8);
  for (size_t i = 1; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], 0.0, 1e-8);
  }
}

TEST(Dct2dFloatTest, SinglePrecisionAgreesWithDouble) {
  const int n = 32;
  Rng rng(123);
  std::vector<float> xf(n * n);
  std::vector<double> xd(n * n);
  for (int i = 0; i < n * n; ++i) {
    xd[i] = rng.uniform(-1, 1);
    xf[i] = static_cast<float>(xd[i]);
  }
  std::vector<float> cf(n * n);
  std::vector<double> cd(n * n);
  Dct2dPlan<float>(n, n).dct2d(xf.data(), cf.data());
  Dct2dPlan<double>(n, n).dct2d(xd.data(), cd.data());
  double err = 0;
  for (int i = 0; i < n * n; ++i) {
    err = std::max(err, std::abs(cf[i] - cd[i]));
  }
  EXPECT_LT(err, 5e-2);
}

// ---------------------------------------------------------------------------
// Bit pinning: kFft2dN against the serial reference of tests/
// fft_reference.h (per-row RfftPlan, per-column FftPlan::execute, separate
// reorder, twiddle, gather, sign and scale passes), under memcmp, at pool
// sizes 1, 2 and 4.
// ---------------------------------------------------------------------------

/// The pinned grids: radix-2 squares and rectangles, and 12x10 whose
/// columns (12) and half rows (5) both take the Bluestein path.
constexpr std::pair<int, int> kPinnedGrids[] = {
    {8, 8}, {12, 10}, {64, 32}, {256, 256}};

template <typename T>
std::vector<T> randomMapT(int n1, int n2, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> x(static_cast<size_t>(n1) * n2);
  for (T& v : x) {
    // Some exact zeros, as in a density map with empty bins.
    v = rng.uniform(0, 1) < 0.2 ? T(0) : static_cast<T>(rng.uniform(-2, 2));
  }
  return x;
}

template <typename T>
bool sameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <typename T>
void expectFft2dNMatchesReference() {
  for (const auto& [n1, n2] : kPinnedGrids) {
    const auto x = randomMapT<T>(n1, n2, 17 * n1 + n2);
    const size_t total = x.size();
    reference::Dct2d<T> ref(n1, n2);
    std::vector<T> want_dct(total), want_idct(total), want_idct_idxst(total),
        want_idxst_idct(total);
    ref.dct2d(x.data(), want_dct.data());
    ref.idct2d(x.data(), want_idct.data());
    ref.idctIdxst(x.data(), want_idct_idxst.data());
    ref.idxstIdct(x.data(), want_idxst_idct.data());
    for (const int threads : {1, 2, 4}) {
      ThreadPool::instance().setThreads(threads);
      Dct2dPlan<T> plan(n1, n2, Dct2dAlgorithm::kFft2dN);
      std::vector<T> got(total), got_y(total);
      const std::string where = std::to_string(n1) + "x" +
                                std::to_string(n2) + " at " +
                                std::to_string(threads) + " threads";
      plan.dct2d(x.data(), got.data());
      EXPECT_TRUE(sameBits(got, want_dct)) << "dct2d " << where;
      plan.idct2d(x.data(), got.data());
      EXPECT_TRUE(sameBits(got, want_idct)) << "idct2d " << where;
      plan.idctIdxst(x.data(), got.data());
      EXPECT_TRUE(sameBits(got, want_idct_idxst)) << "idctIdxst " << where;
      plan.idxstIdct(x.data(), got.data());
      EXPECT_TRUE(sameBits(got, want_idxst_idct)) << "idxstIdct " << where;
      // Both field inverses in shared pool jobs, as the Poisson solve runs
      // them.
      plan.mixedInverses(x.data(), got.data(), x.data(), got_y.data());
      EXPECT_TRUE(sameBits(got, want_idxst_idct)) << "mixed x " << where;
      EXPECT_TRUE(sameBits(got_y, want_idct_idxst)) << "mixed y " << where;
    }
  }
  ThreadPool::instance().setThreads(0);
}

TEST(Dct2dBitsTest, Fft2dNMatchesReferenceBitForBit) {
  expectFft2dNMatchesReference<float>();
  expectFft2dNMatchesReference<double>();
}

}  // namespace
}  // namespace dreamplace::fft
