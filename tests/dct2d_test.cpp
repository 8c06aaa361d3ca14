#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "fft/dct2d.h"

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

}  // namespace
}  // namespace dreamplace::fft
