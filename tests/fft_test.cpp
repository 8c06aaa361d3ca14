#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <thread>

#include "common/flow_context.h"
#include "common/counters.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "fft_reference.h"

namespace dreamplace::fft {
namespace {

std::vector<std::complex<double>> randomComplex(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) {
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  return x;
}

double maxError(const std::vector<std::complex<double>>& a,
                const std::vector<std::complex<double>>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

class FftSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const int n = GetParam();
  auto x = randomComplex(n, 100 + n);
  auto fast = fft(x, false);
  auto slow = naiveDft(x, false);
  EXPECT_LT(maxError(fast, slow), 1e-9 * n) << "n=" << n;
}

TEST_P(FftSizeTest, InverseRoundTrip) {
  const int n = GetParam();
  auto x = randomComplex(n, 200 + n);
  auto y = fft(fft(x, false), true);
  EXPECT_LT(maxError(x, y), 1e-10 * n);
}

// Power-of-two sizes take the radix-2 path; the rest exercise Bluestein.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 31,
                                           32, 100, 128, 257, 512));

TEST(FftTest, LinearityHolds) {
  const int n = 64;
  auto x = randomComplex(n, 1);
  auto y = randomComplex(n, 2);
  std::vector<std::complex<double>> sum(n);
  for (int i = 0; i < n; ++i) {
    sum[i] = 2.0 * x[i] + 3.0 * y[i];
  }
  auto fx = fft(x, false);
  auto fy = fft(y, false);
  auto fsum = fft(sum, false);
  double err = 0;
  for (int i = 0; i < n; ++i) {
    err = std::max(err, std::abs(fsum[i] - (2.0 * fx[i] + 3.0 * fy[i])));
  }
  EXPECT_LT(err, 1e-10);
}

TEST(FftTest, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> x(32, {0, 0});
  x[0] = {1, 0};
  auto spectrum = fft(x, false);
  for (const auto& v : spectrum) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, ParsevalEnergyConserved) {
  const int n = 128;
  auto x = randomComplex(n, 3);
  auto spectrum = fft(x, false);
  double time_energy = 0, freq_energy = 0;
  for (int i = 0; i < n; ++i) {
    time_energy += std::norm(x[i]);
    freq_energy += std::norm(spectrum[i]);
  }
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-9 * time_energy);
}

class RfftSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(RfftSizeTest, MatchesFullDft) {
  const int n = GetParam();
  Rng rng(42 + n);
  std::vector<double> x(n);
  for (double& v : x) {
    v = rng.uniform(-2, 2);
  }
  std::vector<std::complex<double>> one_sided(n / 2 + 1);
  rfft(x.data(), one_sided.data(), n);
  std::vector<std::complex<double>> xc(x.begin(), x.end());
  auto full = naiveDft(xc, false);
  for (int k = 0; k <= n / 2; ++k) {
    EXPECT_LT(std::abs(one_sided[k] - full[k]), 1e-9 * n)
        << "n=" << n << " k=" << k;
  }
}

TEST_P(RfftSizeTest, RoundTrip) {
  const int n = GetParam();
  Rng rng(77 + n);
  std::vector<double> x(n), y(n);
  for (double& v : x) {
    v = rng.uniform(-5, 5);
  }
  std::vector<std::complex<double>> spectrum(n / 2 + 1);
  rfft(x.data(), spectrum.data(), n);
  irfft(spectrum.data(), y.data(), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-10 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RfftSizeTest,
                         ::testing::Values(2, 4, 6, 8, 16, 20, 64, 256));

TEST(RfftTest, DcAndNyquistBinsAreReal) {
  const int n = 32;
  Rng rng(5);
  std::vector<double> x(n);
  for (double& v : x) {
    v = rng.uniform(-1, 1);
  }
  std::vector<std::complex<double>> spectrum(n / 2 + 1);
  rfft(x.data(), spectrum.data(), n);
  EXPECT_NEAR(spectrum[0].imag(), 0.0, 1e-12);
  EXPECT_NEAR(spectrum[n / 2].imag(), 0.0, 1e-12);
}

TEST(FftFloatTest, SinglePrecisionAccuracy) {
  const int n = 256;
  Rng rng(9);
  std::vector<std::complex<float>> x(n);
  for (auto& v : x) {
    v = {static_cast<float>(rng.uniform(-1, 1)),
         static_cast<float>(rng.uniform(-1, 1))};
  }
  auto fast = fft(x, false);
  auto slow = naiveDft(x, false);
  double err = 0;
  for (int i = 0; i < n; ++i) {
    err = std::max(err, static_cast<double>(std::abs(fast[i] - slow[i])));
  }
  EXPECT_LT(err, 1e-3);  // float32 tolerance at n=256
}

// Regression for the twiddle-precision drift of the pre-plan engine: the
// sequential w *= wlen recurrence accumulated rounding error over long
// butterflies, visible as ~1e-2-level absolute error in float32 at
// n = 4096. The per-stage plan tables evaluate every twiddle with fresh
// double-precision trigonometry, keeping the worst bin well under 2e-3.
TEST(FftFloatTest, Float32AccuracyAt4096) {
  const int n = 4096;
  Rng rng(4096);
  std::vector<std::complex<float>> x(n);
  for (auto& v : x) {
    v = {static_cast<float>(rng.uniform(-1, 1)),
         static_cast<float>(rng.uniform(-1, 1))};
  }
  auto fast = fft(x, false);
  auto slow = naiveDft(x, false);
  double err = 0;
  for (int i = 0; i < n; ++i) {
    err = std::max(err, static_cast<double>(std::abs(fast[i] - slow[i])));
  }
  EXPECT_LT(err, 2e-3);
}

TEST(FftPlanTest, EachPlanOwnsItsSubPlans) {
  // Every construction counts once, and a plan builds the sub-plans it
  // executes itself: an rfft plan its half-size complex plan, a Bluestein
  // plan its two padded radix-2 plans.
  FlowContext context;
  FlowContextScope scope(context);
  auto& reg = context.counters();
  auto before = reg.value("fft/plan/create");
  const RfftPlan<double> real(64, false);
  EXPECT_EQ(reg.value("fft/plan/create"), before + 2);
  before = reg.value("fft/plan/create");
  const FftPlan<double> bluestein(1000, false);
  EXPECT_EQ(reg.value("fft/plan/create"), before + 3);
}

TEST(FftPlanTest, OnePlanServesConcurrentCallers) {
  // A plan is immutable and takes per-caller scratch, so two threads may
  // execute it at once. A non-power-of-two size exercises the Bluestein
  // path, which is the one that needs scratch.
  constexpr int kSize = 1000;
  const FftPlan<double> plan(kSize, false);
  auto x = randomComplex(kSize, 11);
  std::vector<std::complex<double>> ya(x), yb(x);
  std::vector<std::complex<double>> sa(plan.scratchSize()),
      sb(plan.scratchSize());
  std::thread ta([&] { plan.execute(ya.data(), sa.data()); });
  std::thread tb([&] { plan.execute(yb.data(), sb.data()); });
  ta.join();
  tb.join();
  EXPECT_EQ(maxError(ya, yb), 0.0);
  EXPECT_LT(maxError(ya, naiveDft(x, false)), 1e-9 * kSize);
}

// ---------------------------------------------------------------------------
// Bit pinning: the batched kernel against single calls and against the
// textbook radix-2 / Bluestein of tests/fft_reference.h, under memcmp.
// ---------------------------------------------------------------------------

/// The radix-2 sizes and the Bluestein sizes of FftSizeTest.
constexpr int kPinnedSizes[] = {1, 2,  3,  4,   5,   7,   8,  12,
                                16, 31, 32, 100, 128, 257, 512};

template <typename T>
std::vector<std::complex<T>> randomComplexT(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<T>> x(n);
  for (auto& v : x) {
    v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
  return x;
}

template <typename T>
bool sameBits(const std::complex<T>* a, const std::complex<T>* b,
              std::size_t n) {
  return std::memcmp(a, b, n * sizeof(std::complex<T>)) == 0;
}

template <typename T>
void expectBatchEqualsSingleCalls() {
  for (const int n : kPinnedSizes) {
    for (const bool inverse : {false, true}) {
      const FftPlan<T> plan(n, inverse);
      for (const int count : {1, 3, 8, 17}) {
        // Tight interleaving, and a stride with unused slots between
        // consecutive elements of a sequence.
        for (const std::size_t stride :
             {static_cast<std::size_t>(count),
              static_cast<std::size_t>(count) + 5}) {
          auto batch = randomComplexT<T>(n * stride, 31 * n + count);
          const auto input = batch;
          std::vector<std::complex<T>> scratch(plan.scratchSize() * count + 1);
          plan.execute(batch.data(), count, stride, scratch.data());
          std::vector<std::complex<T>> one(n), single_scratch(
                                                   plan.scratchSize() + 1);
          for (int c = 0; c < count; ++c) {
            std::vector<std::complex<T>> got(n);
            for (int t = 0; t < n; ++t) {
              one[t] = input[t * stride + c];
              got[t] = batch[t * stride + c];
            }
            plan.execute(one.data(), single_scratch.data());
            EXPECT_TRUE(sameBits(one.data(), got.data(), n))
                << "n=" << n << " inverse=" << inverse << " count=" << count
                << " stride=" << stride << " sequence " << c;
          }
          for (int t = 0; t < n; ++t) {
            for (std::size_t c = count; c < stride; ++c) {
              EXPECT_TRUE(sameBits(&batch[t * stride + c],
                                   &input[t * stride + c], 1))
                  << "slot outside the batch was written, n=" << n;
            }
          }
        }
      }
    }
  }
}

TEST(FftPlanBitsTest, BatchEqualsSingleCallsBitForBit) {
  expectBatchEqualsSingleCalls<float>();
  expectBatchEqualsSingleCalls<double>();
}

template <typename T>
void expectSingleCallEqualsReference() {
  for (const int n : kPinnedSizes) {
    for (const bool inverse : {false, true}) {
      const FftPlan<T> plan(n, inverse);
      auto x = randomComplexT<T>(n, 7 * n + inverse);
      auto ref = x;
      std::vector<std::complex<T>> scratch(plan.scratchSize() + 1);
      plan.execute(x.data(), scratch.data());
      reference::Fft<T>(n, inverse).run(ref.data());
      EXPECT_TRUE(sameBits(x.data(), ref.data(), n))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftPlanBitsTest, SingleCallEqualsTextbookFftBitForBit) {
  expectSingleCallEqualsReference<float>();
  expectSingleCallEqualsReference<double>();
}

template <typename T>
void expectRfftEqualsReference() {
  // Even sizes whose half is radix-2 (8, 64, 512) or Bluestein (10, 24,
  // 200).
  for (const int n : {2, 8, 10, 24, 64, 200, 512}) {
    const int h = n / 2;
    const RfftPlan<T> fwd(n, false);
    const RfftPlan<T> inv(n, true);
    constexpr int kRows = 9;
    std::vector<T> rows(static_cast<std::size_t>(kRows) * n);
    Rng rng(n);
    for (T& v : rows) v = static_cast<T>(rng.uniform(-1, 1));

    // Single calls against the reference, row by row.
    std::vector<std::complex<T>> spec(static_cast<std::size_t>(kRows) * (h + 1));
    std::vector<std::complex<T>> scratch(
        std::max(fwd.scratchSize(), inv.scratchSize()) + 1);
    for (int r = 0; r < kRows; ++r) {
      std::complex<T>* out = spec.data() + r * (h + 1);
      fwd.forward(rows.data() + r * n, out, scratch.data());
      std::vector<std::complex<T>> ref(h + 1);
      reference::rfft(n, rows.data() + r * n, ref.data());
      EXPECT_TRUE(sameBits(out, ref.data(), h + 1)) << "rfft n=" << n;
      std::vector<T> back(n), ref_back(n);
      inv.inverse(out, back.data(), scratch.data());
      reference::irfft(n, out, ref_back.data());
      EXPECT_EQ(std::memcmp(back.data(), ref_back.data(), n * sizeof(T)), 0)
          << "irfft n=" << n;
    }

    // The packed batch of all rows against the single calls.
    std::vector<std::complex<T>> z(static_cast<std::size_t>(h) * kRows);
    for (int r = 0; r < kRows; ++r) {
      for (int m = 0; m < h; ++m) {
        z[m * kRows + r] = {rows[r * n + 2 * m], rows[r * n + 2 * m + 1]};
      }
    }
    std::vector<std::complex<T>> packed_spec(spec.size());
    std::vector<std::complex<T>> batch_scratch(fwd.halfScratchSize() * kRows +
                                               1);
    fwd.forwardPacked(z.data(), kRows, packed_spec.data(), h + 1,
                      batch_scratch.data());
    EXPECT_TRUE(sameBits(packed_spec.data(), spec.data(), spec.size()))
        << "forwardPacked n=" << n;
    const std::complex<T>* row_ptrs[kRows];
    for (int r = 0; r < kRows; ++r) row_ptrs[r] = spec.data() + r * (h + 1);
    inv.inversePacked(row_ptrs, kRows, z.data(), batch_scratch.data());
    for (int r = 0; r < kRows; ++r) {
      std::vector<T> back(n), packed(n);
      inv.inverse(row_ptrs[r], back.data(), scratch.data());
      for (int m = 0; m < h; ++m) {
        packed[2 * m] = z[m * kRows + r].real();
        packed[2 * m + 1] = z[m * kRows + r].imag();
      }
      EXPECT_EQ(std::memcmp(back.data(), packed.data(), n * sizeof(T)), 0)
          << "inversePacked n=" << n << " row " << r;
    }
  }
}

TEST(RfftPlanBitsTest, SingleAndPackedEqualReferenceBitForBit) {
  expectRfftEqualsReference<float>();
  expectRfftEqualsReference<double>();
}

}  // namespace
}  // namespace dreamplace::fft
