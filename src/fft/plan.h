// Plan-based FFT engine (FFTW-style execution model).
//
// A plan captures everything about a transform that depends only on
// (size, precision, direction): the bit-reversal permutation, per-stage
// twiddle-factor tables (each entry evaluated directly with double-
// precision trigonometry — no error-accumulating w *= wlen recurrence),
// the rfft/irfft unpack twiddles, and for Bluestein (non-power-of-two)
// sizes the chirp vector plus the pre-transformed q-spectrum. Executing a
// plan therefore performs no trigonometry and no allocation; callers pass
// scratch explicitly (scratchSize() complex slots, zero for power-of-two
// complex transforms).
//
// Ownership and thread-safety contract (see docs/FFT.md): FftPlan and
// RfftPlan are immutable after construction and own every sub-plan they
// execute (Bluestein sub-transforms, the rfft half-size plan). execute()
// is const and may be called concurrently from any number of threads,
// each with its own scratch. There is no shared plan registry: whoever
// needs a transform constructs (and owns) its plan. Each construction
// counts once under `fft/plan/create`.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dreamplace::fft {

/// Immutable complex-FFT plan for one (size, direction).
template <typename T>
class FftPlan {
 public:
  FftPlan(int n, bool inverse);

  int size() const { return n_; }
  bool inverse() const { return inverse_; }

  /// Complex scratch slots execute() needs: 0 for power-of-two sizes,
  /// the padded Bluestein length otherwise.
  std::size_t scratchSize() const { return scratch_size_; }

  /// In-place transform of data[0..n). `scratch` must provide
  /// scratchSize() slots (may be null when that is zero).
  void execute(std::complex<T>* data, std::complex<T>* scratch) const;

 private:
  void executePow2(std::complex<T>* data) const;
  void executeBluestein(std::complex<T>* data,
                        std::complex<T>* scratch) const;

  int n_;
  bool inverse_;
  std::size_t scratch_size_ = 0;

  // Radix-2 state (power-of-two n, also the Bluestein sub-transforms).
  std::vector<std::pair<std::int32_t, std::int32_t>> swaps_;
  std::vector<std::complex<T>> twiddles_;  ///< stages flattened, n-1 total

  // Bluestein chirp-z state (non-power-of-two n).
  int m_ = 0;                            ///< padded size, >= 2n+1, pow2
  std::vector<std::complex<T>> chirp_;   ///< exp(+/- i*pi*k^2/n), k < n
  std::vector<std::complex<T>> qspec_;   ///< FFT_m of the chirp kernel
  std::unique_ptr<const FftPlan<T>> sub_fwd_;  ///< size-m forward plan
  std::unique_ptr<const FftPlan<T>> sub_inv_;  ///< size-m inverse plan
};

/// Immutable real-FFT plan for one (even size, direction): forward plans
/// execute rfft (real n -> complex n/2+1), inverse plans irfft. Owns the
/// half-size complex plan plus the precomputed unpack twiddles
/// exp(-/+ 2*pi*i*k/n).
template <typename T>
class RfftPlan {
 public:
  RfftPlan(int n, bool inverse);

  int size() const { return n_; }
  bool inverse() const { return inverse_; }

  /// Complex scratch slots: n/2 packing slots + the half plan's own need.
  std::size_t scratchSize() const;

  /// rfft: in[0..n) -> out[0..n/2]. Forward plans only.
  void forward(const T* in, std::complex<T>* out,
               std::complex<T>* scratch) const;

  /// irfft: in[0..n/2] -> out[0..n). Inverse plans only.
  void inverse(const std::complex<T>* in, T* out,
               std::complex<T>* scratch) const;

 private:
  int n_;
  bool inverse_;
  FftPlan<T> half_;                      ///< size n/2, same direction
  std::vector<std::complex<T>> unpack_;  ///< k = 0..n/2
};

}  // namespace dreamplace::fft
