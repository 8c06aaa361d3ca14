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

  /// Complex scratch slots execute() needs per sequence: 0 for
  /// power-of-two sizes, the padded Bluestein length otherwise.
  std::size_t scratchSize() const { return scratch_size_; }

  /// In-place transform of data[0..n). `scratch` must provide
  /// scratchSize() slots (may be null when that is zero). The batch of
  /// one: execute(data, 1, 1, scratch).
  void execute(std::complex<T>* data, std::complex<T>* scratch) const {
    execute(data, 1, 1, scratch);
  }

  /// In-place transform of `count` interleaved sequences: element t of
  /// sequence c is data[t*stride + c] (stride >= count). The butterflies
  /// run across the batch, so the inner loop is contiguous. Every
  /// element sees the same twiddles, operation order and 1/n scale as a
  /// transform of its sequence alone, so the results are bit-identical
  /// to `count` single calls. `scratch` must provide scratchSize()*count
  /// slots.
  void execute(std::complex<T>* data, int count, std::size_t stride,
               std::complex<T>* scratch) const;

 private:
  // Count and Stride are int / std::size_t or std::integral_constant:
  // 1 and 1 for the batch of one, which then compiles to a plain scalar
  // loop, and a count of 4 or 8 for Dct2dPlan's strips and row blocks.
  template <typename Count, typename Stride>
  void executePow2(std::complex<T>* data, Count count, Stride stride) const;
  template <typename Count, typename Stride>
  void executeBluestein(std::complex<T>* data, Count count, Stride stride,
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

  /// Complex scratch slots the half plan needs per sequence (the
  /// `scratch` of forwardPacked / inversePacked, times the batch count).
  std::size_t halfScratchSize() const { return half_.scratchSize(); }

  /// rfft: in[0..n) -> out[0..n/2]. Forward plans only.
  void forward(const T* in, std::complex<T>* out,
               std::complex<T>* scratch) const;

  /// Batched rfft of `count` rows the caller packed into `z`: z[m*count
  /// + r] = (x_r[2m], x_r[2m+1]) for m < n/2. Runs the half-size FFT as
  /// one batch (overwriting z) and writes row r's spectrum [0..n/2] to
  /// out + r*outStride. `scratch` provides halfScratchSize()*count slots.
  /// Forward plans only; per element identical to forward().
  void forwardPacked(std::complex<T>* z, int count, std::complex<T>* out,
                     std::size_t outStride, std::complex<T>* scratch) const;

  /// irfft: in[0..n/2] -> out[0..n). Inverse plans only.
  void inverse(const std::complex<T>* in, T* out,
               std::complex<T>* scratch) const;

  /// Batched irfft of the spectra rows[0..count): packs them into z and
  /// runs the half-size inverse FFT as one batch. Afterwards sample 2m
  /// of row r is z[m*count + r].real() and sample 2m+1 its imag().
  /// `z` holds n/2*count slots, `scratch` halfScratchSize()*count.
  /// Inverse plans only; per element identical to inverse().
  void inversePacked(const std::complex<T>* const* rows, int count,
                     std::complex<T>* z, std::complex<T>* scratch) const;

 private:
  int n_;
  bool inverse_;
  FftPlan<T> half_;                      ///< size n/2, same direction
  std::vector<std::complex<T>> unpack_;  ///< k = 0..n/2
};

}  // namespace dreamplace::fft
