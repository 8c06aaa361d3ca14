// Complex and real fast Fourier transforms.
//
// Self-contained (no FFTW in this environment): iterative radix-2 for
// power-of-two sizes with a Bluestein chirp-z fallback for arbitrary sizes.
// Real transforms use the standard half-size complex packing so an N-point
// real FFT costs one N/2-point complex FFT plus O(N) twiddling — this is
// what makes the paper's "N-point FFT" DCT (Algorithm 3) faster than the
// "2N-point FFT" formulation.
//
// Conventions:
//   fft:   X_k = sum_n x_n exp(-2*pi*i*k*n/N)        (unnormalized)
//   ifft:  x_n = (1/N) sum_k X_k exp(+2*pi*i*k*n/N)  (normalized)
//   rfft:  real x[N] -> complex X[N/2+1], N even
//   irfft: complex X[N/2+1] -> real x[N], N even; irfft(rfft(x)) == x
//
// These free functions are one-shot conveniences (tests, oracles): each
// call builds its plan and a local scratch buffer. Hot paths own an
// FftPlan / RfftPlan (fft/plan.h) instead.
#pragma once

#include <complex>
#include <vector>

namespace dreamplace::fft {

/// In-place complex FFT (or inverse when `inverse`). Any n >= 1; power-of-
/// two sizes take the radix-2 path, others Bluestein.
template <typename T>
void fft(std::complex<T>* data, int n, bool inverse);

/// Convenience wrappers.
template <typename T>
std::vector<std::complex<T>> fft(std::vector<std::complex<T>> data,
                                 bool inverse = false);

/// Real-input FFT: writes n/2+1 complex outputs. Requires even n >= 2.
template <typename T>
void rfft(const T* in, std::complex<T>* out, int n);

/// Inverse of rfft: reconstructs n real samples from n/2+1 complex bins.
/// Requires even n >= 2.
template <typename T>
void irfft(const std::complex<T>* in, T* out, int n);

/// Naive O(n^2) DFT used as the test oracle.
template <typename T>
std::vector<std::complex<T>> naiveDft(const std::vector<std::complex<T>>& x,
                                      bool inverse);

}  // namespace dreamplace::fft
