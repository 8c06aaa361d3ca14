#include "fft/fft.h"

#include <cmath>

#include "fft/plan.h"

namespace dreamplace::fft {

template <typename T>
void fft(std::complex<T>* data, int n, bool inverse) {
  const FftPlan<T> plan(n, inverse);
  std::vector<std::complex<T>> scratch(plan.scratchSize());
  plan.execute(data, scratch.data());
}

template <typename T>
std::vector<std::complex<T>> fft(std::vector<std::complex<T>> data,
                                 bool inverse) {
  fft(data.data(), static_cast<int>(data.size()), inverse);
  return data;
}

template <typename T>
void rfft(const T* in, std::complex<T>* out, int n) {
  const RfftPlan<T> plan(n, false);
  std::vector<std::complex<T>> scratch(plan.scratchSize());
  plan.forward(in, out, scratch.data());
}

template <typename T>
void irfft(const std::complex<T>* in, T* out, int n) {
  const RfftPlan<T> plan(n, true);
  std::vector<std::complex<T>> scratch(plan.scratchSize());
  plan.inverse(in, out, scratch.data());
}

template <typename T>
std::vector<std::complex<T>> naiveDft(const std::vector<std::complex<T>>& x,
                                      bool inverse) {
  const int n = static_cast<int>(x.size());
  std::vector<std::complex<T>> out(n);
  for (int k = 0; k < n; ++k) {
    std::complex<double> acc(0, 0);
    for (int m = 0; m < n; ++m) {
      const double angle =
          (inverse ? 2.0 : -2.0) * M_PI * static_cast<double>(k) * m / n;
      acc += std::complex<double>(x[m].real(), x[m].imag()) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    if (inverse) {
      acc /= static_cast<double>(n);
    }
    out[k] = std::complex<T>(static_cast<T>(acc.real()),
                             static_cast<T>(acc.imag()));
  }
  return out;
}

// Explicit instantiations for the two precisions the paper evaluates.
#define DP_INSTANTIATE_FFT(T)                                              \
  template void fft<T>(std::complex<T>*, int, bool);                       \
  template std::vector<std::complex<T>> fft<T>(std::vector<std::complex<T>>, \
                                               bool);                      \
  template void rfft<T>(const T*, std::complex<T>*, int);                  \
  template void irfft<T>(const std::complex<T>*, T*, int);                 \
  template std::vector<std::complex<T>> naiveDft<T>(                       \
      const std::vector<std::complex<T>>&, bool);

DP_INSTANTIATE_FFT(float)
DP_INSTANTIATE_FFT(double)

#undef DP_INSTANTIATE_FFT

}  // namespace dreamplace::fft
