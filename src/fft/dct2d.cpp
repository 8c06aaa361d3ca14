#include "fft/dct2d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/counters.h"
#include "common/log.h"
#include "common/parallel.h"

namespace dreamplace::fft {

namespace {

/// Cache-blocked transpose: walks 64x64 tiles so the strided writes stay
/// within one L1-resident tile instead of thrashing a whole column of
/// cache lines per row on large maps. Row-tile stripes parallelize over
/// the pool (disjoint output rows per stripe).
template <typename T>
void transposeBlocked(const T* in, T* out, int n1, int n2) {
  constexpr int kBlock = 64;
  const Index row_tiles = (n1 + kBlock - 1) / kBlock;
  parallelFor("fft/transpose", row_tiles, 1, [&](Index tile) {
    const int ib = static_cast<int>(tile) * kBlock;
    const int iend = std::min(ib + kBlock, n1);
    for (int jb = 0; jb < n2; jb += kBlock) {
      const int jend = std::min(jb + kBlock, n2);
      for (int i = ib; i < iend; ++i) {
        for (int j = jb; j < jend; ++j) {
          out[static_cast<size_t>(j) * n1 + i] =
              in[static_cast<size_t>(i) * n2 + j];
        }
      }
    }
  });
}

DctAlgorithm to1d(Dct2dAlgorithm algo) {
  switch (algo) {
    case Dct2dAlgorithm::kRowColNaive:
      return DctAlgorithm::kNaive;
    case Dct2dAlgorithm::kRowCol2N:
      return DctAlgorithm::kFft2N;
    case Dct2dAlgorithm::kRowColN:
      return DctAlgorithm::kFftN;
    default:
      logFatal("no 1-D equivalent for this 2-D algorithm");
  }
}

/// Makhoul per-dimension reorder index: v_t = x_{m(t)}.
inline int reorderIndex(int t, int n) {
  return (t < (n + 1) / 2) ? 2 * t : 2 * (n - t) - 1;
}

/// Inverse reorder index for the IDCT output pass.
inline int inverseReorderIndex(int k, int n) {
  return (k % 2 == 0) ? k / 2 : n - (k + 1) / 2;
}

template <typename T>
std::complex<T> unitPhase(double angle) {
  return {static_cast<T>(std::cos(angle)), static_cast<T>(std::sin(angle))};
}

/// Cache line size the column strips and worker scratch are aligned to.
constexpr std::size_t kLineBytes = 64;

/// Elements of C per cache line.
template <typename C>
constexpr int lineElems() {
  return static_cast<int>(kLineBytes / sizeof(C));
}

/// Rounds n up to whole cache lines of C.
template <typename C>
std::size_t roundToLine(std::size_t n) {
  const std::size_t line = static_cast<std::size_t>(lineElems<C>());
  return (n + line - 1) / line * line;
}

/// First cache-line boundary at or after p. Buffers that are read through
/// it hold one extra line of slack.
template <typename C>
C* alignToLine(C* p) {
  const auto address = reinterpret_cast<std::uintptr_t>(p);
  return reinterpret_cast<C*>((address + kLineBytes - 1) &
                              ~(kLineBytes - 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// Dct2dPlan
// ---------------------------------------------------------------------------

template <typename T>
Dct2dPlan<T>::Dct2dPlan(int n1, int n2, Dct2dAlgorithm algo)
    : n1_(n1), n2_(n2), algo_(algo) {
  DP_ASSERT(n1 >= 1 && n2 >= 1);
  const size_t total = static_cast<size_t>(n1_) * n2_;
  if (algo_ != Dct2dAlgorithm::kFft2dN) {
    row_dct_.emplace(n2_, to1d(algo_));
    col_dct_.emplace(n1_, to1d(algo_));
    row_scratch_stride_ = roundToLine<std::complex<T>>(row_dct_->scratchSize());
    col_scratch_stride_ = roundToLine<std::complex<T>>(col_dct_->scratchSize());
    buf_a_.resize(total);
    buf_b_.resize(total);
    flip_.resize(total);
    ensureScratch();
    return;
  }

  DP_ASSERT_MSG(n2_ % 2 == 0, "2-D FFT DCT requires even n2, got %d", n2_);
  h2_ = n2_ / 2;
  constexpr int kLine = lineElems<std::complex<T>>();
  stride_ = static_cast<int>(roundToLine<std::complex<T>>(h2_ + 1));
  strip_ = kLine;
  strips_ = (h2_ + 1 + strip_ - 1) / strip_;
  row_fwd_.emplace(n2_, false);
  row_inv_.emplace(n2_, true);
  col_fwd_.emplace(n1_, false);
  col_inv_.emplace(n1_, true);

  tw1_.resize(n1_);
  for (int k = 0; k < n1_; ++k) {
    tw1_[k] = unitPhase<T>(-M_PI * k / (2.0 * n1_));
  }
  tw2_.resize(n2_);
  for (int k = 0; k < n2_; ++k) {
    tw2_[k] = unitPhase<T>(-M_PI * k / (2.0 * n2_));
  }
  reorder1_.resize(n1_);
  inv_reorder1_.resize(n1_);
  for (int t = 0; t < n1_; ++t) {
    reorder1_[t] = reorderIndex(t, n1_);
    inv_reorder1_[t] = inverseReorderIndex(t, n1_);
  }
  reorder2_.resize(n2_);
  for (int t = 0; t < n2_; ++t) {
    reorder2_[t] = reorderIndex(t, n2_);
  }

  spec_.resize(2 * static_cast<size_t>(n1_) * stride_ + kLine);
  zero_row_.assign(n2_, T(0));
  row_scratch_stride_ = roundToLine<std::complex<T>>(
      static_cast<size_t>(kRowBlock) *
      (h2_ + std::max(row_fwd_->halfScratchSize(),
                      row_inv_->halfScratchSize())));
  col_scratch_stride_ = roundToLine<std::complex<T>>(
      static_cast<size_t>(strip_) *
      (n1_ + std::max(col_fwd_->scratchSize(), col_inv_->scratchSize())));
  ensureScratch();
}

template <typename T>
void Dct2dPlan<T>::ensureScratch() {
  const int workers = currentThreadPool().threads();
  if (workers <= scratch_workers_) return;
  scratch_workers_ = workers;
  constexpr int kLine = lineElems<std::complex<T>>();
  row_ws_.resize(row_scratch_stride_ * workers + kLine);
  col_ws_.resize(col_scratch_stride_ * workers + kLine);
  trackWorkspace();
}

template <typename T>
void Dct2dPlan<T>::trackWorkspace() {
  const auto bytes = [](const auto& v) {
    return static_cast<std::int64_t>(
        v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  mem_.set(bytes(buf_a_) + bytes(buf_b_) + bytes(flip_) + bytes(zero_row_) +
           bytes(spec_) + bytes(row_ws_) + bytes(col_ws_) + bytes(tw1_) +
           bytes(tw2_) + bytes(reorder1_) + bytes(reorder2_) +
           bytes(inv_reorder1_));
}

template <typename T>
std::complex<T>* Dct2dPlan<T>::rowScratch(int worker) {
  return alignToLine(row_ws_.data()) + row_scratch_stride_ * worker;
}

template <typename T>
std::complex<T>* Dct2dPlan<T>::colScratch(int worker) {
  return alignToLine(col_ws_.data()) + col_scratch_stride_ * worker;
}

template <typename T>
std::complex<T>* Dct2dPlan<T>::spectrum(int field) {
  return alignToLine(spec_.data()) +
         static_cast<size_t>(field) * n1_ * stride_;
}

/// Row-column driver: transform dim1 (rows), transpose, transform dim0,
/// transpose back. Each block runs the row (or column) DctPlan on its
/// worker's scratch lane and writes straight into the plan's buffers.
template <typename T>
void Dct2dPlan<T>::rowColApply(const T* in, T* out, bool forward) {
  ensureScratch();
  const auto transform = forward ? &DctPlan<T>::dct : &DctPlan<T>::idct;
  parallelForBlocked("fft/rowcol_rows", n1_, 4,
                     [&](Index begin, Index end, int worker) {
                       for (Index i = begin; i < end; ++i) {
                         const size_t row = static_cast<size_t>(i) * n2_;
                         ((*row_dct_).*transform)(in + row,
                                                  buf_a_.data() + row,
                                                  rowScratch(worker));
                       }
                     });
  transposeBlocked(buf_a_.data(), buf_b_.data(), n1_, n2_);
  parallelForBlocked("fft/rowcol_cols", n2_, 4,
                     [&](Index begin, Index end, int worker) {
                       for (Index j = begin; j < end; ++j) {
                         const size_t col = static_cast<size_t>(j) * n1_;
                         ((*col_dct_).*transform)(buf_b_.data() + col,
                                                  buf_a_.data() + col,
                                                  colScratch(worker));
                       }
                     });
  transposeBlocked(buf_a_.data(), out, n2_, n1_);
}

/// Single-pass 2-D DCT via one 2-D real FFT (paper Algorithm 4 / Makhoul),
/// in three pool jobs:
///  1. rows: gather kRowBlock rows through the eq. (10) reorder maps into
///     the packed real-FFT layout and run their one-sided real FFTs along
///     dim1 as one batch;
///  2. columns: copy a strip of spectrum columns (whole cache lines of
///     every row) into worker scratch, run the complex FFTs along dim0 as
///     one batch, copy it back;
///  3. twiddle: the O(N^2) pass combining the spectrum with its conjugate
///     mirror, kRowBlock output rows per task, followed by `onRows`.
/// Only the one-sided half of dim1 is ever materialized, and every
/// twiddle comes from the plan tables.
template <typename T>
double Dct2dPlan<T>::forwardFft2d(const T* in, T* out,
                                  const RowHook* onRows) {
  ensureScratch();
  std::complex<T>* spec = spectrum(0);
  parallelForBlocked(
      "fft/rows", n1_, kRowBlock, [&](Index begin, Index end, int worker) {
        const int count = static_cast<int>(end - begin);
        std::complex<T>* z = rowScratch(worker);
        for (int r = 0; r < count; ++r) {
          const T* src = in + static_cast<size_t>(reorder1_[begin + r]) * n2_;
          for (int m = 0; m < h2_; ++m) {
            z[m * count + r] = std::complex<T>(src[reorder2_[2 * m]],
                                               src[reorder2_[2 * m + 1]]);
          }
        }
        row_fwd_->forwardPacked(z, count,
                                spec + static_cast<size_t>(begin) * stride_,
                                stride_, z + kRowBlock * h2_);
      });

  parallelForBlocked(
      "fft/cols", strips_, 1, [&](Index strip, Index, int worker) {
        const int first = static_cast<int>(strip) * strip_;
        const int count = std::min(strip_, h2_ + 1 - first);
        std::complex<T>* col = colScratch(worker);
        for (int t1 = 0; t1 < n1_; ++t1) {
          const std::complex<T>* row =
              spec + static_cast<size_t>(t1) * stride_ + first;
          std::copy(row, row + count, col + t1 * count);
        }
        col_fwd_->execute(col, count, count,
                          col + static_cast<size_t>(n1_) * strip_);
        for (int t1 = 0; t1 < n1_; ++t1) {
          std::copy(col + t1 * count, col + (t1 + 1) * count,
                    spec + static_cast<size_t>(t1) * stride_ + first);
        }
      });

  // Twiddle pass:
  //   X(k1,k2) = 1/2 Re(e^{-j a1 k1} (e^{-j a2 k2} A + e^{+j a2 k2} B))
  // with A = V(k1,k2), B = V(k1,(n2-k2) mod n2); the one-sided storage is
  // expanded through the Hermitian symmetry V(k1,k2) = conj(V((n1-k1)%n1,
  // n2-k2)).
  //
  // The complex products are spelled out as std::complex evaluates them,
  // (ar*br - ai*bi, ar*bi + ai*br) unfused, so the loops carry no branch.
  const auto twiddleRows = [&](Index begin, Index end) {
    for (Index k1 = begin; k1 < end; ++k1) {
      const int r1 = (n1_ - k1) % n1_;
      const T w1r = tw1_[k1].real();
      const T w1i = tw1_[k1].imag();
      const std::complex<T>* row_k = spec + static_cast<size_t>(k1) * stride_;
      const std::complex<T>* row_r = spec + static_cast<size_t>(r1) * stride_;
      T* dst = out + static_cast<size_t>(k1) * n2_;
      // a = V(k1,k2), b = conj(V(r1,k2)) for k2 <= h2; a = conj(V(r1,m2)),
      // b = V(k1,m2) with m2 = n2-k2 above.
      const auto combine = [&](int k2, T ar, T ai, T br, T bi) {
        const T w2r = tw2_[k2].real();
        const T w2i = tw2_[k2].imag();
        const T w2i_conj = -w2i;
        const T cr = (w2r * ar - w2i * ai) + (w2r * br - w2i_conj * bi);
        const T ci = (w2r * ai + w2i * ar) + (w2r * bi + w2i_conj * br);
        dst[k2] = T(0.5) * (w1r * cr - w1i * ci);
      };
      for (int k2 = 0; k2 <= h2_; ++k2) {
        combine(k2, row_k[k2].real(), row_k[k2].imag(), row_r[k2].real(),
                -row_r[k2].imag());
      }
      for (int k2 = h2_ + 1; k2 < n2_; ++k2) {
        const int m2 = n2_ - k2;
        combine(k2, row_r[m2].real(), -row_r[m2].imag(), row_k[m2].real(),
                row_k[m2].imag());
      }
    }
  };
  if (onRows == nullptr) {
    parallelForBlocked("fft/twiddle", n1_, kRowBlock,
                       [&](Index begin, Index end, int) {
                         twiddleRows(begin, end);
                       });
    return 0.0;
  }
  return parallelReduce(
      "fft/twiddle", n1_, kRowBlock, 0.0,
      [&](Index begin, Index end) {
        twiddleRows(begin, end);
        return (*onRows)(begin, end);
      },
      [](double acc, double partial) { return acc + partial; });
}

/// Single-pass 2-D IDCT via one 2-D inverse real FFT.
///
///   U(t1,t2) = e^{+j a1 t1} e^{+j a2 t2}
///              (c(t1,t2) - c(n1-t1,n2-t2) - j (c(t1,n2-t2) + c(n1-t1,t2)))
/// with out-of-range c treated as zero (paper eq. (12)); then a column-wise
/// inverse complex FFT, a row-wise inverse real FFT, the inverse reorder of
/// eq. (13), and the (n1/2)(n2/2) scale from the 1-D convention.
///
/// Two pool jobs for all `count` inverses: the column job builds U for a
/// strip of columns straight into worker scratch (its copy-in), runs the
/// inverse column FFTs as one batch and copies the strip into the
/// inverse's spectrum; the row job runs the inverse real FFTs of
/// kRowBlock spectrum rows as one batch and writes them through the
/// inverse reorder, scaled and signed, into the output rows.
///
/// `flip0`/`flip1` fuse the IDXST reductions: the eq. (14)/(16) input flip
/// is applied inside the gather (reading c'(i) = c(n-i), c'(0) = 0) and
/// the eq. (15)/(17) (-1)^k sign inside the output reorder, saving one
/// full-map copy and one full-map sign sweep per transform.
template <typename T>
void Dct2dPlan<T>::inverseFft2d(const Inverse* inverses, int count) {
  DP_ASSERT(count >= 1 && count <= 2);
  ensureScratch();
  parallelForBlocked(
      "fft/icols", static_cast<Index>(strips_) * count, 1,
      [&](Index task, Index, int worker) {
        const int field = static_cast<int>(task / strips_);
        const Inverse& inv = inverses[field];
        const int first = static_cast<int>(task % strips_) * strip_;
        const int width = std::min(strip_, h2_ + 1 - first);
        // c with zero padding at index n1 / n2 (not periodic wrap); under
        // a flip the zero also lands on index 0, matching z_0 = 0 in eq.
        // (8e). Row t1 of c reads input row `lo`, row n1-t1 input row
        // `hi` (zero_row_ for a padded row); along dim1 p(t2) = c(., t2)
        // and q(t2) = c(., n2-t2) are input columns t2 and n2-t2 (swapped
        // under flip1), both zero at t2 = 0 under flip1 and q there
        // without.
        const auto inputRow = [&](int i1) -> const T* {
          if (inv.flip0) {
            i1 = (i1 == 0 || i1 >= n1_) ? n1_ : n1_ - i1;
          }
          return i1 >= n1_ ? zero_row_.data()
                           : inv.in + static_cast<size_t>(i1) * n2_;
        };
        std::complex<T>* col = colScratch(worker);
        for (int t1 = 0; t1 < n1_; ++t1) {
          const T* lo = inputRow(t1);
          const T* hi = inputRow(n1_ - t1);
          // tw1 * tw2 * (re, im) with tw1 = conj(tw1_[t1]), tw2 =
          // conj(tw2_[t2]), spelled out as std::complex evaluates it.
          const T w1r = tw1_[t1].real();
          const T w1i = -tw1_[t1].imag();
          std::complex<T>* dst = col + t1 * width;
          const auto store = [&](int t2, T p_lo, T q_lo, T p_hi, T q_hi) {
            const T w2r = tw2_[t2].real();
            const T w2i = -tw2_[t2].imag();
            const T re = p_lo - q_hi;
            const T im = -(q_lo + p_hi);
            const T wr = w1r * w2r - w1i * w2i;
            const T wi = w1r * w2i + w1i * w2r;
            dst[t2 - first] =
                std::complex<T>(wr * re - wi * im, wr * im + wi * re);
          };
          int t2 = first;
          if (t2 == 0) {
            const T p_lo = inv.flip1 ? T(0) : lo[0];
            const T p_hi = inv.flip1 ? T(0) : hi[0];
            store(0, p_lo, T(0), p_hi, T(0));
            ++t2;
          }
          const int last = first + width;
          if (inv.flip1) {
            for (; t2 < last; ++t2) {
              store(t2, lo[n2_ - t2], lo[t2], hi[n2_ - t2], hi[t2]);
            }
          } else {
            for (; t2 < last; ++t2) {
              store(t2, lo[t2], lo[n2_ - t2], hi[t2], hi[n2_ - t2]);
            }
          }
        }
        col_inv_->execute(col, width, width,
                          col + static_cast<size_t>(n1_) * strip_);
        std::complex<T>* spec = spectrum(field);
        for (int t1 = 0; t1 < n1_; ++t1) {
          std::copy(col + t1 * width, col + (t1 + 1) * width,
                    spec + static_cast<size_t>(t1) * stride_ + first);
        }
      });

  const T scale = static_cast<T>(n1_) * static_cast<T>(n2_) / T(4);
  const Index row_blocks = (n1_ + kRowBlock - 1) / kRowBlock;
  parallelForBlocked(
      "fft/irows", row_blocks * count, 1, [&](Index task, Index, int worker) {
        const int field = static_cast<int>(task / row_blocks);
        const Inverse& inv = inverses[field];
        const int first = static_cast<int>(task % row_blocks) * kRowBlock;
        const int rows = std::min(kRowBlock, n1_ - first);
        const std::complex<T>* spec = spectrum(field);
        const std::complex<T>* src[kRowBlock];
        for (int r = 0; r < rows; ++r) {
          src[r] = spec + static_cast<size_t>(inv_reorder1_[first + r]) *
                              stride_;
        }
        std::complex<T>* z = rowScratch(worker);
        row_inv_->inversePacked(src, rows, z, z + kRowBlock * h2_);
        // Inverse reorder (eq. (13)), scale, and the fused (-1)^k signs:
        // output k2 = 2m is sample m, k2 = 2m+1 sample n2-1-m, and sample
        // j of row r is z[(j/2)*rows + r], real part for even j. The
        // flip1 sign rides in the odd outputs' scale: (-s)*x = -(s*x).
        for (int r = 0; r < rows; ++r) {
          const int k1 = first + r;
          const T row_scale = (inv.flip0 && (k1 & 1)) ? -scale : scale;
          const T odd_scale = inv.flip1 ? -row_scale : row_scale;
          const T* zr = reinterpret_cast<const T*>(z) + 2 * r;
          const auto sample = [&](int j) {
            return zr[static_cast<size_t>(j >> 1) * 2 * rows + (j & 1)];
          };
          T* dst = inv.out + static_cast<size_t>(k1) * n2_;
          for (int m = 0; m < h2_; ++m) {
            dst[2 * m] = row_scale * sample(m);
            dst[2 * m + 1] = odd_scale * sample(n2_ - 1 - m);
          }
        }
      });
}

template <typename T>
void Dct2dPlan<T>::dct2d(const T* in, T* out) {
  static Counter calls("fft/dct2d");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    forwardFft2d(in, out, nullptr);
  } else {
    rowColApply(in, out, /*forward=*/true);
  }
}

template <typename T>
double Dct2dPlan<T>::dct2d(const T* in, T* out, const RowHook& onRows) {
  static Counter calls("fft/dct2d");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    return forwardFft2d(in, out, &onRows);
  }
  rowColApply(in, out, /*forward=*/true);
  return parallelReduce(
      "fft/row_hook", n1_, kRowBlock, 0.0,
      [&](Index begin, Index end) { return onRows(begin, end); },
      [](double acc, double partial) { return acc + partial; });
}

template <typename T>
void Dct2dPlan<T>::idct2d(const T* in, T* out) {
  static Counter calls("fft/idct2d");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    const Inverse inverse{in, out, /*flip0=*/false, /*flip1=*/false};
    inverseFft2d(&inverse, 1);
  } else {
    rowColApply(in, out, /*forward=*/false);
  }
}

template <typename T>
void Dct2dPlan<T>::idctIdxst(const T* in, T* out) {
  static Counter calls("fft/idct_idxst");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    const Inverse inverse{in, out, /*flip0=*/false, /*flip1=*/true};
    inverseFft2d(&inverse, 1);
    return;
  }
  // Paper Alg. 4 IDCT_IDXST on the row-column baselines: flip dim1
  // (eq. (14)), 2-D IDCT, then apply (-1)^{k2} (eq. (15)).
  for (int i1 = 0; i1 < n1_; ++i1) {
    flip_[static_cast<size_t>(i1) * n2_] = T(0);
    for (int i2 = 1; i2 < n2_; ++i2) {
      flip_[static_cast<size_t>(i1) * n2_ + i2] =
          in[static_cast<size_t>(i1) * n2_ + (n2_ - i2)];
    }
  }
  idct2d(flip_.data(), out);
  for (int i1 = 0; i1 < n1_; ++i1) {
    for (int i2 = 1; i2 < n2_; i2 += 2) {
      out[static_cast<size_t>(i1) * n2_ + i2] =
          -out[static_cast<size_t>(i1) * n2_ + i2];
    }
  }
}

template <typename T>
void Dct2dPlan<T>::idxstIdct(const T* in, T* out) {
  static Counter calls("fft/idxst_idct");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    const Inverse inverse{in, out, /*flip0=*/true, /*flip1=*/false};
    inverseFft2d(&inverse, 1);
    return;
  }
  // Paper Alg. 4 IDXST_IDCT on the row-column baselines: flip dim0
  // (eq. (16)), 2-D IDCT, then apply (-1)^{k1} (eq. (17)).
  for (int i2 = 0; i2 < n2_; ++i2) {
    flip_[i2] = T(0);
  }
  for (int i1 = 1; i1 < n1_; ++i1) {
    for (int i2 = 0; i2 < n2_; ++i2) {
      flip_[static_cast<size_t>(i1) * n2_ + i2] =
          in[static_cast<size_t>(n1_ - i1) * n2_ + i2];
    }
  }
  idct2d(flip_.data(), out);
  for (int i1 = 1; i1 < n1_; i1 += 2) {
    for (int i2 = 0; i2 < n2_; ++i2) {
      out[static_cast<size_t>(i1) * n2_ + i2] =
          -out[static_cast<size_t>(i1) * n2_ + i2];
    }
  }
}

template <typename T>
void Dct2dPlan<T>::mixedInverses(const T* x_in, T* x_out, const T* y_in,
                                 T* y_out) {
  if (algo_ != Dct2dAlgorithm::kFft2dN) {
    idxstIdct(x_in, x_out);
    idctIdxst(y_in, y_out);
    return;
  }
  static Counter idxst_idct("fft/idxst_idct");
  static Counter idct_idxst("fft/idct_idxst");
  idxst_idct.add();
  idct_idxst.add();
  const Inverse inverses[2] = {{x_in, x_out, /*flip0=*/true, /*flip1=*/false},
                               {y_in, y_out, /*flip0=*/false, /*flip1=*/true}};
  inverseFft2d(inverses, 2);
}

template class Dct2dPlan<float>;
template class Dct2dPlan<double>;

}  // namespace dreamplace::fft
