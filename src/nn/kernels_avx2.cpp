// AVX2+FMA microkernels. This translation unit is the ONLY one compiled
// with -mavx2 -mfma; every entry point is reached strictly through the
// runtime dispatch in simd.cpp, so no AVX2 instruction executes on a host
// whose CPUID probe failed. Signatures are raw pointers on purpose: the TU
// must not instantiate inline code shared with baseline-ISA TUs (the
// linker could pick the AVX2-compiled copy and crash a non-AVX2 host).
//
// Numerical contract (DESIGN.md decision 14): every kernel accumulates
// each output element over k in the SAME strictly ascending order as its
// scalar counterpart. The only difference is FMA contraction — each
// `acc += a * b` becomes one correctly rounded fused step instead of two
// roundings — so |avx2 - scalar| is bounded by 2*k*u*sum|a*b| per element
// with no reassociation term, and results are identical across repeated
// runs and across the `_into` / live-rows / parallel / batched variants
// (they all funnel into these row kernels).
//
// Remainder columns (n % 4) use std::fma so the contracted
// rounding matches the vector lanes exactly; remainder rows reuse the
// one-row tile.
#include "nn/simd.hpp"

#if defined(CFGX_HAVE_AVX2_BUILD) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cmath>

namespace cfgx::detail {
namespace {

// out_row[j..j+4) = acc after folding a_row[k] * b[k][j..j+4) for all k in
// ascending order, seeded from the current out_row values. One register
// accumulator per output vector reproduces the scalar read-modify-write
// chain exactly: ((out0 + t0) + t1) + ... with each + t contracted to fma.
inline void matmul_one_row(const double* a_row, const double* b,
                           std::size_t n_cols, std::size_t k_total,
                           double* out_row) {
  std::size_t j = 0;
  for (; j + 8 <= n_cols; j += 8) {
    __m256d acc0 = _mm256_loadu_pd(out_row + j);
    __m256d acc1 = _mm256_loadu_pd(out_row + j + 4);
    const double* b_col = b + j;
    for (std::size_t k = 0; k < k_total; ++k, b_col += n_cols) {
      const __m256d aik = _mm256_set1_pd(a_row[k]);
      acc0 = _mm256_fmadd_pd(aik, _mm256_loadu_pd(b_col), acc0);
      acc1 = _mm256_fmadd_pd(aik, _mm256_loadu_pd(b_col + 4), acc1);
    }
    _mm256_storeu_pd(out_row + j, acc0);
    _mm256_storeu_pd(out_row + j + 4, acc1);
  }
  for (; j + 4 <= n_cols; j += 4) {
    __m256d acc = _mm256_loadu_pd(out_row + j);
    const double* b_col = b + j;
    for (std::size_t k = 0; k < k_total; ++k, b_col += n_cols) {
      acc = _mm256_fmadd_pd(_mm256_set1_pd(a_row[k]), _mm256_loadu_pd(b_col),
                            acc);
    }
    _mm256_storeu_pd(out_row + j, acc);
  }
  for (; j < n_cols; ++j) {
    double acc = out_row[j];
    const double* b_col = b + j;
    for (std::size_t k = 0; k < k_total; ++k, b_col += n_cols) {
      acc = std::fma(a_row[k], *b_col, acc);
    }
    out_row[j] = acc;
  }
}

// Two output rows share every B load (the same register-tiling idea as the
// scalar blocked kernel); per-element accumulation order is unchanged.
inline void matmul_two_rows(const double* a_row0, const double* a_row1,
                            const double* b, std::size_t n_cols,
                            std::size_t k_total, double* out_row0,
                            double* out_row1) {
  std::size_t j = 0;
  for (; j + 8 <= n_cols; j += 8) {
    __m256d acc00 = _mm256_loadu_pd(out_row0 + j);
    __m256d acc01 = _mm256_loadu_pd(out_row0 + j + 4);
    __m256d acc10 = _mm256_loadu_pd(out_row1 + j);
    __m256d acc11 = _mm256_loadu_pd(out_row1 + j + 4);
    const double* b_col = b + j;
    for (std::size_t k = 0; k < k_total; ++k, b_col += n_cols) {
      const __m256d b0 = _mm256_loadu_pd(b_col);
      const __m256d b1 = _mm256_loadu_pd(b_col + 4);
      const __m256d a0 = _mm256_set1_pd(a_row0[k]);
      const __m256d a1 = _mm256_set1_pd(a_row1[k]);
      acc00 = _mm256_fmadd_pd(a0, b0, acc00);
      acc01 = _mm256_fmadd_pd(a0, b1, acc01);
      acc10 = _mm256_fmadd_pd(a1, b0, acc10);
      acc11 = _mm256_fmadd_pd(a1, b1, acc11);
    }
    _mm256_storeu_pd(out_row0 + j, acc00);
    _mm256_storeu_pd(out_row0 + j + 4, acc01);
    _mm256_storeu_pd(out_row1 + j, acc10);
    _mm256_storeu_pd(out_row1 + j + 4, acc11);
  }
  for (; j + 4 <= n_cols; j += 4) {
    __m256d acc0 = _mm256_loadu_pd(out_row0 + j);
    __m256d acc1 = _mm256_loadu_pd(out_row1 + j);
    const double* b_col = b + j;
    for (std::size_t k = 0; k < k_total; ++k, b_col += n_cols) {
      const __m256d bv = _mm256_loadu_pd(b_col);
      acc0 = _mm256_fmadd_pd(_mm256_set1_pd(a_row0[k]), bv, acc0);
      acc1 = _mm256_fmadd_pd(_mm256_set1_pd(a_row1[k]), bv, acc1);
    }
    _mm256_storeu_pd(out_row0 + j, acc0);
    _mm256_storeu_pd(out_row1 + j, acc1);
  }
  for (; j < n_cols; ++j) {
    double acc0 = out_row0[j];
    double acc1 = out_row1[j];
    const double* b_col = b + j;
    for (std::size_t k = 0; k < k_total; ++k, b_col += n_cols) {
      acc0 = std::fma(a_row0[k], *b_col, acc0);
      acc1 = std::fma(a_row1[k], *b_col, acc1);
    }
    out_row0[j] = acc0;
    out_row1[j] = acc1;
  }
}

}  // namespace

void matmul_rows_avx2(const double* a, std::size_t a_cols, const double* b,
                      std::size_t n_cols, double* out, std::size_t row_begin,
                      std::size_t row_end) {
  std::size_t i = row_begin;
  for (; i + 2 <= row_end; i += 2) {
    matmul_two_rows(a + i * a_cols, a + (i + 1) * a_cols, b, n_cols, a_cols,
                    out + i * n_cols, out + (i + 1) * n_cols);
  }
  if (i < row_end) {
    matmul_one_row(a + i * a_cols, b, n_cols, a_cols, out + i * n_cols);
  }
}

void spmm_rows_avx2(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                    const double* values, const double* b, std::size_t n_cols,
                    double* out, std::size_t row_begin, std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double* out_row = out + i * n_cols;
    const std::size_t p_begin = row_ptr[i];
    const std::size_t p_end = row_ptr[i + 1];
    // A zero-nnz row contributes nothing: out already holds its seed.
    if (p_begin == p_end) continue;
    std::size_t j = 0;
    // 16-wide blocks (4 accumulators): one broadcast feeds 4 fmas per
    // nonzero, and the block loop runs n/16 times — at CFG density (~2
    // nnz/row) the loop + broadcast overhead, not the fmas, is the cost.
    for (; j + 16 <= n_cols; j += 16) {
      __m256d acc0 = _mm256_loadu_pd(out_row + j);
      __m256d acc1 = _mm256_loadu_pd(out_row + j + 4);
      __m256d acc2 = _mm256_loadu_pd(out_row + j + 8);
      __m256d acc3 = _mm256_loadu_pd(out_row + j + 12);
      for (std::size_t p = p_begin; p < p_end; ++p) {
        const double* b_row = b + col_idx[p] * n_cols + j;
        const __m256d v = _mm256_set1_pd(values[p]);
        acc0 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row), acc0);
        acc1 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 4), acc1);
        acc2 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 8), acc2);
        acc3 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 12), acc3);
      }
      _mm256_storeu_pd(out_row + j, acc0);
      _mm256_storeu_pd(out_row + j + 4, acc1);
      _mm256_storeu_pd(out_row + j + 8, acc2);
      _mm256_storeu_pd(out_row + j + 12, acc3);
    }
    for (; j + 8 <= n_cols; j += 8) {
      __m256d acc0 = _mm256_loadu_pd(out_row + j);
      __m256d acc1 = _mm256_loadu_pd(out_row + j + 4);
      for (std::size_t p = p_begin; p < p_end; ++p) {
        const double* b_row = b + col_idx[p] * n_cols + j;
        const __m256d v = _mm256_set1_pd(values[p]);
        acc0 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row), acc0);
        acc1 = _mm256_fmadd_pd(v, _mm256_loadu_pd(b_row + 4), acc1);
      }
      _mm256_storeu_pd(out_row + j, acc0);
      _mm256_storeu_pd(out_row + j + 4, acc1);
    }
    for (; j + 4 <= n_cols; j += 4) {
      __m256d acc = _mm256_loadu_pd(out_row + j);
      for (std::size_t p = p_begin; p < p_end; ++p) {
        acc = _mm256_fmadd_pd(_mm256_set1_pd(values[p]),
                              _mm256_loadu_pd(b + col_idx[p] * n_cols + j),
                              acc);
      }
      _mm256_storeu_pd(out_row + j, acc);
    }
    for (; j < n_cols; ++j) {
      double acc = out_row[j];
      for (std::size_t p = p_begin; p < p_end; ++p) {
        acc = std::fma(values[p], b[col_idx[p] * n_cols + j], acc);
      }
      out_row[j] = acc;
    }
  }
}

}  // namespace cfgx::detail

#else  // !CFGX_HAVE_AVX2_BUILD

// Stubs for builds without AVX2 support (non-x86 targets or a compiler
// lacking -mavx2 -mfma). simd::avx2_supported() is false in these builds,
// so dispatch can never reach them.
#include <cstdlib>

namespace cfgx::detail {

void matmul_rows_avx2(const double*, std::size_t, const double*, std::size_t,
                      double*, std::size_t, std::size_t) {
  std::abort();
}
void spmm_rows_avx2(const std::size_t*, const std::uint32_t*, const double*,
                    const double*, std::size_t, double*, std::size_t,
                    std::size_t) {
  std::abort();
}

}  // namespace cfgx::detail

#endif
