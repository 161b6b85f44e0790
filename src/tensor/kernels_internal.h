#ifndef PROMPTEM_TENSOR_KERNELS_INTERNAL_H_
#define PROMPTEM_TENSOR_KERNELS_INTERNAL_H_

// Variant dispatch table shared by kernels.cc (scalar reference
// implementations + dispatch) and kernels_avx2.cc (the AVX2/FMA
// translation unit, compiled with -mavx2 -mfma when the toolchain
// supports it). Not installed with the public headers: everything here
// is an implementation detail of tensor/kernels.cc.
//
// Each entry is one whole-matrix or *row* primitive and runs on the
// calling thread. Every summation grouping is a pure function of the
// shape, so results are bitwise deterministic *within* a variant; the two
// variants differ from each other only by documented floating-point
// tolerance (FMA contraction and 8-lane reduction trees).

#include <cstdint>

#include "tensor/kernels.h"

namespace promptem::tensor::kernels::detail {

/// A GEMM over views with row strides (leading dimensions) lda/ldb/ldc.
using StridedGemmFn = void (*)(int m, int n, int k, float alpha,
                               const float* a, int lda, const float* b,
                               int ldb, float* c, int ldc);

struct KernelTable {
  KernelVariant variant;

  // GEMM entries: C += alpha * op(A) * op(B), beta applied by the caller.
  // Stored layouts are pre-transpose, as in kernels::Gemm. NT and TN each
  // have one kernel, which Gemm and GemmStrided share; NN has two, whose
  // k sums group differently; TT is one portable loop outside the table.

  /// Packed row-major A (m x k), B (k x n), C (m x n); k-panel tiled.
  /// Gemm's NN case.
  void (*gemm_nn)(int m, int n, int k, float alpha, const float* a,
                  const float* b, float* c);
  /// GemmStrided's NN case: A (m x k), B (k x n) with row strides.
  StridedGemmFn gemm_nn_strided;
  /// A (m x k), B stored (n x k).
  StridedGemmFn gemm_nt;
  /// A stored (k x m), B (k x n).
  StridedGemmFn gemm_tn;

  /// out[j] = exp(x[j] - m) for j in [0, n); returns sum_j out[j].
  /// x and out may alias elementwise.
  float (*exp_row_sum)(const float* x, float* out, int n, float m);
  /// Returns sum_j exp(x[j] - m) without writing.
  float (*sum_exp_row)(const float* x, int n, float m);
  /// max_j x[j] (n >= 1).
  float (*row_max)(const float* x, int n);
  /// One layer-norm row: out = gamma * (x - mu) * rstd + beta, writing the
  /// row's mean and reciprocal std.
  void (*layernorm_row)(const float* x, int n, const float* gamma,
                        const float* beta, float eps, float* out, float* mean,
                        float* rstd);
  /// out[j] = gelu(x[j]) for j in [0, n), tanh approximation; x and out
  /// may alias. Each value is a pure function of x[j] (never of j or n).
  void (*gelu_row)(const float* x, float* out, int64_t n);
  /// dx[j] += dout[j] * gelu'(x[j]) for j in [0, n).
  void (*gelu_grad_row)(const float* x, const float* dout, float* dx,
                        int64_t n);
};

/// The portable reference table (always available).
const KernelTable& ScalarTable();

#ifdef PROMPTEM_HAVE_AVX2
/// The AVX2/FMA table; only safe to call into when CpuSupportsAvx2().
const KernelTable& Avx2Table();
#endif

/// The table every kernel wrapper dispatches through.
const KernelTable& Active();

}  // namespace promptem::tensor::kernels::detail

#endif  // PROMPTEM_TENSOR_KERNELS_INTERNAL_H_
