#ifndef PROMPTEM_TENSOR_KERNELS_H_
#define PROMPTEM_TENSOR_KERNELS_H_

#include <cstdint>

namespace promptem::tensor::kernels {

/// Kernel implementation variants. kScalar is the portable reference
/// (auto-vectorized tiled loops); kAvx2 is the hand-written AVX2/FMA
/// micro-kernel set, selected at startup when CPUID reports AVX2+FMA.
/// Every kernel runs on the calling thread (the pool parallelizes across
/// samples, one level up), and its results are bitwise deterministic
/// *within* one variant; across variants they agree only to
/// floating-point tolerance (FMA contraction, 8-lane reduction trees,
/// GELU's polynomial tanh).
enum class KernelVariant { kScalar = 0, kAvx2 = 1 };

/// The variant every dispatched kernel currently runs.
KernelVariant ActiveKernelVariant();

/// "scalar" / "avx2".
const char* KernelVariantName(KernelVariant v);

/// True when this binary carries AVX2 kernels *and* the CPU reports
/// AVX2+FMA at runtime.
bool CpuSupportsAvx2();

/// True when PROMPTEM_FORCE_SCALAR=1 was set in the environment (the
/// supported way to pin the portable fallback for CI and A/B runs).
bool ScalarForced();

/// RAII override of the active variant, for parity tests and the
/// before/after benchmark pairs. Takes effect process-wide; do not
/// construct concurrently with kernel calls on other (non-pool) threads.
/// Requesting kAvx2 without CPU support falls back to kScalar.
class ScopedKernelVariant {
 public:
  explicit ScopedKernelVariant(KernelVariant v);
  ~ScopedKernelVariant();

  ScopedKernelVariant(const ScopedKernelVariant&) = delete;
  ScopedKernelVariant& operator=(const ScopedKernelVariant&) = delete;

 private:
  const void* prev_;
};

/// General matrix multiply: C = alpha * op(A) * op(B) + beta * C, where
/// op is optional transposition. op(A) is m x k, op(B) is k x n, C is m x n.
/// A and B are row-major with their *stored* (pre-transpose) layouts:
/// A is (m x k) when !trans_a, else (k x m); likewise for B.
/// NN is cache-tiled (k panels) with a register-blocked microkernel; the
/// other three cases are GemmStrided with natural leading dimensions, so
/// they equal it bit for bit. The k-summation grouping is a pure function
/// of the shape. NaN/Inf propagate from both operands (no data-dependent
/// skipping).
void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// Row-wise softmax with max subtraction: out[i,:] = softmax(x[i,:]).
/// x and out may alias.
void SoftmaxRows(const float* x, int rows, int cols, float* out);

/// Row-wise log-softmax. x and out may alias.
void LogSoftmaxRows(const float* x, int rows, int cols, float* out);

/// Layer normalization over the last dimension.
/// For each row i: out = gamma * (x - mean_i) / sqrt(var_i + eps) + beta.
/// Saves per-row mean and reciprocal std for the backward pass.
void LayerNormForward(const float* x, int rows, int cols, const float* gamma,
                      const float* beta, float eps, float* out, float* mean,
                      float* rstd);

/// Backward of LayerNormForward. Accumulates (+=) into dx, dgamma, dbeta.
/// dgamma/dbeta first sum every row into a zeroed buffer, which is then
/// added to them once.
void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* dout, int rows,
                       int cols, float* dx, float* dgamma, float* dbeta);

/// Strided general matrix multiply over views into packed buffers:
/// C = alpha * op(A) * op(B) + beta * C with explicit row strides
/// (leading dimensions) lda/ldb/ldc. op(A) is m x k, op(B) is k x n, C is
/// m x n; stored layouts are pre-transpose, as in Gemm. This is the
/// workhorse of the fused-attention backward, where per-head operands are
/// column blocks of packed [T, H*hd] buffers (stride = H*hd) and the
/// score-shaped factors are contiguous [T, T] scratch. NN is an axpy
/// unrolled over k, whose k sums group differently from Gemm's NN.
void GemmStrided(bool trans_a, bool trans_b, int m, int n, int k,
                 float alpha, const float* a, int lda, const float* b,
                 int ldb, float beta, float* c, int ldc);

/// The repo's one fast expf (Cephes-style: round to a multiple of ln 2,
/// degree-5 minimax polynomial on the remainder, 2^e through the exponent
/// bits). Relative error vs std::expf is ~1.2e-7 on the post-max-
/// subtraction domain every softmax feeds it (x <= 0); inputs below -80
/// clamp (exp(-80) ~ 2e-35) and NaN propagates. Valid up to ~+80 on the
/// positive side, but every in-repo caller subtracts the row max first.
float FastExpf(float x);

/// out[j] = exp(x[j] - m) for j in [0, n); returns sum_j out[j]. x and
/// out may alias elementwise (the streaming-softmax in-place case). The
/// summation grouping is a pure function of n.
float ExpRowSum(const float* x, float* out, int n, float m);

/// sum_j exp(x[j] - m) without writing the exponentials (log-softmax).
float SumExpRow(const float* x, int n, float m);

/// dst[i, 0:cols) = src[i, 0:cols) for rows rows, with row strides
/// ld_src / ld_dst. The view-based column-block copy behind ops::SliceCols.
void CopyBlock(const float* src, int ld_src, float* dst, int ld_dst,
               int rows, int cols);

/// dst[i, 0:cols) += src[i, 0:cols) with row strides (the scatter-add
/// backward of a column-block slice).
void AddBlock(const float* src, int ld_src, float* dst, int ld_dst,
              int rows, int cols);

/// Tanh-approximation GELU over n elements: out[j] = gelu(x[j]); x and
/// out may alias. The scalar variant is the libm-tanh reference; the AVX2
/// variant builds tanh(u) = 1 - 2 / (1 + e^{2u}) on the shared fast exp and
/// agrees with it to 1e-6 (absolute below 1, relative above). Each output
/// is a pure function of its input element, so results never depend on n
/// or alignment.
void GeluForward(const float* x, float* out, int64_t n);

/// GELU backward: dx[j] += dout[j] * gelu'(x[j]) for n elements.
void GeluBackward(const float* x, const float* dout, float* dx, int64_t n);

/// y += x for n elements.
void AxpyOne(const float* x, float* y, int64_t n);

}  // namespace promptem::tensor::kernels

#endif  // PROMPTEM_TENSOR_KERNELS_H_
