#include "tensor/kernels.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <algorithm>
#include <vector>

#include "tensor/kernels_internal.h"

namespace promptem::tensor::kernels {

namespace {

// Blocking constants. kKc is the k-panel depth (A/B panel rows stay in
// cache while a C block accumulates); kMr x kNr is the register microtile.
// Every summation grouping below is a pure function of the problem shape
// and these constants. Kernels run on the calling thread: the pool
// parallelizes across samples, one level up.
constexpr int kKc = 256;
constexpr int kMr = 4;
constexpr int kNr = 16;

/// C = beta * C for an m x n block with row stride ldc; beta == 0 clears
/// C, so stale NaN/Inf never reach the product.
void ScaleBlock(float* c, int m, int n, int ldc, float beta) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<int64_t>(i) * ldc;
    if (beta == 0.0f) {
      std::fill_n(crow, n, 0.0f);
    } else if (beta != 1.0f) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

/// C += alpha * A * B for row-major A (m x k) and B (k x n). Cache-tiled
/// over k (kKc panels) with a kMr x kNr register-blocked microkernel; per
/// (i, j) the k sum is grouped by panel.
void GemmNN(int m, int n, int k, float alpha, const float* a,
            const float* b, float* c) {
  for (int pc = 0; pc < k; pc += kKc) {
    const int pe = std::min(k, pc + kKc);
    int i = 0;
    for (; i + kMr <= m; i += kMr) {
      const float* a0 = a + static_cast<int64_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      int j = 0;
      for (; j + kNr <= n; j += kNr) {
        float acc0[kNr] = {0};
        float acc1[kNr] = {0};
        float acc2[kNr] = {0};
        float acc3[kNr] = {0};
        for (int p = pc; p < pe; ++p) {
          const float* bp = b + static_cast<int64_t>(p) * n + j;
          const float v0 = a0[p];
          const float v1 = a1[p];
          const float v2 = a2[p];
          const float v3 = a3[p];
          for (int jj = 0; jj < kNr; ++jj) {
            const float bv = bp[jj];
            acc0[jj] += v0 * bv;
            acc1[jj] += v1 * bv;
            acc2[jj] += v2 * bv;
            acc3[jj] += v3 * bv;
          }
        }
        float* c0 = c + static_cast<int64_t>(i) * n + j;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        for (int jj = 0; jj < kNr; ++jj) {
          c0[jj] += alpha * acc0[jj];
          c1[jj] += alpha * acc1[jj];
          c2[jj] += alpha * acc2[jj];
          c3[jj] += alpha * acc3[jj];
        }
      }
      // Ragged j tail.
      for (; j < n; ++j) {
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        for (int p = pc; p < pe; ++p) {
          const float bv = b[static_cast<int64_t>(p) * n + j];
          s0 += a0[p] * bv;
          s1 += a1[p] * bv;
          s2 += a2[p] * bv;
          s3 += a3[p] * bv;
        }
        c[static_cast<int64_t>(i) * n + j] += alpha * s0;
        c[static_cast<int64_t>(i + 1) * n + j] += alpha * s1;
        c[static_cast<int64_t>(i + 2) * n + j] += alpha * s2;
        c[static_cast<int64_t>(i + 3) * n + j] += alpha * s3;
      }
    }
    // Ragged row tail: one row at a time, same panel structure.
    for (; i < m; ++i) {
      const float* arow = a + static_cast<int64_t>(i) * k;
      float* crow = c + static_cast<int64_t>(i) * n;
      int j = 0;
      for (; j + kNr <= n; j += kNr) {
        float acc[kNr] = {0};
        for (int p = pc; p < pe; ++p) {
          const float* bp = b + static_cast<int64_t>(p) * n + j;
          const float av = arow[p];
          for (int jj = 0; jj < kNr; ++jj) acc[jj] += av * bp[jj];
        }
        for (int jj = 0; jj < kNr; ++jj) crow[j + jj] += alpha * acc[jj];
      }
      for (; j < n; ++j) {
        float s = 0.0f;
        for (int p = pc; p < pe; ++p) {
          s += arow[p] * b[static_cast<int64_t>(p) * n + j];
        }
        crow[j] += alpha * s;
      }
    }
  }
}

/// C += alpha * A * B over views with row strides lda/ldb/ldc: unit-stride
/// axpy into C's row, 4-way unrolled over p so each pass over C[i,:]
/// folds four B rows (short-n callers like attention's P.V with
/// n = head_dim would otherwise spend most of their time re-reading C).
void GemmNNStrided(int m, int n, int k, float alpha, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * lda;
    float* crow = c + static_cast<int64_t>(i) * ldc;
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = alpha * arow[p];
      const float a1 = alpha * arow[p + 1];
      const float a2 = alpha * arow[p + 2];
      const float a3 = alpha * arow[p + 3];
      const float* b0 = b + static_cast<int64_t>(p) * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      for (int j = 0; j < n; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; p < k; ++p) {
      const float av = alpha * arow[p];
      const float* brow = b + static_cast<int64_t>(p) * ldb;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C += alpha * A * B^T for A (m x k) and B stored (n x k), with row
/// strides lda/ldb/ldc: rows of dot products, 2 x 4 register blocking so
/// the k loop carries eight independent accumulator chains.
void GemmNT(int m, int n, int k, float alpha, const float* a, int lda,
            const float* b, int ldb, float* c, int ldc) {
  int i = 0;
  for (; i + 2 <= m; i += 2) {
    const float* a0 = a + static_cast<int64_t>(i) * lda;
    const float* a1 = a0 + lda;
    float* c0 = c + static_cast<int64_t>(i) * ldc;
    float* c1 = c0 + ldc;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + static_cast<int64_t>(j) * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      float s00 = 0.0f, s01 = 0.0f, s02 = 0.0f, s03 = 0.0f;
      float s10 = 0.0f, s11 = 0.0f, s12 = 0.0f, s13 = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float v0 = a0[p];
        const float v1 = a1[p];
        s00 += v0 * b0[p];
        s01 += v0 * b1[p];
        s02 += v0 * b2[p];
        s03 += v0 * b3[p];
        s10 += v1 * b0[p];
        s11 += v1 * b1[p];
        s12 += v1 * b2[p];
        s13 += v1 * b3[p];
      }
      c0[j] += alpha * s00;
      c0[j + 1] += alpha * s01;
      c0[j + 2] += alpha * s02;
      c0[j + 3] += alpha * s03;
      c1[j] += alpha * s10;
      c1[j + 1] += alpha * s11;
      c1[j + 2] += alpha * s12;
      c1[j + 3] += alpha * s13;
    }
    for (; j < n; ++j) {
      const float* bj = b + static_cast<int64_t>(j) * ldb;
      float s0 = 0.0f, s1 = 0.0f;
      for (int p = 0; p < k; ++p) {
        s0 += a0[p] * bj[p];
        s1 += a1[p] * bj[p];
      }
      c0[j] += alpha * s0;
      c1[j] += alpha * s1;
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * lda;
    float* crow = c + static_cast<int64_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      const float* bj = b + static_cast<int64_t>(j) * ldb;
      float s = 0.0f;
      for (int p = 0; p < k; ++p) s += arow[p] * bj[p];
      crow[j] += alpha * s;
    }
  }
}

/// C += alpha * A^T * B for A stored (k x m) and B (k x n), with row
/// strides lda/ldb/ldc. p-outer form: for each p, A's row p is unit-stride
/// over i and B's row p is broadcast across C's rows.
void GemmTN(int m, int n, int k, float alpha, const float* a, int lda,
            const float* b, int ldb, float* c, int ldc) {
  for (int p = 0; p < k; ++p) {
    const float* ap = a + static_cast<int64_t>(p) * lda;
    const float* bp = b + static_cast<int64_t>(p) * ldb;
    for (int i = 0; i < m; ++i) {
      const float av = alpha * ap[i];
      float* crow = c + static_cast<int64_t>(i) * ldc;
      for (int j = 0; j < n; ++j) crow[j] += av * bp[j];
    }
  }
}

/// C += alpha * A^T * B^T for A stored (k x m) and B (n x k), with row
/// strides lda/ldb/ldc. Not in the kernel table: no production path
/// multiplies two transposed operands (every MatMul passes trans_a =
/// false, and attention uses NN, NT and TN), so both variants run this
/// one indexed loop and agree bit for bit.
void GemmTT(int m, int n, int k, float alpha, const float* a, int lda,
            const float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<int64_t>(i) * ldc;
    for (int p = 0; p < k; ++p) {
      const float av = alpha * a[static_cast<int64_t>(p) * lda + i];
      for (int j = 0; j < n; ++j) {
        crow[j] += av * b[static_cast<int64_t>(j) * ldb + p];
      }
    }
  }
}

/// Scalar ExpRowSum: clamp pass, polynomial pass (both auto-vectorize —
/// the structure the fused-attention kernel always used), then a fixed
/// four-lane sum so the (deterministic) reduction is not one serial
/// dependency chain.
float ExpRowSumScalar(const float* x, float* out, int n, float m) {
  for (int j = 0; j < n; ++j) {
    const float v = x[j] - m;
    out[j] = v < -80.0f ? -80.0f : v;
  }
  for (int j = 0; j < n; ++j) {
    const float v = out[j];
    // e = round(v * log2 e). The +127.5 bias makes the truncating
    // float->int convert (one SSE2 lane op, unlike std::floor) a correct
    // floor(y + 0.5) for any in-range argument.
    const int e = static_cast<int>(v * 1.44269504089f + 127.5f) - 127;
    const float z = static_cast<float>(e);
    // Two-step Cody-Waite reduction keeps the remainder exact in float.
    float r = v - z * 0.693359375f;
    r -= z * -2.12194440e-4f;
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * r * r + r + 1.0f;
    out[j] = p * std::bit_cast<float>(static_cast<uint32_t>(e + 127) << 23);
  }
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    s0 += out[j];
    s1 += out[j + 1];
    s2 += out[j + 2];
    s3 += out[j + 3];
  }
  for (; j < n; ++j) s0 += out[j];
  return (s0 + s1) + (s2 + s3);
}

/// Scalar SumExpRow: same polynomial, no store (x stays intact, which is
/// what lets LogSoftmaxRows run with out aliasing x).
float SumExpRowScalar(const float* x, int n, float m) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    s0 += FastExpf(x[j] - m);
    s1 += FastExpf(x[j + 1] - m);
    s2 += FastExpf(x[j + 2] - m);
    s3 += FastExpf(x[j + 3] - m);
  }
  for (; j < n; ++j) s0 += FastExpf(x[j] - m);
  return (s0 + s1) + (s2 + s3);
}

float RowMaxScalar(const float* x, int n) {
  float mx = x[0];
  for (int j = 1; j < n; ++j) mx = std::max(mx, x[j]);
  return mx;
}

void LayerNormRowScalar(const float* x, int n, const float* gamma,
                        const float* beta, float eps, float* out, float* mean,
                        float* rstd) {
  float mu = 0.0f;
  for (int j = 0; j < n; ++j) mu += x[j];
  mu /= static_cast<float>(n);
  float var = 0.0f;
  for (int j = 0; j < n; ++j) {
    const float d = x[j] - mu;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float rs = 1.0f / std::sqrt(var + eps);
  *mean = mu;
  *rstd = rs;
  for (int j = 0; j < n; ++j) {
    out[j] = gamma[j] * (x[j] - mu) * rs + beta[j];
  }
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

/// Scalar GELU rows: the libm tanh formula the training golden file was
/// recorded with, kept bit for bit.
void GeluRowScalar(const float* x, float* out, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float v = x[j];
    const float inner = kGeluC * (v + 0.044715f * v * v * v);
    out[j] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void GeluGradRowScalar(const float* x, const float* dout, float* dx,
                       int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float v = x[j];
    const float x3 = v * v * v;
    const float inner = kGeluC * (v + 0.044715f * x3);
    const float t = std::tanh(inner);
    const float sech2 = 1.0f - t * t;
    const float grad =
        0.5f * (1.0f + t) +
        0.5f * v * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    dx[j] += dout[j] * grad;
  }
}

/// The table the dispatcher swaps in; initialized lazily so the env check
/// and CPUID run once. Benign init race: every thread resolves the same
/// pointer.
std::atomic<const detail::KernelTable*> g_active_table{nullptr};

const detail::KernelTable* DefaultTable() {
#ifdef PROMPTEM_HAVE_AVX2
  if (!ScalarForced() && CpuSupportsAvx2()) return &detail::Avx2Table();
#endif
  return &detail::ScalarTable();
}

}  // namespace

namespace detail {

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      KernelVariant::kScalar, GemmNN,          GemmNNStrided,
      GemmNT,                 GemmTN,          ExpRowSumScalar,
      SumExpRowScalar,        RowMaxScalar,    LayerNormRowScalar,
      GeluRowScalar,          GeluGradRowScalar,
  };
  return table;
}

const KernelTable& Active() {
  const KernelTable* t = g_active_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = DefaultTable();
    g_active_table.store(t, std::memory_order_release);
  }
  return *t;
}

}  // namespace detail

KernelVariant ActiveKernelVariant() { return detail::Active().variant; }

const char* KernelVariantName(KernelVariant v) {
  return v == KernelVariant::kAvx2 ? "avx2" : "scalar";
}

bool CpuSupportsAvx2() {
#ifdef PROMPTEM_HAVE_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool ScalarForced() {
  static const bool forced = [] {
    const char* env = std::getenv("PROMPTEM_FORCE_SCALAR");
    return env != nullptr && env[0] == '1';
  }();
  return forced;
}

ScopedKernelVariant::ScopedKernelVariant(KernelVariant v) {
  prev_ = &detail::Active();
  const detail::KernelTable* next = &detail::ScalarTable();
#ifdef PROMPTEM_HAVE_AVX2
  if (v == KernelVariant::kAvx2 && CpuSupportsAvx2()) {
    next = &detail::Avx2Table();
  }
#else
  (void)v;
#endif
  g_active_table.store(next, std::memory_order_release);
}

ScopedKernelVariant::~ScopedKernelVariant() {
  g_active_table.store(static_cast<const detail::KernelTable*>(prev_),
                       std::memory_order_release);
}

float FastExpf(float x) {
  const float v = x < -80.0f ? -80.0f : x;
  const int e = static_cast<int>(v * 1.44269504089f + 127.5f) - 127;
  const float z = static_cast<float>(e);
  float r = v - z * 0.693359375f;
  r -= z * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r * r + r + 1.0f;
  return p * std::bit_cast<float>(static_cast<uint32_t>(e + 127) << 23);
}

float ExpRowSum(const float* x, float* out, int n, float m) {
  return detail::Active().exp_row_sum(x, out, n, m);
}

float SumExpRow(const float* x, int n, float m) {
  return detail::Active().sum_exp_row(x, n, m);
}

void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  // NN is the one case with a kernel of its own: GemmStrided's axpy NN
  // groups the k sum differently, and every recorded golden holds the
  // panel-tiled bits. NT, TN and TT run GemmStrided's loops.
  if (!trans_a && !trans_b) {
    ScaleBlock(c, m, n, n, beta);
    detail::Active().gemm_nn(m, n, k, alpha, a, b, c);
    return;
  }
  GemmStrided(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
              trans_b ? k : n, beta, c, n);
}

void GemmStrided(bool trans_a, bool trans_b, int m, int n, int k,
                 float alpha, const float* a, int lda, const float* b,
                 int ldb, float beta, float* c, int ldc) {
  ScaleBlock(c, m, n, ldc, beta);
  const detail::KernelTable& kt = detail::Active();
  if (!trans_a && !trans_b) {
    kt.gemm_nn_strided(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else if (!trans_a) {
    kt.gemm_nt(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else if (!trans_b) {
    kt.gemm_tn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else {
    GemmTT(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  }
}

void CopyBlock(const float* src, int ld_src, float* dst, int ld_dst,
               int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* s = src + static_cast<int64_t>(i) * ld_src;
    float* d = dst + static_cast<int64_t>(i) * ld_dst;
    for (int j = 0; j < cols; ++j) d[j] = s[j];
  }
}

void AddBlock(const float* src, int ld_src, float* dst, int ld_dst,
              int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* s = src + static_cast<int64_t>(i) * ld_src;
    float* d = dst + static_cast<int64_t>(i) * ld_dst;
    for (int j = 0; j < cols; ++j) d[j] += s[j];
  }
}

void SoftmaxRows(const float* x, int rows, int cols, float* out) {
  const detail::KernelTable& kt = detail::Active();
  for (int64_t i = 0; i < rows; ++i) {
    const float* xi = x + i * cols;
    float* oi = out + i * cols;
    const float mx = kt.row_max(xi, cols);
    const float sum = kt.exp_row_sum(xi, oi, cols, mx);
    const float inv = 1.0f / sum;
    for (int j = 0; j < cols; ++j) oi[j] *= inv;
  }
}

void LogSoftmaxRows(const float* x, int rows, int cols, float* out) {
  const detail::KernelTable& kt = detail::Active();
  for (int64_t i = 0; i < rows; ++i) {
    const float* xi = x + i * cols;
    float* oi = out + i * cols;
    const float mx = kt.row_max(xi, cols);
    const float sum = kt.sum_exp_row(xi, cols, mx);
    const float lse = mx + std::log(sum);
    for (int j = 0; j < cols; ++j) oi[j] = xi[j] - lse;
  }
}

void LayerNormForward(const float* x, int rows, int cols, const float* gamma,
                      const float* beta, float eps, float* out, float* mean,
                      float* rstd) {
  const detail::KernelTable& kt = detail::Active();
  for (int64_t i = 0; i < rows; ++i) {
    kt.layernorm_row(x + i * cols, cols, gamma, beta, eps, out + i * cols,
                     mean + i, rstd + i);
  }
}

void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* dout, int rows,
                       int cols, float* dx, float* dgamma, float* dbeta) {
  // dgamma/dbeta sum over rows into a zeroed partial that is added to the
  // (possibly non-zero) accumulators once, so the grouping is the same
  // for every call: (sum of rows) + previous value.
  std::vector<float> partial(static_cast<size_t>(2) * cols, 0.0f);
  float* dgamma_p = partial.data();
  float* dbeta_p = dgamma_p + cols;
  const float inv_cols = 1.0f / static_cast<float>(cols);
  for (int64_t i = 0; i < rows; ++i) {
    const float* xi = x + i * cols;
    const float* doi = dout + i * cols;
    float* dxi = dx + i * cols;
    const float mu = mean[i];
    const float rs = rstd[i];
    // dL/dxhat_j = dout_j * gamma_j; with xhat = (x - mu) * rs:
    // dx = rs * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    float sum_dxhat = 0.0f;
    float sum_dxhat_xhat = 0.0f;
    for (int j = 0; j < cols; ++j) {
      const float xhat = (xi[j] - mu) * rs;
      const float dxhat = doi[j] * gamma[j];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat;
      dgamma_p[j] += doi[j] * xhat;
      dbeta_p[j] += doi[j];
    }
    for (int j = 0; j < cols; ++j) {
      const float xhat = (xi[j] - mu) * rs;
      const float dxhat = doi[j] * gamma[j];
      dxi[j] += rs * (dxhat - inv_cols * sum_dxhat -
                      xhat * inv_cols * sum_dxhat_xhat);
    }
  }
  for (int j = 0; j < cols; ++j) {
    dgamma[j] += dgamma_p[j];
    dbeta[j] += dbeta_p[j];
  }
}

void GeluForward(const float* x, float* out, int64_t n) {
  detail::Active().gelu_row(x, out, n);
}

void GeluBackward(const float* x, const float* dout, float* dx, int64_t n) {
  detail::Active().gelu_grad_row(x, dout, dx, n);
}

void AxpyOne(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

}  // namespace promptem::tensor::kernels
