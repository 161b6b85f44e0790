// AVX2/FMA micro-kernels behind tensor/kernels.cc's dispatch table.
//
// This translation unit is the only one compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); it is entered exclusively through function
// pointers resolved after a CPUID check, so the binary still runs on
// pre-AVX2 hardware (and under PROMPTEM_FORCE_SCALAR=1, which pins the
// portable table). When the toolchain cannot target AVX2 the whole file
// compiles to nothing and dispatch never offers the variant.
//
// Determinism: every loop below is a pure function of the problem shape
// (tile walk order, reduction trees, and tails) and runs on the calling
// thread. Relative to the scalar variant the float kernels differ by FMA
// contraction, 8-lane reduction grouping and GELU's exp-based tanh
// (documented tolerance, see DESIGN.md).

#ifdef PROMPTEM_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/kernels_internal.h"

namespace promptem::tensor::kernels::detail {

namespace {

// Same blocking constants as the scalar tiles (kernels.cc): k panels of
// 256, 4 x 16 register microtile for the NN case.
constexpr int kKc = 256;

/// Horizontal sum of one __m256 (fixed tree: lanes pair up the same way
/// every call, keeping the reduction deterministic).
inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// 8-lane Cephes-style expf on v - m: the same clamp, Cody-Waite
/// reduction, and degree-5 minimax polynomial as kernels::FastExpf, with
/// the truncating convert matching the scalar float->int cast exactly.
inline __m256 ExpPs(__m256 x) {
  const __m256 clamp = _mm256_set1_ps(-80.0f);
  __m256 v = _mm256_max_ps(x, clamp);
  const __m256 log2e = _mm256_set1_ps(1.44269504089f);
  const __m256 bias = _mm256_set1_ps(127.5f);
  const __m256i e =
      _mm256_sub_epi32(_mm256_cvttps_epi32(_mm256_fmadd_ps(v, log2e, bias)),
                       _mm256_set1_epi32(127));
  const __m256 z = _mm256_cvtepi32_ps(e);
  __m256 r = _mm256_fnmadd_ps(z, _mm256_set1_ps(0.693359375f), v);
  r = _mm256_fnmadd_ps(z, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(_mm256_mul_ps(p, r), r, _mm256_add_ps(r,
                      _mm256_set1_ps(1.0f)));
  const __m256i pow2 = _mm256_slli_epi32(
      _mm256_add_epi32(e, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
}

// ---------------------------------------------------------------------------
// GEMM NN (Gemm's NN case): 4 x 16 microtile (8 FMA accumulators),
// k-panel outer loop.

void GemmNNAvx2(int m, int n, int k, float alpha, const float* a,
                const float* b, float* c) {
  const __m256 valpha = _mm256_set1_ps(alpha);
  for (int pc = 0; pc < k; pc += kKc) {
    const int pe = std::min(k, pc + kKc);
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + static_cast<int64_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      int j = 0;
      for (; j + 16 <= n; j += 16) {
        __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
        __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
        __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
        __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
        for (int p = pc; p < pe; ++p) {
          const float* bp = b + static_cast<int64_t>(p) * n + j;
          const __m256 b0 = _mm256_loadu_ps(bp);
          const __m256 b1 = _mm256_loadu_ps(bp + 8);
          __m256 v = _mm256_broadcast_ss(a0 + p);
          c00 = _mm256_fmadd_ps(v, b0, c00);
          c01 = _mm256_fmadd_ps(v, b1, c01);
          v = _mm256_broadcast_ss(a1 + p);
          c10 = _mm256_fmadd_ps(v, b0, c10);
          c11 = _mm256_fmadd_ps(v, b1, c11);
          v = _mm256_broadcast_ss(a2 + p);
          c20 = _mm256_fmadd_ps(v, b0, c20);
          c21 = _mm256_fmadd_ps(v, b1, c21);
          v = _mm256_broadcast_ss(a3 + p);
          c30 = _mm256_fmadd_ps(v, b0, c30);
          c31 = _mm256_fmadd_ps(v, b1, c31);
        }
        float* c0 = c + static_cast<int64_t>(i) * n + j;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        _mm256_storeu_ps(c0, _mm256_fmadd_ps(valpha, c00,
                                             _mm256_loadu_ps(c0)));
        _mm256_storeu_ps(c0 + 8, _mm256_fmadd_ps(valpha, c01,
                                                 _mm256_loadu_ps(c0 + 8)));
        _mm256_storeu_ps(c1, _mm256_fmadd_ps(valpha, c10,
                                             _mm256_loadu_ps(c1)));
        _mm256_storeu_ps(c1 + 8, _mm256_fmadd_ps(valpha, c11,
                                                 _mm256_loadu_ps(c1 + 8)));
        _mm256_storeu_ps(c2, _mm256_fmadd_ps(valpha, c20,
                                             _mm256_loadu_ps(c2)));
        _mm256_storeu_ps(c2 + 8, _mm256_fmadd_ps(valpha, c21,
                                                 _mm256_loadu_ps(c2 + 8)));
        _mm256_storeu_ps(c3, _mm256_fmadd_ps(valpha, c30,
                                             _mm256_loadu_ps(c3)));
        _mm256_storeu_ps(c3 + 8, _mm256_fmadd_ps(valpha, c31,
                                                 _mm256_loadu_ps(c3 + 8)));
      }
      // 8-wide j tail.
      for (; j + 8 <= n; j += 8) {
        __m256 c0v = _mm256_setzero_ps(), c1v = _mm256_setzero_ps();
        __m256 c2v = _mm256_setzero_ps(), c3v = _mm256_setzero_ps();
        for (int p = pc; p < pe; ++p) {
          const __m256 bv = _mm256_loadu_ps(b + static_cast<int64_t>(p) * n
                                            + j);
          c0v = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + p), bv, c0v);
          c1v = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + p), bv, c1v);
          c2v = _mm256_fmadd_ps(_mm256_broadcast_ss(a2 + p), bv, c2v);
          c3v = _mm256_fmadd_ps(_mm256_broadcast_ss(a3 + p), bv, c3v);
        }
        float* c0 = c + static_cast<int64_t>(i) * n + j;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        _mm256_storeu_ps(c0, _mm256_fmadd_ps(valpha, c0v,
                                             _mm256_loadu_ps(c0)));
        _mm256_storeu_ps(c1, _mm256_fmadd_ps(valpha, c1v,
                                             _mm256_loadu_ps(c1)));
        _mm256_storeu_ps(c2, _mm256_fmadd_ps(valpha, c2v,
                                             _mm256_loadu_ps(c2)));
        _mm256_storeu_ps(c3, _mm256_fmadd_ps(valpha, c3v,
                                             _mm256_loadu_ps(c3)));
      }
      // Scalar j tail.
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
    // Ragged row tail, one row at a time.
    for (; i < m; ++i) {
      const float* arow = a + static_cast<int64_t>(i) * k;
      float* crow = c + static_cast<int64_t>(i) * n;
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (int p = pc; p < pe; ++p) {
          acc = _mm256_fmadd_ps(
              _mm256_broadcast_ss(arow + p),
              _mm256_loadu_ps(b + static_cast<int64_t>(p) * n + j), acc);
        }
        _mm256_storeu_ps(crow + j, _mm256_fmadd_ps(valpha, acc,
                                                   _mm256_loadu_ps(crow + j)));
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

// ---------------------------------------------------------------------------
// GEMM NN over strided views (GemmStrided's NN case): axpy with a 4-way p
// unroll, crow += sum of four broadcast * B-row FMAs.

void GemmNNStridedAvx2(int m, int n, int k, float alpha, const float* a,
                       int lda, const float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * lda;
    float* crow = c + static_cast<int64_t>(i) * ldc;
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const __m256 a0 = _mm256_set1_ps(alpha * arow[p]);
      const __m256 a1 = _mm256_set1_ps(alpha * arow[p + 1]);
      const __m256 a2 = _mm256_set1_ps(alpha * arow[p + 2]);
      const __m256 a3 = _mm256_set1_ps(alpha * arow[p + 3]);
      const float* b0 = b + static_cast<int64_t>(p) * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256 acc = _mm256_loadu_ps(crow + j);
        acc = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0 + j), acc);
        acc = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b1 + j), acc);
        acc = _mm256_fmadd_ps(a2, _mm256_loadu_ps(b2 + j), acc);
        acc = _mm256_fmadd_ps(a3, _mm256_loadu_ps(b3 + j), acc);
        _mm256_storeu_ps(crow + j, acc);
      }
      const float f0 = alpha * arow[p];
      const float f1 = alpha * arow[p + 1];
      const float f2 = alpha * arow[p + 2];
      const float f3 = alpha * arow[p + 3];
      for (; j < n; ++j) {
        crow[j] += f0 * b0[j] + f1 * b1[j] + f2 * b2[j] + f3 * b3[j];
      }
    }
    for (; p < k; ++p) {
      const float av = alpha * arow[p];
      const __m256 vav = _mm256_set1_ps(av);
      const float* brow = b + static_cast<int64_t>(p) * ldb;
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(crow + j,
                         _mm256_fmadd_ps(vav, _mm256_loadu_ps(brow + j),
                                         _mm256_loadu_ps(crow + j)));
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// GEMM NT: 2 x 4 dot-product block, 8-lane accumulators over k.

void GemmNTAvx2(int m, int n, int k, float alpha, const float* a, int lda,
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
      __m256 s00 = _mm256_setzero_ps(), s01 = _mm256_setzero_ps();
      __m256 s02 = _mm256_setzero_ps(), s03 = _mm256_setzero_ps();
      __m256 s10 = _mm256_setzero_ps(), s11 = _mm256_setzero_ps();
      __m256 s12 = _mm256_setzero_ps(), s13 = _mm256_setzero_ps();
      int p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m256 v0 = _mm256_loadu_ps(a0 + p);
        const __m256 v1 = _mm256_loadu_ps(a1 + p);
        const __m256 w0 = _mm256_loadu_ps(b0 + p);
        const __m256 w1 = _mm256_loadu_ps(b1 + p);
        const __m256 w2 = _mm256_loadu_ps(b2 + p);
        const __m256 w3 = _mm256_loadu_ps(b3 + p);
        s00 = _mm256_fmadd_ps(v0, w0, s00);
        s01 = _mm256_fmadd_ps(v0, w1, s01);
        s02 = _mm256_fmadd_ps(v0, w2, s02);
        s03 = _mm256_fmadd_ps(v0, w3, s03);
        s10 = _mm256_fmadd_ps(v1, w0, s10);
        s11 = _mm256_fmadd_ps(v1, w1, s11);
        s12 = _mm256_fmadd_ps(v1, w2, s12);
        s13 = _mm256_fmadd_ps(v1, w3, s13);
      }
      float t00 = HSum(s00), t01 = HSum(s01), t02 = HSum(s02),
            t03 = HSum(s03);
      float t10 = HSum(s10), t11 = HSum(s11), t12 = HSum(s12),
            t13 = HSum(s13);
      for (; p < k; ++p) {
        const float v0 = a0[p];
        const float v1 = a1[p];
        t00 += v0 * b0[p];
        t01 += v0 * b1[p];
        t02 += v0 * b2[p];
        t03 += v0 * b3[p];
        t10 += v1 * b0[p];
        t11 += v1 * b1[p];
        t12 += v1 * b2[p];
        t13 += v1 * b3[p];
      }
      c0[j] += alpha * t00;
      c0[j + 1] += alpha * t01;
      c0[j + 2] += alpha * t02;
      c0[j + 3] += alpha * t03;
      c1[j] += alpha * t10;
      c1[j + 1] += alpha * t11;
      c1[j + 2] += alpha * t12;
      c1[j + 3] += alpha * t13;
    }
    for (; j < n; ++j) {
      const float* bj = b + static_cast<int64_t>(j) * ldb;
      __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
      int p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m256 w = _mm256_loadu_ps(bj + p);
        s0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + p), w, s0);
        s1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + p), w, s1);
      }
      float t0 = HSum(s0), t1 = HSum(s1);
      for (; p < k; ++p) {
        t0 += a0[p] * bj[p];
        t1 += a1[p] * bj[p];
      }
      c0[j] += alpha * t0;
      c1[j] += alpha * t1;
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * lda;
    float* crow = c + static_cast<int64_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      const float* bj = b + static_cast<int64_t>(j) * ldb;
      __m256 s = _mm256_setzero_ps();
      int p = 0;
      for (; p + 8 <= k; p += 8) {
        s = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                            _mm256_loadu_ps(bj + p), s);
      }
      float t = HSum(s);
      for (; p < k; ++p) t += arow[p] * bj[p];
      crow[j] += alpha * t;
    }
  }
}

// ---------------------------------------------------------------------------
// GEMM TN: p-outer axpy — broadcast A^T[i, p], stream B's row p.

void GemmTNAvx2(int m, int n, int k, float alpha, const float* a, int lda,
                const float* b, int ldb, float* c, int ldc) {
  for (int p = 0; p < k; ++p) {
    const float* ap = a + static_cast<int64_t>(p) * lda;
    const float* bp = b + static_cast<int64_t>(p) * ldb;
    for (int i = 0; i < m; ++i) {
      const float av = alpha * ap[i];
      const __m256 vav = _mm256_set1_ps(av);
      float* crow = c + static_cast<int64_t>(i) * ldc;
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(crow + j,
                         _mm256_fmadd_ps(vav, _mm256_loadu_ps(bp + j),
                                         _mm256_loadu_ps(crow + j)));
      }
      for (; j < n; ++j) crow[j] += av * bp[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Row primitives.

float ExpRowSumAvx2(const float* x, float* out, int n, float m) {
  const __m256 vm = _mm256_set1_ps(m);
  __m256 vsum = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 e = ExpPs(_mm256_sub_ps(_mm256_loadu_ps(x + j), vm));
    _mm256_storeu_ps(out + j, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = HSum(vsum);
  for (; j < n; ++j) {
    const float e = FastExpf(x[j] - m);
    out[j] = e;
    sum += e;
  }
  return sum;
}

float SumExpRowAvx2(const float* x, int n, float m) {
  const __m256 vm = _mm256_set1_ps(m);
  __m256 vsum = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    vsum = _mm256_add_ps(vsum,
                         ExpPs(_mm256_sub_ps(_mm256_loadu_ps(x + j), vm)));
  }
  float sum = HSum(vsum);
  for (; j < n; ++j) sum += FastExpf(x[j] - m);
  return sum;
}

float RowMaxAvx2(const float* x, int n) {
  int j = 0;
  float mx;
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(x);
    for (j = 8; j + 8 <= n; j += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + j));
    }
    const __m128 lo = _mm256_castps256_ps128(vmax);
    const __m128 hi = _mm256_extractf128_ps(vmax, 1);
    __m128 s = _mm_max_ps(lo, hi);
    s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
    mx = _mm_cvtss_f32(s);
  } else {
    mx = x[0];
    j = 1;
  }
  for (; j < n; ++j) mx = std::max(mx, x[j]);
  return mx;
}

void LayerNormRowAvx2(const float* x, int n, const float* gamma,
                      const float* beta, float eps, float* out, float* mean,
                      float* rstd) {
  __m256 vsum = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(x + j));
  }
  float mu = HSum(vsum);
  for (; j < n; ++j) mu += x[j];
  mu /= static_cast<float>(n);

  const __m256 vmu = _mm256_set1_ps(mu);
  __m256 vvar = _mm256_setzero_ps();
  j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x + j), vmu);
    vvar = _mm256_fmadd_ps(d, d, vvar);
  }
  float var = HSum(vvar);
  for (; j < n; ++j) {
    const float d = x[j] - mu;
    var += d * d;
  }
  var /= static_cast<float>(n);

  const float rs = 1.0f / std::sqrt(var + eps);
  *mean = mu;
  *rstd = rs;
  const __m256 vrs = _mm256_set1_ps(rs);
  j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + j), vmu), vrs);
    _mm256_storeu_ps(out + j,
                     _mm256_fmadd_ps(_mm256_loadu_ps(gamma + j), xhat,
                                     _mm256_loadu_ps(beta + j)));
  }
  for (; j < n; ++j) {
    out[j] = gamma[j] * (x[j] - mu) * rs + beta[j];
  }
}

// ---------------------------------------------------------------------------
// GELU (tanh approximation) with tanh(u) = 1 - 2 / (1 + e^{2u}) on ExpPs.
// A row's n % 8 tail goes through the same vector body under a lane mask,
// so each output is a pure function of its input element.

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

/// Lane mask selecting the first r (0 < r < 8) lanes.
inline __m256i TailMask(int64_t r) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// 2u = 2 sqrt(2/pi) (x + 0.044715 x^3), the argument of e^{2u}.
inline __m256 GeluTwoU(__m256 x) {
  const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
  return _mm256_mul_ps(_mm256_set1_ps(2.0f * kGeluC),
                       _mm256_fmadd_ps(_mm256_set1_ps(kGeluA), x3, x));
}

/// r = 1 / (1 + e^{2u}), so tanh(u) = 1 - 2r. 2u clamps at 80 so e^{2u}
/// stays finite (ExpPs clamps the low side at -80); minps returns its
/// second operand when either is NaN. NaN inputs stay NaN through the
/// callers' multiplies by x.
inline __m256 GeluRecip(__m256 two_u, __m256* e) {
  const __m256 one = _mm256_set1_ps(1.0f);
  *e = ExpPs(_mm256_min_ps(_mm256_set1_ps(80.0f), two_u));
  return _mm256_div_ps(one, _mm256_add_ps(one, *e));
}

/// 0.5 x (1 + t).
inline __m256 GeluPs(__m256 x) {
  __m256 e;
  const __m256 r = GeluRecip(GeluTwoU(x), &e);
  const __m256 t = _mm256_fnmadd_ps(_mm256_set1_ps(2.0f), r,
                                    _mm256_set1_ps(1.0f));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), t));
}

/// dx + dout * [0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3a x^2)].
inline __m256 GeluGradAccPs(__m256 x, __m256 dout, __m256 dx) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 two_u = GeluTwoU(x);
  __m256 e;
  const __m256 r = GeluRecip(two_u, &e);
  const __m256 t = _mm256_fnmadd_ps(_mm256_set1_ps(2.0f), r, one);
  // 1 - t^2 = 4 e r^2, free of the cancellation 1 - t * t suffers as
  // |t| -> 1. Zero once |2u| reaches the clamp (the true value is below
  // 1e-34 there), so x = +-inf gives inf * 0 = NaN as the scalar formula
  // does.
  const __m256 abs_two_u =
      _mm256_andnot_ps(_mm256_set1_ps(-0.0f), two_u);
  const __m256 in_range =
      _mm256_cmp_ps(abs_two_u, _mm256_set1_ps(80.0f), _CMP_LT_OQ);
  const __m256 sech2 = _mm256_and_ps(
      in_range,
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(4.0f), e),
                    _mm256_mul_ps(r, r)));
  const __m256 poly = _mm256_fmadd_ps(_mm256_set1_ps(3.0f * kGeluA),
                                      _mm256_mul_ps(x, x), one);
  const __m256 slope = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(half, x), sech2),
      _mm256_mul_ps(_mm256_set1_ps(kGeluC), poly));
  const __m256 grad = _mm256_fmadd_ps(half, _mm256_add_ps(one, t), slope);
  return _mm256_fmadd_ps(dout, grad, dx);
}

void GeluRowAvx2(const float* x, float* out, int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(out + j, GeluPs(_mm256_loadu_ps(x + j)));
  }
  if (j < n) {
    const __m256i mask = TailMask(n - j);
    _mm256_maskstore_ps(out + j, mask,
                        GeluPs(_mm256_maskload_ps(x + j, mask)));
  }
}

void GeluGradRowAvx2(const float* x, const float* dout, float* dx,
                     int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(dx + j, GeluGradAccPs(_mm256_loadu_ps(x + j),
                                           _mm256_loadu_ps(dout + j),
                                           _mm256_loadu_ps(dx + j)));
  }
  if (j < n) {
    const __m256i mask = TailMask(n - j);
    _mm256_maskstore_ps(dx + j, mask,
                        GeluGradAccPs(_mm256_maskload_ps(x + j, mask),
                                      _mm256_maskload_ps(dout + j, mask),
                                      _mm256_maskload_ps(dx + j, mask)));
  }
}

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      KernelVariant::kAvx2, GemmNNAvx2,      GemmNNStridedAvx2,
      GemmNTAvx2,           GemmTNAvx2,      ExpRowSumAvx2,
      SumExpRowAvx2,        RowMaxAvx2,      LayerNormRowAvx2,
      GeluRowAvx2,          GeluGradRowAvx2,
  };
  return table;
}

}  // namespace promptem::tensor::kernels::detail

#endif  // PROMPTEM_HAVE_AVX2
