// Parity and determinism coverage for the kernel-variant dispatch
// (tensor/kernels.h): the hand-written AVX2 micro-kernels against the
// portable scalar reference, the shared fast expf against libm, and
// pool-size bitwise determinism for every new kernel. AVX2-vs-scalar
// comparisons GTEST_SKIP on hardware without AVX2 (the scalar half still
// runs through the dispatch wrappers there).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hashing.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/kernels.h"

namespace promptem {
namespace {

namespace kernels = tensor::kernels;
using kernels::KernelVariant;
using kernels::ScopedKernelVariant;

/// Shapes that exercise every microtile tail at once: single row/col,
/// k = 1, primes, one-off-the-register-width, and multiples of the 4/8/16
/// blocking factors.
const int kShapeAxis[] = {1, 2, 3, 5, 8, 13, 16, 17, 31, 33};

std::vector<float> RandomVec(size_t n, core::Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng->Gaussian();
  return v;
}

bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Max |a-b| / max(1, |b|) over two buffers.
float MaxRelDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    const float denom = std::max(1.0f, std::fabs(b[i]));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / denom);
  }
  return worst;
}

TEST(FastExpfTest, MatchesLibmOnSoftmaxDomain) {
  // The post-max-subtraction domain every softmax feeds it, down to the
  // documented clamp at -80 (below it FastExpf intentionally returns
  // exp(-80) ~ 2e-35; see the EdgeCases test).
  float worst = 0.0f;
  for (float x = -80.0f; x <= 0.0f; x += 0.001f) {
    const float got = kernels::FastExpf(x);
    const float want = std::exp(x);
    const float rel = want > 0.0f ? std::fabs(got - want) / want : 0.0f;
    worst = std::max(worst, rel);
  }
  // The Cephes-style polynomial is good to ~1.2e-7 relative; allow a
  // whisker of slack for the clamp region.
  EXPECT_LE(worst, 2.0e-7f) << "worst relative error " << worst;
}

TEST(FastExpfTest, EdgeCases) {
  EXPECT_EQ(kernels::FastExpf(0.0f), 1.0f);
  // Deep negative clamps to exp(-80) instead of underflowing the 2^e trick.
  EXPECT_NEAR(kernels::FastExpf(-1000.0f), std::exp(-80.0f),
              std::exp(-80.0f) * 1e-5f);
  EXPECT_TRUE(std::isnan(kernels::FastExpf(
      std::numeric_limits<float>::quiet_NaN())));
  // Moderate positive arguments stay accurate (log-sum-exp headroom).
  EXPECT_NEAR(kernels::FastExpf(10.0f), std::exp(10.0f),
              std::exp(10.0f) * 2e-7f);
}

TEST(KernelDispatchTest, ScopedVariantSwitchesAndRestores) {
  const KernelVariant ambient = kernels::ActiveKernelVariant();
  {
    ScopedKernelVariant scalar(KernelVariant::kScalar);
    EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kScalar);
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      if (kernels::CpuSupportsAvx2()) {
        EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kAvx2);
      } else {
        EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kScalar);
      }
    }
    EXPECT_EQ(kernels::ActiveKernelVariant(), KernelVariant::kScalar);
  }
  EXPECT_EQ(kernels::ActiveKernelVariant(), ambient);
}

TEST(KernelDispatchTest, VariantNames) {
  EXPECT_STREQ(kernels::KernelVariantName(KernelVariant::kScalar), "scalar");
  EXPECT_STREQ(kernels::KernelVariantName(KernelVariant::kAvx2), "avx2");
}

/// Runs Gemm over the full transpose matrix of awkward shapes in both
/// variants and checks the AVX2 result against scalar to tolerance.
/// GEMM reassociates (FMA + 8-lane trees), so parity is relative, scaled
/// by k (the dot length).
TEST(GemmParityTest, Avx2MatchesScalarOnAwkwardShapes) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(42);
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (int m : kShapeAxis) {
        for (int n : kShapeAxis) {
          for (int k : kShapeAxis) {
            const auto a =
                RandomVec(static_cast<size_t>(m) * k, &rng);
            const auto b =
                RandomVec(static_cast<size_t>(k) * n, &rng);
            const auto c0 = RandomVec(static_cast<size_t>(m) * n, &rng);
            std::vector<float> c_scalar = c0;
            std::vector<float> c_avx2 = c0;
            {
              ScopedKernelVariant scalar(KernelVariant::kScalar);
              kernels::Gemm(trans_a, trans_b, m, n, k, 0.7f, a.data(),
                            b.data(), 0.3f, c_scalar.data());
            }
            {
              ScopedKernelVariant avx2(KernelVariant::kAvx2);
              kernels::Gemm(trans_a, trans_b, m, n, k, 0.7f, a.data(),
                            b.data(), 0.3f, c_avx2.data());
            }
            const float tol =
                1e-6f * static_cast<float>(k) + 1e-6f;
            EXPECT_LE(MaxRelDiff(c_avx2, c_scalar), tol)
                << "trans_a=" << trans_a << " trans_b=" << trans_b
                << " m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

/// GemmStrided with non-trivial leading dimensions (views into a wider
/// packed buffer — the fused-attention shape).
TEST(GemmParityTest, StridedAvx2MatchesScalar) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(7);
  const int pad = 5;
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (int m : {1, 3, 8, 17, 33}) {
        for (int n : {1, 2, 16, 31}) {
          for (int k : {1, 5, 8, 24}) {
            // Stored layouts are pre-transpose; pad every leading dim.
            const int a_rows = trans_a ? k : m;
            const int a_cols = trans_a ? m : k;
            const int b_rows = trans_b ? n : k;
            const int b_cols = trans_b ? k : n;
            const int lda = a_cols + pad;
            const int ldb = b_cols + pad;
            const int ldc = n + pad;
            const auto a =
                RandomVec(static_cast<size_t>(a_rows) * lda, &rng);
            const auto b =
                RandomVec(static_cast<size_t>(b_rows) * ldb, &rng);
            const auto c0 = RandomVec(static_cast<size_t>(m) * ldc, &rng);
            std::vector<float> c_scalar = c0;
            std::vector<float> c_avx2 = c0;
            {
              ScopedKernelVariant scalar(KernelVariant::kScalar);
              kernels::GemmStrided(trans_a, trans_b, m, n, k, 1.1f,
                                   a.data(), lda, b.data(), ldb, 0.5f,
                                   c_scalar.data(), ldc);
            }
            {
              ScopedKernelVariant avx2(KernelVariant::kAvx2);
              kernels::GemmStrided(trans_a, trans_b, m, n, k, 1.1f,
                                   a.data(), lda, b.data(), ldb, 0.5f,
                                   c_avx2.data(), ldc);
            }
            const float tol =
                1e-6f * static_cast<float>(k) + 1e-6f;
            EXPECT_LE(MaxRelDiff(c_avx2, c_scalar), tol)
                << "trans_a=" << trans_a << " trans_b=" << trans_b
                << " m=" << m << " n=" << n << " k=" << k;
            // Padding between rows must be untouched.
            for (int i = 0; i < m; ++i) {
              for (int p = n; p < ldc; ++p) {
                const size_t idx = static_cast<size_t>(i) * ldc + p;
                EXPECT_EQ(c_avx2[idx], c0[idx]);
              }
            }
          }
        }
      }
    }
  }
}

// The AVX2 kernels' scalar tails are plain multiply-adds, which the
// compiler may fuse into FMAs; sanitizer instrumentation changes which
// ones it fuses, so AVX2 bits are pinned in uninstrumented builds only
// (as in ScoringGoldenTest). The scalar table has nothing to fuse.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif

struct GemmShape {
  int m, n, k;
};

/// Every microtile tail (rows mod 2/4/8, columns mod 4/8/16, k mod 8) on
/// short dots, plus the k = 255/256/257 edge of NN's k panels.
std::vector<GemmShape> GoldenGemmShapes() {
  std::vector<GemmShape> shapes;
  const int kEdges[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 33};
  for (int m : kEdges) {
    for (int n : kEdges) {
      for (int k : {1, 2, 3, 7, 8, 9, 16, 17, 33}) shapes.push_back({m, n, k});
    }
  }
  for (int k : {255, 256, 257}) {
    for (int m : {1, 2, 3, 4, 5, 9}) {
      for (int n : {1, 4, 7, 8, 16, 17, 33}) shapes.push_back({m, n, k});
    }
  }
  return shapes;
}

/// A rows x cols matrix held twice: packed, and with kPad extra floats
/// per row holding `fill`.
struct GoldenOperand {
  static constexpr int kPad = 3;
  std::vector<float> packed, padded;
  int cols = 0;
  int ld() const { return cols + kPad; }
};

GoldenOperand MakeGoldenOperand(int rows, int cols, float fill,
                                core::Rng* rng) {
  GoldenOperand op;
  op.cols = cols;
  op.packed = RandomVec(static_cast<size_t>(rows) * cols, rng);
  op.padded.assign(static_cast<size_t>(rows) * op.ld(), fill);
  for (int r = 0; r < rows; ++r) {
    std::copy_n(op.packed.begin() + static_cast<int64_t>(r) * cols, cols,
                op.padded.begin() + static_cast<int64_t>(r) * op.ld());
  }
  return op;
}

/// Pinned FNV-1a digests of Gemm's and GemmStrided's outputs over
/// GoldenGemmShapes (beta 0 and 0.7) per transpose case and variant.
struct GemmGolden {
  bool trans_a, trans_b;
  uint64_t scalar_gemm, scalar_strided, avx2_gemm, avx2_strided;
};

constexpr GemmGolden kGemmGoldens[] = {
    {false, false, 7113716366550042368ull, 6661858239195919161ull,
     14779830438060808792ull, 17254647468902764166ull},
    {false, true, 4770824114905537801ull, 4770824114905537801ull,
     3832155454053778741ull, 3832155454053778741ull},
    {true, false, 7638541829153335799ull, 7638541829153335799ull,
     4297679196626216787ull, 4297679196626216787ull},
    // TT is one portable loop outside the kernel table: the AVX2 variant
    // gives the scalar bits, in every build.
    {true, true, 1151887796313091888ull, 1151887796313091888ull,
     1151887796313091888ull, 1151887796313091888ull},
};

// Pins every GEMM case of both entry points across commits, and the
// identities the kernel table relies on: Gemm equals GemmStrided bit for
// bit on NT, TN and TT (they share one loop per case), and GemmStrided
// over padded views equals it over packed buffers without reading A's or
// B's padding (NaN there would reach C) or writing C's.
TEST(GemmGoldenTest, DigestsPinnedAndStridedMatchesGemm) {
  const std::vector<GemmShape> shapes = GoldenGemmShapes();
  const float kCPadFill = 12345.0f;
  for (KernelVariant v : {KernelVariant::kScalar, KernelVariant::kAvx2}) {
    ScopedKernelVariant pin(v);
    const KernelVariant active = kernels::ActiveKernelVariant();
    SCOPED_TRACE(kernels::KernelVariantName(active));
    for (const GemmGolden& golden : kGemmGoldens) {
      const bool ta = golden.trans_a;
      const bool tb = golden.trans_b;
      SCOPED_TRACE("trans_a=" + std::to_string(ta) +
                   " trans_b=" + std::to_string(tb));
      core::Rng rng(2027);
      uint64_t gemm_digest = core::kFnv1aOffset;
      uint64_t strided_digest = core::kFnv1aOffset;
      int mismatches = 0;
      std::string first_mismatch;
      for (const GemmShape& s : shapes) {
        const GoldenOperand a = MakeGoldenOperand(
            ta ? s.k : s.m, ta ? s.m : s.k, std::nanf(""), &rng);
        const GoldenOperand b = MakeGoldenOperand(
            tb ? s.n : s.k, tb ? s.k : s.n, std::nanf(""), &rng);
        const GoldenOperand c0 = MakeGoldenOperand(s.m, s.n, kCPadFill, &rng);
        for (float beta : {0.0f, 0.7f}) {
          std::vector<float> c_gemm = c0.packed;
          kernels::Gemm(ta, tb, s.m, s.n, s.k, 1.3f, a.packed.data(),
                        b.packed.data(), beta, c_gemm.data());
          std::vector<float> c_strided = c0.packed;
          kernels::GemmStrided(ta, tb, s.m, s.n, s.k, 1.3f, a.packed.data(),
                               a.cols, b.packed.data(), b.cols, beta,
                               c_strided.data(), s.n);
          std::vector<float> c_padded = c0.padded;
          kernels::GemmStrided(ta, tb, s.m, s.n, s.k, 1.3f, a.padded.data(),
                               a.ld(), b.padded.data(), b.ld(), beta,
                               c_padded.data(), c0.ld());
          gemm_digest = core::Fnv1a64(
              c_gemm.data(), c_gemm.size() * sizeof(float), gemm_digest);
          strided_digest =
              core::Fnv1a64(c_strided.data(),
                            c_strided.size() * sizeof(float), strided_digest);
          std::vector<float> want_padded = c0.padded;
          for (int r = 0; r < s.m; ++r) {
            const int64_t from = static_cast<int64_t>(r) * s.n;
            const int64_t to = static_cast<int64_t>(r) * c0.ld();
            std::copy_n(c_strided.begin() + from, s.n,
                        want_padded.begin() + to);
          }
          const bool shared_loop = ta || tb;
          if (!BitsEqual(c_padded, want_padded) ||
              (shared_loop && !BitsEqual(c_gemm, c_strided))) {
            if (mismatches++ == 0) {
              first_mismatch = "m=" + std::to_string(s.m) +
                               " n=" + std::to_string(s.n) +
                               " k=" + std::to_string(s.k) +
                               " beta=" + std::to_string(beta);
            }
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << "first at " << first_mismatch;
      if (active == KernelVariant::kScalar) {
        EXPECT_EQ(gemm_digest, golden.scalar_gemm);
        EXPECT_EQ(strided_digest, golden.scalar_strided);
      } else if (!kSanitizerBuild || (ta && tb)) {
        EXPECT_EQ(gemm_digest, golden.avx2_gemm);
        EXPECT_EQ(strided_digest, golden.avx2_strided);
      }
    }
  }
}

TEST(RowKernelParityTest, SoftmaxVariantsAgree) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(3);
  for (int cols : kShapeAxis) {
    const int rows = 7;
    const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
    std::vector<float> y_scalar(x.size());
    std::vector<float> y_avx2(x.size());
    {
      ScopedKernelVariant scalar(KernelVariant::kScalar);
      kernels::SoftmaxRows(x.data(), rows, cols, y_scalar.data());
    }
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      kernels::SoftmaxRows(x.data(), rows, cols, y_avx2.data());
    }
    EXPECT_LE(MaxRelDiff(y_avx2, y_scalar), 1e-5f) << "cols=" << cols;
    // Each row still sums to 1 within float tolerance.
    for (int i = 0; i < rows; ++i) {
      float s = 0.0f;
      for (int j = 0; j < cols; ++j) {
        s += y_avx2[static_cast<size_t>(i) * cols + j];
      }
      EXPECT_NEAR(s, 1.0f, 1e-5f);
    }
  }
}

TEST(RowKernelParityTest, LogSoftmaxVariantsAgree) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(4);
  for (int cols : kShapeAxis) {
    const int rows = 5;
    const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
    std::vector<float> y_scalar(x.size());
    std::vector<float> y_avx2(x.size());
    {
      ScopedKernelVariant scalar(KernelVariant::kScalar);
      kernels::LogSoftmaxRows(x.data(), rows, cols, y_scalar.data());
    }
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      kernels::LogSoftmaxRows(x.data(), rows, cols, y_avx2.data());
    }
    EXPECT_LE(MaxRelDiff(y_avx2, y_scalar), 1e-5f) << "cols=" << cols;
  }
}

TEST(RowKernelParityTest, LayerNormVariantsAgree) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(5);
  for (int cols : kShapeAxis) {
    const int rows = 6;
    const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
    const auto gamma = RandomVec(cols, &rng);
    const auto beta = RandomVec(cols, &rng);
    std::vector<float> out_s(x.size()), out_v(x.size());
    std::vector<float> mean_s(rows), mean_v(rows);
    std::vector<float> rstd_s(rows), rstd_v(rows);
    {
      ScopedKernelVariant scalar(KernelVariant::kScalar);
      kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                                beta.data(), 1e-5f, out_s.data(),
                                mean_s.data(), rstd_s.data());
    }
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                                beta.data(), 1e-5f, out_v.data(),
                                mean_v.data(), rstd_v.data());
    }
    EXPECT_LE(MaxRelDiff(out_v, out_s), 1e-4f) << "cols=" << cols;
    EXPECT_LE(MaxRelDiff(mean_v, mean_s), 1e-5f);
    EXPECT_LE(MaxRelDiff(rstd_v, rstd_s), 1e-4f);
  }
}

/// GELU inputs over |x| <= 20: a dense grid (where the polynomial tanh
/// meets libm's), then the special values.
std::vector<float> GeluInputs() {
  std::vector<float> x;
  for (int i = -20000; i <= 20000; ++i) x.push_back(0.001f * i);
  const float inf = std::numeric_limits<float>::infinity();
  for (float v : {inf, -inf, std::numeric_limits<float>::quiet_NaN(), -0.0f,
                  1e-30f, -1e-30f}) {
    x.push_back(v);
  }
  return x;
}

/// Expects `got` (AVX2) to match `want` (scalar) within 1e-6, absolute
/// below magnitude 1 and relative above; NaN and infinities must match
/// exactly.
void ExpectGeluClose(const std::vector<float>& x, const std::vector<float>& got,
                     const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i]) || std::isinf(want[i])) {
      EXPECT_TRUE(std::isnan(want[i]) ? std::isnan(got[i])
                                      : got[i] == want[i])
          << "x=" << x[i] << " got " << got[i] << " want " << want[i];
      continue;
    }
    const float denom = std::max(1.0f, std::fabs(want[i]));
    EXPECT_LE(std::fabs(got[i] - want[i]) / denom, 1e-6f)
        << "x=" << x[i] << " got " << got[i] << " want " << want[i];
  }
}

/// gelu(x) and gelu'(x) (backward with dout = 1 into a zeroed dx) under
/// the active variant.
void GeluBoth(const std::vector<float>& x, std::vector<float>* value,
              std::vector<float>* slope) {
  const int64_t n = static_cast<int64_t>(x.size());
  value->assign(x.size(), 0.0f);
  slope->assign(x.size(), 0.0f);
  const std::vector<float> ones(x.size(), 1.0f);
  kernels::GeluForward(x.data(), value->data(), n);
  kernels::GeluBackward(x.data(), ones.data(), slope->data(), n);
}

TEST(GeluParityTest, Avx2MatchesScalarOverRangeAndSpecials) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const std::vector<float> x = GeluInputs();
  std::vector<float> value_s, slope_s, value_v, slope_v;
  {
    ScopedKernelVariant scalar(KernelVariant::kScalar);
    GeluBoth(x, &value_s, &slope_s);
  }
  {
    ScopedKernelVariant avx2(KernelVariant::kAvx2);
    GeluBoth(x, &value_v, &slope_v);
  }
  ExpectGeluClose(x, value_v, value_s);
  ExpectGeluClose(x, slope_v, slope_s);
}

TEST(GeluParityTest, EveryTailLengthMatchesScalarAndFullRow) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  core::Rng rng(7);
  // 5376 = one [84, 64] FFN activation of a scored pair.
  std::vector<float> full_x(5376);
  for (auto& v : full_x) v = 4.0f * rng.Gaussian();
  std::vector<float> full_value, full_slope;
  {
    ScopedKernelVariant avx2(KernelVariant::kAvx2);
    GeluBoth(full_x, &full_value, &full_slope);
  }
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(5376);
  for (int64_t n : lengths) {
    const std::vector<float> x(full_x.begin(), full_x.begin() + n);
    std::vector<float> value_s, slope_s, value_v, slope_v;
    {
      ScopedKernelVariant scalar(KernelVariant::kScalar);
      GeluBoth(x, &value_s, &slope_s);
    }
    {
      ScopedKernelVariant avx2(KernelVariant::kAvx2);
      GeluBoth(x, &value_v, &slope_v);
    }
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectGeluClose(x, value_v, value_s);
    ExpectGeluClose(x, slope_v, slope_s);
    // Masked tails run the same vector body: a value never depends on
    // where in a row its element sits.
    EXPECT_TRUE(BitsEqual(value_v, std::vector<float>(
                                       full_value.begin(),
                                       full_value.begin() + n)));
    EXPECT_TRUE(BitsEqual(slope_v, std::vector<float>(
                                       full_slope.begin(),
                                       full_slope.begin() + n)));
  }
}

TEST(GeluParityTest, BackwardAccumulatesIntoDx) {
  core::Rng rng(8);
  const int64_t n = 29;
  const auto x = RandomVec(static_cast<size_t>(n), &rng);
  const auto dout = RandomVec(static_cast<size_t>(n), &rng);
  const auto dx0 = RandomVec(static_cast<size_t>(n), &rng);
  for (KernelVariant variant : {KernelVariant::kScalar, KernelVariant::kAvx2}) {
    if (variant == KernelVariant::kAvx2 && !kernels::CpuSupportsAvx2()) {
      continue;
    }
    ScopedKernelVariant pin(variant);
    std::vector<float> value, slope;
    GeluBoth(x, &value, &slope);
    std::vector<float> dx = dx0;
    kernels::GeluBackward(x.data(), dout.data(), dx.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i);
      EXPECT_NEAR(dx[k], dx0[k] + dout[k] * slope[k], 1e-6f)
          << kernels::KernelVariantName(variant) << " i=" << i;
    }
  }
}

/// Every dispatched kernel must produce identical bits at any pool size
/// (kernels run on the calling thread, and every summation grouping is a
/// pure function of the shape). Run the pool sweep in whichever variant
/// is active *and* pinned scalar.
class PoolDeterminismTest
    : public ::testing::TestWithParam<KernelVariant> {};

TEST_P(PoolDeterminismTest, GemmAllTransposesStableAcrossPoolSizes) {
  if (GetParam() == KernelVariant::kAvx2 && !kernels::CpuSupportsAvx2()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  ScopedKernelVariant pin(GetParam());
  core::Rng rng(51);
  const int m = 67, n = 45, k = 33;
  const auto a = RandomVec(static_cast<size_t>(m) * k, &rng);
  const auto b = RandomVec(static_cast<size_t>(k) * n, &rng);
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      std::vector<float> reference;
      for (int threads : {1, 2, 4}) {
        const int saved = core::GetNumThreads();
        core::SetNumThreads(threads);
        std::vector<float> c(static_cast<size_t>(m) * n, 0.25f);
        kernels::Gemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(),
                      1.0f, c.data());
        core::SetNumThreads(saved);
        if (reference.empty()) {
          reference = c;
        } else {
          EXPECT_TRUE(BitsEqual(c, reference))
              << "trans_a=" << trans_a << " trans_b=" << trans_b
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST_P(PoolDeterminismTest, RowKernelsStableAcrossPoolSizes) {
  if (GetParam() == KernelVariant::kAvx2 && !kernels::CpuSupportsAvx2()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  ScopedKernelVariant pin(GetParam());
  core::Rng rng(61);
  const int rows = 129, cols = 37;
  const auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
  const auto gamma = RandomVec(cols, &rng);
  const auto beta = RandomVec(cols, &rng);
  const auto dout = RandomVec(x.size(), &rng);
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> sm_ref, lsm_ref, ln_ref, gelu_ref, dgelu_ref;
  for (int threads : {1, 2, 4}) {
    const int saved = core::GetNumThreads();
    core::SetNumThreads(threads);
    std::vector<float> sm(x.size()), lsm(x.size()), ln(x.size());
    std::vector<float> gelu(x.size()), dgelu(x.size(), 0.5f);
    std::vector<float> mean(rows), rstd(rows);
    kernels::SoftmaxRows(x.data(), rows, cols, sm.data());
    kernels::LogSoftmaxRows(x.data(), rows, cols, lsm.data());
    kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                              beta.data(), 1e-5f, ln.data(), mean.data(),
                              rstd.data());
    kernels::GeluForward(x.data(), gelu.data(), n);
    kernels::GeluBackward(x.data(), dout.data(), dgelu.data(), n);
    core::SetNumThreads(saved);
    if (sm_ref.empty()) {
      sm_ref = sm;
      lsm_ref = lsm;
      ln_ref = ln;
      gelu_ref = gelu;
      dgelu_ref = dgelu;
    } else {
      EXPECT_TRUE(BitsEqual(sm, sm_ref)) << "threads=" << threads;
      EXPECT_TRUE(BitsEqual(lsm, lsm_ref)) << "threads=" << threads;
      EXPECT_TRUE(BitsEqual(ln, ln_ref)) << "threads=" << threads;
      EXPECT_TRUE(BitsEqual(gelu, gelu_ref)) << "threads=" << threads;
      EXPECT_TRUE(BitsEqual(dgelu, dgelu_ref)) << "threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PoolDeterminismTest,
                         ::testing::Values(KernelVariant::kScalar,
                                           KernelVariant::kAvx2),
                         [](const auto& info) {
                           return std::string(
                               kernels::KernelVariantName(info.param));
                         });

}  // namespace
}  // namespace promptem
