// Tests for the fused scaled-dot-product attention kernel and the
// strided-view machinery behind it: fused-vs-reference forward parity,
// gradient parity for every projection and the input, dropout mask
// parity across paths, the train/eval x grad/no-grad matrix, run-to-run
// determinism under ParallelFor, SliceCols vs SelectCols bitwise
// identity (the LSTM gate slicing contract), and GemmStrided vs Gemm.
//
// Runs under both sanitizer wirings: label "tsan" exercises the
// (head, row-tile) ParallelFor decomposition, label "asan" the
// arena-backed graph-free path.

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "nn/attention.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace promptem {
namespace {

namespace ops = tensor::ops;
using tensor::Tensor;

struct ScopedPoolSize {
  explicit ScopedPoolSize(int n) { core::SetNumThreads(n); }
  ~ScopedPoolSize() { core::SetNumThreads(0); }
};

Tensor RandomTensor(std::vector<int> shape, uint64_t seed,
                    bool requires_grad = false) {
  core::Rng rng(seed);
  Tensor t = Tensor::Zeros(std::move(shape), requires_grad);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.Gaussian();
  }
  return t;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

float MaxAbsDiff(const float* a, const float* b, int64_t n) {
  float worst = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

/// The unfused per-op reference composition over leaf q/k/v tensors.
Tensor ReferenceSdpa(const Tensor& q, const Tensor& k, const Tensor& v,
                     int num_heads, float scale, float dropout_p,
                     core::Rng* rng) {
  const int d = q.dim(1);
  const int hd = d / num_heads;
  std::vector<Tensor> heads;
  for (int h = 0; h < num_heads; ++h) {
    std::vector<int> cols(hd);
    for (int c = 0; c < hd; ++c) cols[c] = h * hd + c;
    Tensor qh = ops::SelectCols(q, cols);
    Tensor kh = ops::SelectCols(k, cols);
    Tensor vh = ops::SelectCols(v, cols);
    Tensor attn =
        ops::Softmax(ops::Scale(ops::MatMul(qh, kh, false, true), scale));
    if (dropout_p > 0.0f) attn = ops::Dropout(attn, dropout_p, rng);
    heads.push_back(ops::MatMul(attn, vh));
  }
  return ops::ConcatCols(heads);
}

/// The per-op composition MultiHeadSelfAttention ran before fusion, built
/// from the module's own parameters (so gradients land on them too): the
/// parity reference for its fused forward. A DropoutLayer in the module's
/// mode draws from `rng` exactly as the module's own dropout does.
Tensor ReferenceAttention(const nn::MultiHeadSelfAttention& attn,
                          const Tensor& x, float dropout_p, core::Rng* rng) {
  std::map<std::string, Tensor> params;
  for (const auto& np : attn.NamedParameters()) {
    params.emplace(np.name, np.param);
  }
  const auto linear = [&params](const std::string& name, const Tensor& in) {
    return ops::AddBias(
        ops::MatMul(in, params.at(name + ".weight"), false, true),
        params.at(name + ".bias"));
  };
  nn::DropoutLayer dropout(dropout_p);
  dropout.SetTraining(attn.training());
  const int hd = x.dim(1) / attn.num_heads();
  const Tensor q = linear("wq", x);
  const Tensor k = linear("wk", x);
  const Tensor v = linear("wv", x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<Tensor> heads;
  for (int h = 0; h < attn.num_heads(); ++h) {
    std::vector<int> cols(hd);
    for (int c = 0; c < hd; ++c) cols[c] = h * hd + c;
    const Tensor qh = ops::SelectCols(q, cols);
    const Tensor kh = ops::SelectCols(k, cols);
    const Tensor vh = ops::SelectCols(v, cols);
    Tensor weights =
        ops::Softmax(ops::Scale(ops::MatMul(qh, kh, false, true), scale));
    weights = dropout.Forward(weights, rng);
    heads.push_back(ops::MatMul(weights, vh));
  }
  return linear("wo", ops::ConcatCols(heads));
}

TEST(GemmStridedTest, MatchesGemmOnAllTransposeCombos) {
  const int m = 7, n = 5, k = 9;
  Tensor a = RandomTensor({m, k}, 1);
  Tensor at = RandomTensor({k, m}, 2);
  Tensor b = RandomTensor({k, n}, 3);
  Tensor bt = RandomTensor({n, k}, 4);
  for (int ta = 0; ta < 2; ++ta) {
    for (int tb = 0; tb < 2; ++tb) {
      const float* pa = ta ? at.data() : a.data();
      const float* pb = tb ? bt.data() : b.data();
      const int lda = ta ? m : k;
      const int ldb = tb ? k : n;
      std::vector<float> want(static_cast<size_t>(m) * n, 0.5f);
      std::vector<float> got = want;
      tensor::kernels::Gemm(ta, tb, m, n, k, 1.3f, pa, pb, 0.7f,
                            want.data());
      tensor::kernels::GemmStrided(ta, tb, m, n, k, 1.3f, pa, lda, pb, ldb,
                                   0.7f, got.data(), n);
      EXPECT_LE(MaxAbsDiff(want.data(), got.data(), want.size()), 1e-5f)
          << "trans_a=" << ta << " trans_b=" << tb;
    }
  }
}

TEST(GemmStridedTest, StridedOperandsAddressColumnBlocks) {
  // C block of a wider buffer += A block times B block, strides != cols.
  const int t = 6, d = 8, hd = 4, off = 4;
  Tensor a = RandomTensor({t, d}, 5);
  Tensor b = RandomTensor({t, d}, 6);
  std::vector<float> c(static_cast<size_t>(t) * d, 0.0f);
  tensor::kernels::GemmStrided(false, true, t, t, hd, 1.0f,
                               a.data() + off, d, b.data() + off, d, 0.0f,
                               c.data(), d);
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) {
      float want = 0.0f;
      for (int p = 0; p < hd; ++p) {
        want += a.at(i, off + p) * b.at(j, off + p);
      }
      EXPECT_NEAR(c[static_cast<size_t>(i) * d + j], want, 1e-5f);
    }
  }
}

TEST(SliceColsTest, BitwiseIdenticalToSelectCols) {
  Tensor x = RandomTensor({5, 12}, 7, /*requires_grad=*/true);
  Tensor x2 = RandomTensor({5, 12}, 7, /*requires_grad=*/true);
  std::vector<int> cols = {4, 5, 6, 7};
  Tensor a = ops::SliceCols(x, 4, 4);
  Tensor b = ops::SelectCols(x2, cols);
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())));
  // Gradient scatter must hit the same window with the same values.
  ops::Sum(ops::Mul(a, a)).Backward();
  ops::Sum(ops::Mul(b, b)).Backward();
  ASSERT_EQ(0, std::memcmp(x.grad(), x2.grad(),
                           sizeof(float) * static_cast<size_t>(x.numel())));
}

TEST(SliceColsTest, LstmGateSlicingStillLearns) {
  core::Rng rng(11);
  nn::Lstm lstm(6, 4, &rng);
  Tensor x = RandomTensor({5, 6}, 12, /*requires_grad=*/true);
  lstm.ZeroGrad();
  Tensor out = lstm.Forward(x);
  EXPECT_EQ(out.dim(0), 5);
  EXPECT_EQ(out.dim(1), 4);
  ops::Sum(out).Backward();
  for (const auto& np : lstm.NamedParameters()) {
    float norm = 0.0f;
    for (int64_t i = 0; i < np.param.numel(); ++i) {
      norm += std::fabs(np.param.grad()[i]);
    }
    EXPECT_GT(norm, 0.0f) << np.name;
  }
}

TEST(FusedSdpaTest, ForwardParityAgainstReference) {
  for (int t : {1, 3, 31, 70}) {
    Tensor q = RandomTensor({t, 16}, 21);
    Tensor k = RandomTensor({t, 16}, 22);
    Tensor v = RandomTensor({t, 16}, 23);
    const float scale = 0.25f;
    Tensor fused = ops::FusedSdpa(q, k, v, 4, scale, 0.0f, nullptr);
    Tensor ref = ReferenceSdpa(q, k, v, 4, scale, 0.0f, nullptr);
    EXPECT_LE(MaxAbsDiff(fused, ref), 1e-5f) << "t=" << t;
  }
}

TEST(FusedSdpaTest, GradientParityForInputsAtOpLevel) {
  const int t = 9, d = 8, heads = 2;
  const float scale = 1.0f / std::sqrt(4.0f);
  Tensor q1 = RandomTensor({t, d}, 31, true);
  Tensor k1 = RandomTensor({t, d}, 32, true);
  Tensor v1 = RandomTensor({t, d}, 33, true);
  Tensor q2 = RandomTensor({t, d}, 31, true);
  Tensor k2 = RandomTensor({t, d}, 32, true);
  Tensor v2 = RandomTensor({t, d}, 33, true);
  ops::Sum(ops::FusedSdpa(q1, k1, v1, heads, scale, 0.0f, nullptr))
      .Backward();
  ops::Sum(ReferenceSdpa(q2, k2, v2, heads, scale, 0.0f, nullptr))
      .Backward();
  EXPECT_LE(MaxAbsDiff(q1.grad(), q2.grad(), q1.numel()), 1e-4f);
  EXPECT_LE(MaxAbsDiff(k1.grad(), k2.grad(), k1.numel()), 1e-4f);
  EXPECT_LE(MaxAbsDiff(v1.grad(), v2.grad(), v1.numel()), 1e-4f);
}

/// Central-difference check of d loss / d x for each x in `inputs`
/// against the analytic gradient; `loss` rebuilds the graph from the
/// current input values (and must draw any dropout mask afresh from the
/// same seed).
void CheckGradients(const std::vector<Tensor>& inputs,
                    const std::function<Tensor()>& loss, float tolerance) {
  for (const Tensor& x : inputs) {
    Tensor(x).ZeroGrad();
  }
  loss().Backward();
  const float h = 1e-3f;
  for (size_t n = 0; n < inputs.size(); ++n) {
    Tensor x = inputs[n];
    const std::vector<float> analytic(x.grad(), x.grad() + x.numel());
    for (int64_t i = 0; i < x.numel(); ++i) {
      const float original = x.data()[i];
      x.data()[i] = original + h;
      const float up = loss().item();
      x.data()[i] = original - h;
      const float down = loss().item();
      x.data()[i] = original;
      EXPECT_NEAR(analytic[static_cast<size_t>(i)], (up - down) / (2.0f * h),
                  tolerance)
          << "input " << n << " at flat index " << i;
    }
  }
}

// The M < T backward: dQ over the query rows, dK and dV over every key,
// with the dropout mask rows of the query positions.
TEST(FusedSdpaTest, QueryRowSubsetGradCheck) {
  const int t = 9, d = 8, heads = 2;
  const float scale = 1.0f / std::sqrt(4.0f);
  const std::vector<int> rows = {1, 4, 8};
  for (float p : {0.0f, 0.3f}) {
    SCOPED_TRACE(p);
    Tensor q = RandomTensor({static_cast<int>(rows.size()), d}, 34, true);
    Tensor k = RandomTensor({t, d}, 35, true);
    Tensor v = RandomTensor({t, d}, 36, true);
    const Tensor w = RandomTensor({static_cast<int>(rows.size()), d}, 37);
    CheckGradients({q, k, v},
                   [&] {
                     core::Rng rng(11);
                     return ops::Sum(ops::Mul(
                         ops::FusedSdpa(q, k, v, heads, scale, p, &rng,
                                        &rows),
                         w));
                   },
                   2e-2f);
  }
}

/// Snapshot of every parameter gradient plus the input gradient.
std::map<std::string, std::vector<float>> GradSnapshot(
    const nn::MultiHeadSelfAttention& attn, const Tensor& x) {
  std::map<std::string, std::vector<float>> out;
  for (const auto& np : attn.NamedParameters()) {
    out[np.name].assign(np.param.grad(),
                        np.param.grad() + np.param.numel());
  }
  out["__input__"].assign(x.grad(), x.grad() + x.numel());
  return out;
}

TEST(AttentionFusionTest, GradientParityForAllProjectionsAndInput) {
  for (float p : {0.0f, 0.3f}) {
    core::Rng init(41);
    nn::MultiHeadSelfAttention attn(16, 4, p, &init);
    attn.Train();
    Tensor x = RandomTensor({11, 16}, 42, /*requires_grad=*/true);

    attn.ZeroGrad();
    x.ZeroGrad();
    core::Rng drop1(77);
    ops::Sum(attn.Forward(x, &drop1)).Backward();
    auto fused = GradSnapshot(attn, x);

    attn.ZeroGrad();
    x.ZeroGrad();
    core::Rng drop2(77);
    ops::Sum(ReferenceAttention(attn, x, p, &drop2)).Backward();
    auto ref = GradSnapshot(attn, x);

    ASSERT_EQ(fused.size(), ref.size());
    for (const auto& [name, grad] : fused) {
      const auto& want = ref.at(name);
      ASSERT_EQ(grad.size(), want.size()) << name;
      EXPECT_LE(MaxAbsDiff(grad.data(), want.data(),
                           static_cast<int64_t>(grad.size())),
                1e-4f)
          << "p=" << p << " param=" << name;
    }
  }
}

// With a shared seed the two paths must (a) consume the identical number
// of Bernoulli draws — checked by comparing the stream position afterward
// — and (b) produce outputs within forward tolerance, which fails loudly
// if even one mask bit differs (a flipped bit perturbs a whole output row
// by O(keep_scale * attn weight) >> 1e-5). Together these pin the fused
// mask bit-for-bit to the unfused path's.
TEST(AttentionFusionTest, DropoutMaskParityAcrossPaths) {
  for (bool grad_mode : {true, false}) {
    core::Rng init(51);
    nn::MultiHeadSelfAttention attn(16, 4, 0.5f, &init);
    attn.Train();  // MC-Dropout keeps training mode on in eval passes.
    Tensor x = RandomTensor({13, 16}, 52);

    Tensor fused_out, ref_out;
    core::Rng drop1(99), drop2(99);
    if (grad_mode) {
      fused_out = attn.Forward(x, &drop1);
      ref_out = ReferenceAttention(attn, x, 0.5f, &drop2);
    } else {
      tensor::NoGradGuard no_grad;
      fused_out = attn.Forward(x, &drop1);
      ref_out = ReferenceAttention(attn, x, 0.5f, &drop2);
    }
    EXPECT_LE(MaxAbsDiff(fused_out, ref_out), 1e-5f)
        << "grad_mode=" << grad_mode;
    EXPECT_EQ(drop1.NextU64(), drop2.NextU64())
        << "paths consumed different draw counts, grad_mode=" << grad_mode;
  }
}

TEST(AttentionFusionTest, TrainEvalGradNoGradMatrix) {
  core::Rng init(61);
  nn::MultiHeadSelfAttention attn(16, 4, 0.2f, &init);
  Tensor x = RandomTensor({10, 16}, 62);
  for (bool training : {true, false}) {
    for (bool grad : {true, false}) {
      attn.SetTraining(training);
      Tensor fused_out, ref_out;
      {
        std::unique_ptr<tensor::NoGradGuard> guard;
        if (!grad) guard = std::make_unique<tensor::NoGradGuard>();
        core::Rng drop1(7), drop2(7);
        fused_out = attn.Forward(x, &drop1);
        ref_out = ReferenceAttention(attn, x, 0.2f, &drop2);
      }
      EXPECT_LE(MaxAbsDiff(fused_out, ref_out), 1e-5f)
          << "training=" << training << " grad=" << grad;
      if (!grad) {
        // No-grad forwards must be graph-free on both paths.
        EXPECT_TRUE(fused_out.impl()->parents.empty());
        EXPECT_FALSE(static_cast<bool>(fused_out.impl()->backward_fn));
      }
    }
  }
}

TEST(AttentionFusionTest, DeterministicAcrossPoolSizes) {
  // T=70 x 4 heads spans several (head, row-tile) tasks; the fused
  // forward and backward must be bitwise identical at every pool size.
  core::Rng init(71);
  nn::MultiHeadSelfAttention attn(32, 4, 0.0f, &init);
  attn.Train();
  Tensor x = RandomTensor({70, 32}, 72, /*requires_grad=*/true);

  std::vector<float> out1, grads1;
  {
    ScopedPoolSize pool(1);
    attn.ZeroGrad();
    x.ZeroGrad();
    Tensor out = attn.Forward(x, nullptr);
    ops::Sum(out).Backward();
    out1.assign(out.data(), out.data() + out.numel());
    for (const auto& np : attn.NamedParameters()) {
      grads1.insert(grads1.end(), np.param.grad(),
                    np.param.grad() + np.param.numel());
    }
  }
  std::vector<float> out4, grads4;
  {
    ScopedPoolSize pool(4);
    attn.ZeroGrad();
    x.ZeroGrad();
    Tensor out = attn.Forward(x, nullptr);
    ops::Sum(out).Backward();
    out4.assign(out.data(), out.data() + out.numel());
    for (const auto& np : attn.NamedParameters()) {
      grads4.insert(grads4.end(), np.param.grad(),
                    np.param.grad() + np.param.numel());
    }
  }
  ASSERT_EQ(out1.size(), out4.size());
  EXPECT_EQ(0, std::memcmp(out1.data(), out4.data(),
                           sizeof(float) * out1.size()));
  ASSERT_EQ(grads1.size(), grads4.size());
  EXPECT_EQ(0, std::memcmp(grads1.data(), grads4.data(),
                           sizeof(float) * grads1.size()));
}

TEST(AttentionFusionTest, EvalPathIsArenaSteadyState) {
  core::Rng init(81);
  nn::MultiHeadSelfAttention attn(16, 4, 0.1f, &init);
  attn.Eval();
  Tensor x = RandomTensor({33, 16}, 82);
  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  for (int i = 0; i < 3; ++i) attn.Forward(x, nullptr);
  const int64_t warm = arena.fresh_count();
  for (int i = 0; i < 5; ++i) attn.Forward(x, nullptr);
  EXPECT_EQ(arena.fresh_count(), warm);
  EXPECT_GT(arena.reuse_count(), 0);
}

}  // namespace
}  // namespace promptem
