// Tensor, kernel, and autograd tests — including numerical gradient checks
// for every differentiable op.

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace promptem::tensor {
namespace {

namespace ops = promptem::tensor::ops;

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ(t.at(i, j), 0.0f);
  }
}

TEST(TensorTest, FromValuesRoundTrip) {
  Tensor t = Tensor::FromValues({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(3.5f).item(), 3.5f);
}

TEST(TensorTest, DetachedCloneSharesNothing) {
  Tensor a = Tensor::FromValues({2}, {1, 2}, /*requires_grad=*/true);
  Tensor b = a.DetachedClone();
  b.set(0, 9.0f);
  EXPECT_EQ(a.at(0), 1.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(TensorTest, CopyDataFrom) {
  Tensor a = Tensor::FromValues({3}, {1, 2, 3});
  Tensor b = Tensor::Zeros({3});
  b.CopyDataFrom(a);
  EXPECT_EQ(b.at(2), 3.0f);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor::Zeros({3, 4}).ShapeString(), "[3, 4]");
  EXPECT_EQ(Tensor().ShapeString(), "[null]");
}

// ---------------------------------------------------------------------------
// Kernel tests.
// ---------------------------------------------------------------------------

TEST(KernelsTest, GemmNoTrans) {
  // [2x3] @ [3x2]
  const float a[] = {1, 2, 3, 4, 5, 6};
  const float b[] = {7, 8, 9, 10, 11, 12};
  float c[4] = {0};
  kernels::Gemm(false, false, 2, 2, 3, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 58.0f);
  EXPECT_FLOAT_EQ(c[1], 64.0f);
  EXPECT_FLOAT_EQ(c[2], 139.0f);
  EXPECT_FLOAT_EQ(c[3], 154.0f);
}

TEST(KernelsTest, GemmTransB) {
  // [2x3] @ [2x3]^T -> [2x2]
  const float a[] = {1, 2, 3, 4, 5, 6};
  const float b[] = {1, 0, 1, 0, 1, 0};
  float c[4] = {0};
  kernels::Gemm(false, true, 2, 2, 3, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 4.0f);   // 1+3
  EXPECT_FLOAT_EQ(c[1], 2.0f);   // 2
  EXPECT_FLOAT_EQ(c[2], 10.0f);  // 4+6
  EXPECT_FLOAT_EQ(c[3], 5.0f);
}

TEST(KernelsTest, GemmTransA) {
  // [3x2]^T stored as [3x2]; op(A) [2x3] @ B [3x1].
  const float a[] = {1, 4, 2, 5, 3, 6};
  const float b[] = {1, 1, 1};
  float c[2] = {0};
  kernels::Gemm(true, false, 2, 1, 3, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 6.0f);
  EXPECT_FLOAT_EQ(c[1], 15.0f);
}

TEST(KernelsTest, GemmBetaAccumulates) {
  const float a[] = {1.0f};
  const float b[] = {2.0f};
  float c[1] = {10.0f};
  kernels::Gemm(false, false, 1, 1, 1, 1.0f, a, b, 1.0f, c);
  EXPECT_FLOAT_EQ(c[0], 12.0f);
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  const float x[] = {1, 2, 3, 100, 100, 100};
  float y[6];
  kernels::SoftmaxRows(x, 2, 3, y);
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0f, 1e-5f);
  EXPECT_NEAR(y[3], 1.0f / 3.0f, 1e-5f);
  EXPECT_GT(y[2], y[1]);
}

TEST(KernelsTest, LogSoftmaxMatchesSoftmax) {
  const float x[] = {0.5f, -1.0f, 2.0f};
  float soft[3];
  float logsoft[3];
  kernels::SoftmaxRows(x, 1, 3, soft);
  kernels::LogSoftmaxRows(x, 1, 3, logsoft);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::exp(logsoft[i]), soft[i], 1e-5f);
  }
}

TEST(KernelsTest, LayerNormNormalizes) {
  const float x[] = {1, 2, 3, 4};
  const float gamma[] = {1, 1, 1, 1};
  const float beta[] = {0, 0, 0, 0};
  float out[4];
  float mean[1];
  float rstd[1];
  kernels::LayerNormForward(x, 1, 4, gamma, beta, 1e-5f, out, mean, rstd);
  EXPECT_NEAR(mean[0], 2.5f, 1e-5f);
  float sum = 0.0f;
  for (float v : out) sum += v;
  EXPECT_NEAR(sum, 0.0f, 1e-4f);
}

/// The kernel variants a test should sweep: scalar always, AVX2 when the
/// host runs it.
std::vector<kernels::KernelVariant> HostVariants() {
  std::vector<kernels::KernelVariant> variants = {
      kernels::KernelVariant::kScalar};
  if (kernels::CpuSupportsAvx2()) {
    variants.push_back(kernels::KernelVariant::kAvx2);
  }
  return variants;
}

TEST(KernelsTest, GeluValues) {
  for (kernels::KernelVariant variant : HostVariants()) {
    kernels::ScopedKernelVariant pin(variant);
    SCOPED_TRACE(kernels::KernelVariantName(variant));
    const float x[] = {0.0f, 3.0f, -5.0f};
    float y[3];
    kernels::GeluForward(x, y, 3);
    EXPECT_NEAR(y[0], 0.0f, 1e-6f);
    EXPECT_GT(y[1], 2.9f);
    EXPECT_LT(std::fabs(y[2]), 0.01f);
  }
}

// ---------------------------------------------------------------------------
// Numerical gradient checking. For a scalar function L(x) built from ops,
// compares autograd dL/dx against (L(x+h) - L(x-h)) / 2h.
// ---------------------------------------------------------------------------

using LossFn = std::function<Tensor(const Tensor&)>;

void CheckGradient(Tensor x, const LossFn& loss_fn, float tolerance = 2e-2f) {
  x.set_requires_grad(true);
  Tensor loss = loss_fn(x);
  ASSERT_EQ(loss.numel(), 1);
  x.ZeroGrad();
  loss.Backward();
  std::vector<float> analytic(x.grad(), x.grad() + x.numel());

  const float h = 1e-3f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float original = x.data()[i];
    x.data()[i] = original + h;
    const float up = loss_fn(x).item();
    x.data()[i] = original - h;
    const float down = loss_fn(x).item();
    x.data()[i] = original;
    const float numeric = (up - down) / (2.0f * h);
    EXPECT_NEAR(analytic[static_cast<size_t>(i)], numeric, tolerance)
        << "at flat index " << i;
  }
}

Tensor RandomTensor(std::vector<int> shape, uint64_t seed) {
  core::Rng rng(seed);
  Tensor t = Tensor::Zeros(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.Uniform(-1.0f, 1.0f);
  }
  return t;
}

TEST(GradCheckTest, Add) {
  Tensor other = RandomTensor({2, 3}, 1);
  CheckGradient(RandomTensor({2, 3}, 2), [&](const Tensor& x) {
    return ops::Sum(ops::Add(x, other));
  });
}

TEST(GradCheckTest, SubBothSides) {
  Tensor other = RandomTensor({2, 3}, 3);
  CheckGradient(RandomTensor({2, 3}, 4), [&](const Tensor& x) {
    return ops::Sum(ops::Sub(x, other));
  });
  CheckGradient(RandomTensor({2, 3}, 5), [&](const Tensor& x) {
    return ops::Sum(ops::Sub(other, x));
  });
}

TEST(GradCheckTest, Mul) {
  Tensor other = RandomTensor({2, 3}, 6);
  CheckGradient(RandomTensor({2, 3}, 7), [&](const Tensor& x) {
    return ops::Sum(ops::Mul(x, other));
  });
}

TEST(GradCheckTest, AddBiasThroughX) {
  Tensor bias = RandomTensor({3}, 8);
  CheckGradient(RandomTensor({2, 3}, 9), [&](const Tensor& x) {
    return ops::Sum(ops::Mul(ops::AddBias(x, bias),
                             ops::AddBias(x, bias)));
  });
}

TEST(GradCheckTest, AddBiasThroughBias) {
  Tensor x = RandomTensor({2, 3}, 10);
  CheckGradient(RandomTensor({3}, 11), [&](const Tensor& b) {
    return ops::Sum(ops::Mul(ops::AddBias(x, b), ops::AddBias(x, b)));
  });
}

TEST(GradCheckTest, ScaleAndAddScalar) {
  CheckGradient(RandomTensor({4}, 12), [](const Tensor& x) {
    return ops::Sum(ops::AddScalar(ops::Scale(x, 2.5f), 1.0f));
  });
}

TEST(GradCheckTest, MatMulLeft) {
  Tensor b = RandomTensor({3, 2}, 13);
  CheckGradient(RandomTensor({2, 3}, 14), [&](const Tensor& a) {
    return ops::Sum(ops::Mul(ops::MatMul(a, b), ops::MatMul(a, b)));
  });
}

TEST(GradCheckTest, MatMulRight) {
  Tensor a = RandomTensor({2, 3}, 15);
  CheckGradient(RandomTensor({3, 2}, 16), [&](const Tensor& b) {
    return ops::Sum(ops::Mul(ops::MatMul(a, b), ops::MatMul(a, b)));
  });
}

TEST(GradCheckTest, MatMulTransB) {
  Tensor b = RandomTensor({2, 3}, 17);  // used as B^T
  CheckGradient(RandomTensor({2, 3}, 18), [&](const Tensor& a) {
    return ops::Sum(ops::MatMul(a, b, false, true));
  });
  Tensor a = RandomTensor({2, 3}, 19);
  CheckGradient(RandomTensor({2, 3}, 20), [&](const Tensor& b2) {
    return ops::Sum(
        ops::Mul(ops::MatMul(a, b2, false, true),
                 ops::MatMul(a, b2, false, true)));
  });
}

TEST(GradCheckTest, MatMulTransA) {
  Tensor b = RandomTensor({2, 4}, 21);
  CheckGradient(RandomTensor({2, 3}, 22), [&](const Tensor& a) {
    // op(A) = A^T: [3,2] @ [2,4] -> [3,4]
    return ops::Sum(ops::Mul(ops::MatMul(a, b, true, false),
                             ops::MatMul(a, b, true, false)));
  });
}

TEST(GradCheckTest, Softmax) {
  CheckGradient(RandomTensor({2, 4}, 23), [](const Tensor& x) {
    Tensor y = ops::Softmax(x);
    return ops::Sum(ops::Mul(y, y));
  });
}

TEST(GradCheckTest, LogSoftmax) {
  Tensor weights = RandomTensor({2, 4}, 24);
  CheckGradient(RandomTensor({2, 4}, 25), [&](const Tensor& x) {
    return ops::Sum(ops::Mul(ops::LogSoftmax(x), weights));
  });
}

TEST(GradCheckTest, LayerNormThroughX) {
  Tensor gamma = Tensor::Full({4}, 1.2f);
  Tensor beta = Tensor::Full({4}, 0.1f);
  CheckGradient(RandomTensor({2, 4}, 26), [&](const Tensor& x) {
    Tensor y = ops::LayerNorm(x, gamma, beta);
    return ops::Sum(ops::Mul(y, y));
  }, 5e-2f);
}

TEST(GradCheckTest, LayerNormThroughGammaBeta) {
  Tensor x = RandomTensor({2, 4}, 27);
  Tensor beta = Tensor::Zeros({4});
  CheckGradient(RandomTensor({4}, 28), [&](const Tensor& gamma) {
    Tensor y = ops::LayerNorm(x, gamma, beta);
    return ops::Sum(ops::Mul(y, y));
  });
}

TEST(GradCheckTest, Activations) {
  for (uint64_t seed = 30; seed < 34; ++seed) {
    CheckGradient(RandomTensor({3, 3}, seed), [seed](const Tensor& x) {
      switch (seed % 4) {
        case 0:
          return ops::Sum(ops::Gelu(x));
        case 1:
          return ops::Sum(ops::Tanh(x));
        case 2:
          return ops::Sum(ops::Sigmoid(x));
        default:
          return ops::Sum(ops::Mul(ops::Relu(x), ops::Relu(x)));
      }
    });
  }
}

TEST(GradCheckTest, GeluUnderEveryVariant) {
  // 15 elements: one full 8-lane block plus a 7-element tail, spread over
  // [-3, 3] where GELU bends.
  for (kernels::KernelVariant variant : HostVariants()) {
    kernels::ScopedKernelVariant pin(variant);
    SCOPED_TRACE(kernels::KernelVariantName(variant));
    CheckGradient(RandomTensor({3, 5}, 36), [](const Tensor& x) {
      const Tensor y = ops::Gelu(ops::Scale(x, 3.0f));
      return ops::Sum(ops::Mul(y, y));
    });
  }
}

TEST(GradCheckTest, AbsAwayFromZero) {
  Tensor x = Tensor::FromValues({4}, {0.5f, -0.7f, 1.2f, -2.0f});
  CheckGradient(x, [](const Tensor& v) { return ops::Sum(ops::Abs(v)); });
}

TEST(GradCheckTest, LogPositive) {
  Tensor x = Tensor::FromValues({3}, {0.5f, 1.5f, 2.5f});
  CheckGradient(x, [](const Tensor& v) { return ops::Sum(ops::Log(v)); });
}

TEST(GradCheckTest, EmbeddingLookup) {
  std::vector<int> ids = {0, 2, 2, 1};
  CheckGradient(RandomTensor({3, 4}, 35), [&](const Tensor& table) {
    Tensor y = ops::EmbeddingLookup(table, ids);
    return ops::Sum(ops::Mul(y, y));
  });
}

TEST(GradCheckTest, SelectRowsAndCols) {
  CheckGradient(RandomTensor({3, 4}, 36), [](const Tensor& x) {
    Tensor rows = ops::SelectRows(x, {2, 0});
    Tensor cols = ops::SelectCols(rows, {3, 1, 1});
    return ops::Sum(ops::Mul(cols, cols));
  });
}

TEST(GradCheckTest, ConcatRowsAndCols) {
  Tensor other = RandomTensor({2, 3}, 37);
  CheckGradient(RandomTensor({2, 3}, 38), [&](const Tensor& x) {
    Tensor r = ops::ConcatRows({x, other});
    Tensor c = ops::ConcatCols({r, r});
    return ops::Sum(ops::Mul(c, c));
  });
}

TEST(GradCheckTest, MeanRowsAndMean) {
  CheckGradient(RandomTensor({3, 4}, 39), [](const Tensor& x) {
    Tensor pooled = ops::MeanRows(x);
    return ops::Mean(ops::Mul(pooled, pooled));
  });
}

TEST(GradCheckTest, CrossEntropyLogits) {
  std::vector<int> targets = {1, 0, 2};
  CheckGradient(RandomTensor({3, 3}, 40), [&](const Tensor& logits) {
    return ops::CrossEntropyLogits(logits, targets);
  });
}

TEST(GradCheckTest, CrossEntropyWithMaskedRows) {
  std::vector<int> targets = {1, -1, 2};
  CheckGradient(RandomTensor({3, 3}, 41), [&](const Tensor& logits) {
    return ops::CrossEntropyLogits(logits, targets);
  });
}

TEST(GradCheckTest, DiamondGraphAccumulates) {
  // x feeds two paths that rejoin; gradient must be the sum of both.
  CheckGradient(RandomTensor({2, 2}, 42), [](const Tensor& x) {
    Tensor a = ops::Scale(x, 2.0f);
    Tensor b = ops::Mul(x, x);
    return ops::Sum(ops::Add(a, b));
  });
}

TEST(AutogradTest, BackwardAccumulatesAcrossCalls) {
  Tensor x = Tensor::FromValues({1}, {3.0f}, /*requires_grad=*/true);
  x.ZeroGrad();
  ops::Scale(x, 2.0f).Backward();
  ops::Scale(x, 4.0f).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(AutogradTest, NoGradGuardSkipsGraph) {
  Tensor x = Tensor::FromValues({1}, {3.0f}, /*requires_grad=*/true);
  NoGradGuard guard;
  Tensor y = ops::Scale(x, 2.0f);
  EXPECT_FALSE(y.impl()->backward_fn != nullptr);
}

TEST(AutogradTest, DropoutZeroPIsIdentity) {
  core::Rng rng(1);
  Tensor x = Tensor::FromValues({2}, {1.0f, 2.0f});
  Tensor y = ops::Dropout(x, 0.0f, &rng);
  EXPECT_EQ(y.data(), x.data());
}

TEST(AutogradTest, DropoutMaskScalesKeptValues) {
  core::Rng rng(2);
  Tensor x = Tensor::Full({1000}, 1.0f);
  Tensor y = ops::Dropout(x, 0.5f, &rng);
  int kept = 0;
  for (int i = 0; i < 1000; ++i) {
    if (y.at(i) != 0.0f) {
      EXPECT_FLOAT_EQ(y.at(i), 2.0f);
      ++kept;
    }
  }
  EXPECT_GT(kept, 400);
  EXPECT_LT(kept, 600);
}

TEST(AutogradTest, DropoutGradientMatchesMask) {
  core::Rng rng(3);
  Tensor x = Tensor::Full({100}, 1.0f, /*requires_grad=*/true);
  Tensor y = ops::Dropout(x, 0.3f, &rng);
  Tensor loss = ops::Sum(y);
  x.ZeroGrad();
  loss.Backward();
  for (int i = 0; i < 100; ++i) {
    if (y.at(i) == 0.0f) {
      EXPECT_FLOAT_EQ(x.grad()[i], 0.0f);
    } else {
      EXPECT_NEAR(x.grad()[i], 1.0f / 0.7f, 1e-5f);
    }
  }
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Tensor x = Tensor::FromValues({1}, {1.0f}, /*requires_grad=*/true);
  Tensor y = x;
  for (int i = 0; i < 20000; ++i) y = ops::Scale(y, 1.0f);
  x.ZeroGrad();
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

}  // namespace
}  // namespace promptem::tensor
