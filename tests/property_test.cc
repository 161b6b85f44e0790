// Property-style parameterized sweeps (TEST_P) over the numeric core:
// gradient checks for MatMul across shape/transpose combinations,
// softmax/log-softmax invariants across widths, row invariance of every
// eval GEMM entry and of attention (both kernel variants, two pool
// sizes), serializer/tokenizer round-trip properties across all
// benchmarks, and RNG stream independence across seeds.

#include <cmath>
#include <cstring>
#include <optional>
#include <tuple>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/benchmarks.h"
#include "data/json.h"
#include "data/serializer.h"
#include "nn/transformer.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"

namespace promptem {
namespace {

namespace ops = tensor::ops;

tensor::Tensor RandomTensor(std::vector<int> shape, uint64_t seed) {
  core::Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::Zeros(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.Uniform(-1.0f, 1.0f);
  }
  return t;
}

// ---------------------------------------------------------------------------
// MatMul gradients across (m, k, n, trans_a, trans_b).
// ---------------------------------------------------------------------------

using MatMulCase = std::tuple<int, int, int, bool, bool>;

class MatMulGradSweep : public ::testing::TestWithParam<MatMulCase> {};

TEST_P(MatMulGradSweep, NumericalGradient) {
  const auto [m, k, n, trans_a, trans_b] = GetParam();
  const std::vector<int> a_shape =
      trans_a ? std::vector<int>{k, m} : std::vector<int>{m, k};
  const std::vector<int> b_shape =
      trans_b ? std::vector<int>{n, k} : std::vector<int>{k, n};

  tensor::Tensor a = RandomTensor(a_shape, 100 + m);
  tensor::Tensor b = RandomTensor(b_shape, 200 + n);
  a.set_requires_grad(true);
  b.set_requires_grad(true);

  auto loss_fn = [&]() {
    tensor::Tensor c = ops::MatMul(a, b, trans_a, trans_b);
    return ops::Sum(ops::Mul(c, c));
  };
  a.ZeroGrad();
  b.ZeroGrad();
  loss_fn().Backward();
  std::vector<float> ga(a.grad(), a.grad() + a.numel());
  std::vector<float> gb(b.grad(), b.grad() + b.numel());

  const float h = 1e-3f;
  auto check = [&](tensor::Tensor* t, const std::vector<float>& analytic) {
    for (int64_t i = 0; i < t->numel(); ++i) {
      const float original = t->data()[i];
      t->data()[i] = original + h;
      const float up = loss_fn().item();
      t->data()[i] = original - h;
      const float down = loss_fn().item();
      t->data()[i] = original;
      EXPECT_NEAR(analytic[static_cast<size_t>(i)], (up - down) / (2 * h),
                  5e-2f);
    }
  };
  check(&a, ga);
  check(&b, gb);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulGradSweep,
    ::testing::Values(MatMulCase{1, 1, 1, false, false},
                      MatMulCase{2, 3, 4, false, false},
                      MatMulCase{2, 3, 4, false, true},
                      MatMulCase{2, 3, 4, true, false},
                      MatMulCase{2, 3, 4, true, true},
                      MatMulCase{1, 8, 2, false, true},
                      MatMulCase{5, 1, 5, false, false}));

// ---------------------------------------------------------------------------
// Softmax invariants across widths.
// ---------------------------------------------------------------------------

class SoftmaxWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxWidthSweep, RowsSumToOneAndShiftInvariant) {
  const int cols = GetParam();
  tensor::Tensor x = RandomTensor({3, cols}, 300 + cols);
  tensor::Tensor y = ops::Softmax(x);
  for (int i = 0; i < 3; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < cols; ++j) {
      EXPECT_GE(y.at(i, j), 0.0f);
      sum += y.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
  // Shift invariance: softmax(x + c) == softmax(x).
  tensor::Tensor shifted = ops::AddScalar(x, 5.0f);
  tensor::Tensor y2 = ops::Softmax(shifted);
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y.data()[i], y2.data()[i], 1e-5f);
  }
}

TEST_P(SoftmaxWidthSweep, LogSoftmaxConsistent) {
  const int cols = GetParam();
  tensor::Tensor x = RandomTensor({2, cols}, 400 + cols);
  tensor::Tensor soft = ops::Softmax(x);
  tensor::Tensor logsoft = ops::LogSoftmax(x);
  for (int64_t i = 0; i < soft.numel(); ++i) {
    EXPECT_NEAR(std::exp(logsoft.data()[i]), soft.data()[i], 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SoftmaxWidthSweep,
                         ::testing::Values(1, 2, 7, 64, 333));

// ---------------------------------------------------------------------------
// Serializer / JSON / tokenizer properties across all eight benchmarks.
// ---------------------------------------------------------------------------

class BenchmarkPropertySweep
    : public ::testing::TestWithParam<data::BenchmarkKind> {};

TEST_P(BenchmarkPropertySweep, SerializationTagsBalance) {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.2;
  data::GemDataset ds = data::GenerateBenchmark(GetParam(), 9, small);
  for (const auto& record : ds.left_table) {
    const std::string s = data::SerializeRecord(record);
    if (record.format == data::RecordFormat::kTextual) {
      EXPECT_EQ(s.find("[COL]"), std::string::npos);
      continue;
    }
    // Every [COL] is followed (eventually) by a [VAL]; counts match.
    size_t cols = 0, vals = 0, pos = 0;
    while ((pos = s.find("[COL]", pos)) != std::string::npos) {
      ++cols;
      pos += 5;
    }
    pos = 0;
    while ((pos = s.find("[VAL]", pos)) != std::string::npos) {
      ++vals;
      pos += 5;
    }
    EXPECT_EQ(cols, vals);
    EXPECT_GE(cols, record.attrs.size());
  }
}

TEST_P(BenchmarkPropertySweep, JsonRoundTripForSemiStructured) {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.2;
  data::GemDataset ds = data::GenerateBenchmark(GetParam(), 9, small);
  for (const auto& record : ds.left_table) {
    if (record.format != data::RecordFormat::kSemiStructured) continue;
    auto back = data::ParseJsonRecord(data::RecordToJson(record));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(data::SerializeRecord(back.value()),
              data::SerializeRecord(record));
  }
}

TEST_P(BenchmarkPropertySweep, TokenizerNeverEmitsEmptyTokens) {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.2;
  data::GemDataset ds = data::GenerateBenchmark(GetParam(), 9, small);
  for (const auto& record : ds.right_table) {
    for (const auto& tok :
         text::WordTokenize(data::SerializeRecord(record))) {
      EXPECT_FALSE(tok.empty());
      EXPECT_LE(tok.size(), 8u);  // chunking bounds token length
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkPropertySweep,
    ::testing::ValuesIn(data::AllBenchmarks()),
    [](const ::testing::TestParamInfo<data::BenchmarkKind>& info) {
      std::string name = data::GetBenchmarkInfo(info.param).name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Row invariance: row i of an M-row product is bitwise the product of row
// i alone. The last encoder layer's query-row subset relies on it for
// every GEMM entry eval runs and for FusedSdpa, in both kernel variants
// and at any pool size; the encoder case checks the composed contract.
// ---------------------------------------------------------------------------

using tensor::kernels::KernelVariant;

constexpr int kRowCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 33};
constexpr int kKeyCounts[] = {1, 31, 32, 33, 64, 65, 96};
// Inner and output widths, none a multiple of the 8-lane vector width.
// k = 261 pushes the 33-row products past the pool-parallel threshold.
constexpr int kInnerDims[] = {5, 13, 37, 70, 261};
constexpr int kOuterDims[] = {3, 21, 31, 33, 65, 75, 97};

using RowInvarianceCase = std::tuple<KernelVariant, int>;  // variant, pool

class RowInvarianceSweep
    : public ::testing::TestWithParam<RowInvarianceCase> {
 protected:
  void SetUp() override {
    variant_.emplace(std::get<0>(GetParam()));
    core::SetNumThreads(std::get<1>(GetParam()));
  }
  void TearDown() override {
    core::SetNumThreads(0);
    variant_.reset();
  }

 private:
  std::optional<tensor::kernels::ScopedKernelVariant> variant_;
};

/// Row `row` of `a` [rows, cols] as a [1, cols] tensor.
tensor::Tensor RowOf(const tensor::Tensor& a, int row) {
  return ops::SelectRows(a, {row});
}

/// True when row `row` of `full` holds exactly the bits of `single`.
bool RowBitsEqual(const tensor::Tensor& full, int row,
                  const tensor::Tensor& single) {
  const int cols = single.dim(1);
  return std::memcmp(full.data() + static_cast<int64_t>(row) * cols,
                     single.data(), sizeof(float) * cols) == 0;
}

TEST_P(RowInvarianceSweep, MatMulRowsMatchSingleRowProducts) {
  for (int m : kRowCounts) {
    for (int k : kInnerDims) {
      for (int n : kOuterDims) {
        const tensor::Tensor a = RandomTensor({m, k}, 300 + m * 7 + k);
        const tensor::Tensor b_nn = RandomTensor({k, n}, 400 + n);
        const tensor::Tensor b_nt = RandomTensor({n, k}, 500 + n);
        const tensor::Tensor nn = ops::MatMul(a, b_nn);
        const tensor::Tensor nt = ops::MatMul(a, b_nt, false, true);
        for (int i = 0; i < m; ++i) {
          const tensor::Tensor ai = RowOf(a, i);
          ASSERT_TRUE(RowBitsEqual(nn, i, ops::MatMul(ai, b_nn)))
              << "NN m=" << m << " k=" << k << " n=" << n << " row " << i;
          ASSERT_TRUE(RowBitsEqual(nt, i, ops::MatMul(ai, b_nt, false, true)))
              << "NT m=" << m << " k=" << k << " n=" << n << " row " << i;
        }
      }
    }
  }
}

TEST_P(RowInvarianceSweep, GemmStridedRowsMatchSingleRowProducts) {
  // Operands are column blocks of wider buffers, as the attention tiles
  // address them; the strided entry runs only the NN case in eval.
  for (int m : kRowCounts) {
    for (int k : kInnerDims) {
      for (int n : kOuterDims) {
        const int lda = k + 3;
        const int ldb = n + 5;
        const int ldc = n + 2;
        const tensor::Tensor a = RandomTensor({m, lda}, 600 + m * 7 + k);
        const tensor::Tensor b = RandomTensor({k, ldb}, 700 + n);
        std::vector<float> full(static_cast<size_t>(m) * ldc, 0.0f);
        tensor::kernels::GemmStrided(false, false, m, n, k, 0.5f, a.data(),
                                     lda, b.data(), ldb, 0.0f, full.data(),
                                     ldc);
        std::vector<float> single(static_cast<size_t>(ldc));
        for (int i = 0; i < m; ++i) {
          tensor::kernels::GemmStrided(
              false, false, 1, n, k, 0.5f,
              a.data() + static_cast<int64_t>(i) * lda, lda, b.data(), ldb,
              0.0f, single.data(), ldc);
          ASSERT_EQ(std::memcmp(full.data() + static_cast<int64_t>(i) * ldc,
                                single.data(), sizeof(float) * n),
                    0)
              << "m=" << m << " k=" << k << " n=" << n << " row " << i;
        }
      }
    }
  }
}

TEST_P(RowInvarianceSweep, FusedSdpaQueryRowsMatchSingleRowPasses) {
  // (heads, head_dim): an odd head width, and the encoders' 4 x 8 layout.
  const std::pair<int, int> layouts[] = {{2, 13}, {4, 8}};
  for (const auto& [heads, hd] : layouts) {
    const int d = heads * hd;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    for (int t : kKeyCounts) {
      const tensor::Tensor k = RandomTensor({t, d}, 800 + t);
      const tensor::Tensor v = RandomTensor({t, d}, 900 + t);
      std::vector<int> row_counts(std::begin(kRowCounts),
                                  std::end(kRowCounts));
      row_counts.push_back(t);  // the full self-attention pass
      for (int m : row_counts) {
        const tensor::Tensor q = RandomTensor({m, d}, 1000 + m * 7 + t);
        const tensor::Tensor full =
            ops::FusedSdpa(q, k, v, heads, scale, 0.0f, nullptr);
        ASSERT_EQ(full.dim(0), m);
        for (int i = 0; i < m; ++i) {
          const tensor::Tensor single =
              ops::FusedSdpa(RowOf(q, i), k, v, heads, scale, 0.0f, nullptr);
          ASSERT_TRUE(RowBitsEqual(full, i, single))
              << "heads=" << heads << " t=" << t << " m=" << m << " row "
              << i;
        }
      }
    }
  }
}

TEST_P(RowInvarianceSweep, EncoderQueryRowsMatchFullOutput) {
  nn::TransformerConfig config;
  config.vocab_size = 60;
  config.max_seq_len = 96;
  config.dim = 26;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 37;
  core::Rng init(5);
  nn::TransformerEncoder encoder(config, &init);
  encoder.Eval();
  tensor::NoGradGuard no_grad;
  for (int t : kKeyCounts) {
    core::Rng rng(t);
    std::vector<int> ids(static_cast<size_t>(t));
    for (int& id : ids) id = 5 + static_cast<int>(rng.NextU64(55));
    const tensor::Tensor x = encoder.Embed(ids, &rng);
    const tensor::Tensor full = encoder.EncodeEmbedded(x, &rng);
    std::vector<std::vector<int>> row_sets = {{0}, {t - 1}};
    if (t > 5) row_sets.push_back({0, 5, t - 1});
    for (const std::vector<int>& rows : row_sets) {
      const tensor::Tensor part = encoder.EncodeEmbedded(x, &rng, &rows);
      ASSERT_EQ(part.dim(0), static_cast<int>(rows.size()));
      for (size_t r = 0; r < rows.size(); ++r) {
        ASSERT_TRUE(
            RowBitsEqual(full, rows[r], RowOf(part, static_cast<int>(r))))
            << "t=" << t << " row " << rows[r];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndPools, RowInvarianceSweep,
    ::testing::Combine(::testing::Values(KernelVariant::kScalar,
                                         KernelVariant::kAvx2),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<RowInvarianceCase>& info) {
      return std::string(
                 tensor::kernels::KernelVariantName(std::get<0>(info.param))) +
             "_pool" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// RNG seed sweep: distinct seeds give distinct streams; same seed agrees.
// ---------------------------------------------------------------------------

class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, ReproducibleAndWellDistributed) {
  const uint64_t seed = GetParam();
  core::Rng a(seed);
  core::Rng b(seed);
  double mean = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double v = a.NextDouble();
    EXPECT_EQ(v, b.NextDouble());
    mean += v;
  }
  EXPECT_NEAR(mean / 2000.0, 0.5, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull,
                                           0xDEADBEEFull,
                                           0xFFFFFFFFFFFFFFFFull));

}  // namespace
}  // namespace promptem
