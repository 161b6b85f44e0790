// Tests for the neural-network layer library: module tree, layers,
// attention/transformer/LSTM shapes and gradients, the AdamW optimizer,
// and checkpoint serialization.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "text/vocab.h"

namespace promptem::nn {
namespace {

namespace ops = tensor::ops;

TEST(ModuleTest, NamedParametersAreDotted) {
  core::Rng rng(1);
  Mlp mlp({4, 8, 2}, &rng);
  bool found = false;
  for (const auto& np : mlp.NamedParameters()) {
    if (np.name == "fc0.weight") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModuleTest, NumParamsCountsEverything) {
  core::Rng rng(1);
  Linear linear(3, 5, &rng);
  EXPECT_EQ(linear.NumParams(), 3 * 5 + 5);
  Linear no_bias(3, 5, &rng, /*bias=*/false);
  EXPECT_EQ(no_bias.NumParams(), 15);
}

TEST(ModuleTest, TrainingModePropagates) {
  core::Rng rng(1);
  Mlp mlp({4, 8, 2}, &rng, 0.5f);
  mlp.SetTraining(false);
  EXPECT_FALSE(mlp.training());
  mlp.SetTraining(true);
  EXPECT_TRUE(mlp.training());
}

TEST(ModuleTest, ZeroGradClearsAll) {
  core::Rng rng(1);
  Linear linear(2, 2, &rng);
  tensor::Tensor x = tensor::Tensor::Full({1, 2}, 1.0f);
  ops::Sum(linear.Forward(x)).Backward();
  linear.ZeroGrad();
  for (auto& p : linear.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) {
      EXPECT_EQ(p.grad()[i], 0.0f);
    }
  }
}

TEST(InitTest, XavierBounded) {
  core::Rng rng(3);
  tensor::Tensor w = tensor::Tensor::Zeros({16, 16});
  XavierInit(&w, &rng);
  const float bound = std::sqrt(6.0f / 32.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), bound);
  }
}

TEST(LinearTest, ForwardShapeAndValue) {
  core::Rng rng(1);
  Linear linear(2, 3, &rng);
  // Overwrite with known weights: y = x @ W^T + b.
  std::vector<float> w = {1, 0, 0, 1, 1, 1};  // [3, 2]
  std::memcpy(const_cast<tensor::Tensor&>(linear.weight()).data(), w.data(),
              sizeof(float) * 6);
  const_cast<tensor::Tensor&>(linear.bias()).set(2, 10.0f);
  tensor::Tensor x = tensor::Tensor::FromValues({1, 2}, {2, 3});
  tensor::Tensor y = linear.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 15.0f);
}

TEST(EmbeddingTest, LookupRowsMatchTable) {
  core::Rng rng(1);
  Embedding emb(10, 4, &rng);
  tensor::Tensor out = emb.Forward({3, 3, 7});
  EXPECT_EQ(out.dim(0), 3);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(out.at(0, j), out.at(1, j));
    EXPECT_EQ(out.at(0, j), emb.table().at(3, j));
  }
}

TEST(LayerNormLayerTest, OutputNormalized) {
  LayerNormLayer ln(8);
  tensor::Tensor x = tensor::Tensor::FromValues(
      {1, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
  tensor::Tensor y = ln.Forward(x);
  float mean = 0.0f;
  for (int j = 0; j < 8; ++j) mean += y.at(0, j);
  EXPECT_NEAR(mean / 8.0f, 0.0f, 1e-4f);
}

TEST(DropoutLayerTest, InactiveInEvalMode) {
  core::Rng rng(1);
  DropoutLayer dropout(0.9f);
  dropout.SetTraining(false);
  tensor::Tensor x = tensor::Tensor::Full({10}, 1.0f);
  tensor::Tensor y = dropout.Forward(x, &rng);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(y.at(i), 1.0f);
}

TEST(AttentionTest, OutputShapePreserved) {
  core::Rng rng(1);
  MultiHeadSelfAttention attn(16, 4, 0.0f, &rng);
  attn.SetTraining(false);
  tensor::Tensor x = tensor::Tensor::Zeros({5, 16});
  NormalInit(&x, 1.0f, &rng);
  tensor::Tensor y = attn.Forward(x, &rng);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 16);
}

TEST(AttentionTest, GradientsReachAllProjections) {
  core::Rng rng(2);
  MultiHeadSelfAttention attn(8, 2, 0.0f, &rng);
  tensor::Tensor x = tensor::Tensor::Zeros({3, 8});
  NormalInit(&x, 1.0f, &rng);
  attn.ZeroGrad();
  ops::Sum(attn.Forward(x, &rng)).Backward();
  for (const auto& np : attn.NamedParameters()) {
    float norm = 0.0f;
    for (int64_t i = 0; i < np.param.numel(); ++i) {
      norm += std::fabs(np.param.grad()[i]);
    }
    EXPECT_GT(norm, 0.0f) << np.name;
  }
}

TransformerConfig TinyConfig() {
  TransformerConfig config;
  config.vocab_size = 50;
  config.max_seq_len = 16;
  config.dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.dropout = 0.0f;
  return config;
}

TEST(TransformerTest, EncodeShape) {
  core::Rng rng(1);
  TransformerEncoder enc(TinyConfig(), &rng);
  enc.SetTraining(false);
  tensor::Tensor h = enc.Encode({1, 2, 3, 4}, &rng);
  EXPECT_EQ(h.dim(0), 4);
  EXPECT_EQ(h.dim(1), 8);
}

TEST(TransformerTest, MlmLogitsShape) {
  core::Rng rng(1);
  TransformerEncoder enc(TinyConfig(), &rng);
  enc.SetTraining(false);
  tensor::Tensor h = enc.Encode({1, 2, 3, 4}, &rng);
  tensor::Tensor logits = enc.MlmLogits(h, {1, 3});
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 50);
}

TEST(TransformerTest, DuplicateFlags) {
  auto flags = TransformerEncoder::DuplicateFlags({2, 10, 11, 10, 2});
  // id 2 is [CLS] (special): never flagged. id 10 duplicated: flagged.
  EXPECT_EQ(flags, (std::vector<int>{0, 1, 0, 1, 0}));
}

/// The std::map counting DuplicateFlags used before the sort-based count.
std::vector<int> MapDuplicateFlags(const std::vector<int>& ids) {
  std::map<int, int> counts;
  for (int id : ids) ++counts[id];
  std::vector<int> flags(ids.size(), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= text::SpecialTokens::kCount && counts[ids[i]] >= 2) {
      flags[i] = 1;
    }
  }
  return flags;
}

TEST(TransformerTest, DuplicateFlagsMatchMapCounting) {
  core::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    // Short alphabets force repeats; long ones make them rare. Ids start
    // at 0 so special tokens are drawn too.
    const int length = static_cast<int>(rng.NextU64(130));
    const int alphabet = 1 + static_cast<int>(rng.NextU64(300));
    std::vector<int> ids(static_cast<size_t>(length));
    for (int& id : ids) {
      id = static_cast<int>(rng.NextU64(static_cast<uint64_t>(alphabet)));
    }
    EXPECT_EQ(TransformerEncoder::DuplicateFlags(ids), MapDuplicateFlags(ids))
        << "trial " << trial;
  }
}

TEST(LinearTest, GraphFreeForwardMatchesTrackedForward) {
  core::Rng rng(3);
  Linear linear(7, 9, &rng);
  tensor::Tensor x = tensor::Tensor::Zeros({5, 7});
  for (int64_t i = 0; i < x.numel(); ++i) x.data()[i] = rng.Gaussian();
  // Bias values matter: the in-place add must land on every element.
  for (tensor::Tensor& p : linear.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) p.data()[i] = rng.Gaussian();
  }
  const tensor::Tensor tracked = linear.Forward(x);
  EXPECT_TRUE(static_cast<bool>(tracked.impl()->backward_fn));
  tensor::NoGradGuard no_grad;
  const tensor::Tensor free = linear.Forward(x);
  EXPECT_FALSE(static_cast<bool>(free.impl()->backward_fn));
  ASSERT_EQ(free.numel(), tracked.numel());
  EXPECT_EQ(std::memcmp(free.data(), tracked.data(),
                        sizeof(float) * static_cast<size_t>(free.numel())),
            0);
}

TEST(TransformerTest, DeterministicInEvalMode) {
  core::Rng rng(1);
  TransformerEncoder enc(TinyConfig(), &rng);
  enc.SetTraining(false);
  core::Rng r1(5), r2(99);
  tensor::Tensor a = enc.Encode({1, 2, 3}, &r1);
  tensor::Tensor b = enc.Encode({1, 2, 3}, &r2);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(TransformerTest, RejectsOverlongSequence) {
  core::Rng rng(1);
  TransformerEncoder enc(TinyConfig(), &rng);
  std::vector<int> ids(17, 1);
  EXPECT_DEATH(enc.Encode(ids, &rng), "max_seq_len");
}

/// Parameter gradients of `module`, by name.
std::map<std::string, std::vector<float>> ParamGrads(const Module& module) {
  std::map<std::string, std::vector<float>> out;
  for (const auto& np : module.NamedParameters()) {
    out[np.name].assign(np.param.grad(), np.param.grad() + np.param.numel());
  }
  return out;
}

/// Fixed loss weights for a [rows, cols] output.
tensor::Tensor LossWeights(int rows, int cols) {
  tensor::Tensor w = tensor::Tensor::Zeros({rows, cols});
  core::Rng rng(7);
  NormalInit(&w, 1.0f, &rng);
  return w;
}

/// Expects equal (as floats) gradients under every name.
void ExpectSameGrads(const std::map<std::string, std::vector<float>>& got,
                     const std::map<std::string, std::vector<float>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, grad] : want) {
    const std::vector<float>& g = got.at(name);
    ASSERT_EQ(g.size(), grad.size()) << name;
    int mismatches = 0;
    for (size_t i = 0; i < g.size(); ++i) mismatches += g[i] != grad[i];
    EXPECT_EQ(mismatches, 0) << name;
  }
}

struct RowPass {
  uint32_t loss_bits = 0;
  std::map<std::string, std::vector<float>> grads;
  uint64_t next_draw = 0;  ///< the dropout stream's position afterwards
};

/// One training step's forward and backward over `ids`, with a loss that
/// reads only `rows` of the encoder output. `one_row` passes the rows to
/// the encoder; otherwise it computes every row and selects after.
RowPass RunRowPass(TransformerEncoder* enc, const std::vector<int>& ids,
                   const std::vector<int>& rows, bool one_row) {
  enc->ZeroGrad();
  core::Rng rng(123);
  const tensor::Tensor out =
      one_row ? enc->Encode(ids, &rng, &rows)
              : ops::SelectRows(enc->Encode(ids, &rng), rows);
  tensor::Tensor loss = ops::Sum(ops::Mul(
      out, LossWeights(static_cast<int>(rows.size()), out.dim(1))));
  loss.Backward();
  RowPass pass;
  const float value = loss.item();
  std::memcpy(&pass.loss_bits, &value, sizeof(value));
  pass.grads = ParamGrads(*enc);
  pass.next_draw = rng.NextU64();
  return pass;
}

TEST(TransformerTest, QueryRowsMatchFullLayerUnderGradAndDropout) {
  // The fixture LM's layout; T spans one to three attention row tiles.
  TransformerConfig config;
  config.vocab_size = 70;
  config.max_seq_len = 96;
  config.dim = 32;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 64;
  config.dropout = 0.3f;
  core::Rng init(9);
  TransformerEncoder enc(config, &init);
  enc.Train();
  for (tensor::kernels::KernelVariant variant :
       {tensor::kernels::KernelVariant::kScalar,
        tensor::kernels::KernelVariant::kAvx2}) {
    tensor::kernels::ScopedKernelVariant scoped(variant);
    SCOPED_TRACE(tensor::kernels::KernelVariantName(
        tensor::kernels::ActiveKernelVariant()));
    for (int t : {5, 37, 90}) {
      core::Rng id_rng(static_cast<uint64_t>(t));
      std::vector<int> ids(static_cast<size_t>(t));
      for (int& id : ids) {
        id = static_cast<int>(id_rng.NextU64(config.vocab_size));
      }
      for (const std::vector<int>& rows : std::vector<std::vector<int>>{
               {0}, {t - 1}, {1, t / 2, t - 1}}) {
        SCOPED_TRACE("t=" + std::to_string(t) + " rows=" +
                     std::to_string(rows.size()) + " first=" +
                     std::to_string(rows[0]));
        const RowPass full = RunRowPass(&enc, ids, rows, false);
        const RowPass one_row = RunRowPass(&enc, ids, rows, true);
        EXPECT_EQ(one_row.loss_bits, full.loss_bits);
        EXPECT_EQ(one_row.next_draw, full.next_draw);
        ExpectSameGrads(one_row.grads, full.grads);
      }
    }
  }
}

TEST(FusedSdpaShapeTest, QueryRowSubsetMatchesFullPassUnderGradAndDropout) {
  const int t = 37, d = 16, heads = 2;
  const float scale = 1.0f / std::sqrt(8.0f);
  const std::vector<int> rows = {2, 20, 36};
  const int m = static_cast<int>(rows.size());
  const tensor::Tensor w = LossWeights(m, d);
  for (tensor::kernels::KernelVariant variant :
       {tensor::kernels::KernelVariant::kScalar,
        tensor::kernels::KernelVariant::kAvx2}) {
    tensor::kernels::ScopedKernelVariant scoped(variant);
    SCOPED_TRACE(tensor::kernels::KernelVariantName(
        tensor::kernels::ActiveKernelVariant()));
    for (float p : {0.0f, 0.3f}) {
      SCOPED_TRACE(p);
      core::Rng init(3);
      tensor::Tensor q = tensor::Tensor::Zeros({t, d}, true);
      tensor::Tensor k = tensor::Tensor::Zeros({t, d}, true);
      tensor::Tensor v = tensor::Tensor::Zeros({t, d}, true);
      NormalInit(&q, 1.0f, &init);
      NormalInit(&k, 1.0f, &init);
      NormalInit(&v, 1.0f, &init);
      tensor::Tensor q_sub = tensor::Tensor::Zeros({m, d}, true);
      tensor::Tensor k_sub = tensor::Tensor::Zeros({t, d}, true);
      tensor::Tensor v_sub = tensor::Tensor::Zeros({t, d}, true);
      for (int i = 0; i < m; ++i) {
        std::memcpy(q_sub.data() + i * d, q.data() + rows[i] * d,
                    sizeof(float) * d);
      }
      std::memcpy(k_sub.data(), k.data(), sizeof(float) * t * d);
      std::memcpy(v_sub.data(), v.data(), sizeof(float) * t * d);

      core::Rng full_rng(5);
      const tensor::Tensor full = ops::SelectRows(
          ops::FusedSdpa(q, k, v, heads, scale, p, &full_rng), rows);
      ops::Sum(ops::Mul(full, w)).Backward();
      core::Rng sub_rng(5);
      const tensor::Tensor sub =
          ops::FusedSdpa(q_sub, k_sub, v_sub, heads, scale, p, &sub_rng,
                         &rows);
      ops::Sum(ops::Mul(sub, w)).Backward();

      ASSERT_EQ(sub.dim(0), m);
      EXPECT_EQ(std::memcmp(sub.data(), full.data(),
                            sizeof(float) * static_cast<size_t>(m) * d),
                0);
      EXPECT_EQ(sub_rng.NextU64(), full_rng.NextU64());
      for (int i = 0; i < m; ++i) {
        for (int c = 0; c < d; ++c) {
          EXPECT_EQ(q_sub.grad()[i * d + c], q.grad()[rows[i] * d + c])
              << "row " << rows[i] << " col " << c;
        }
      }
      for (int64_t i = 0; i < k.numel(); ++i) {
        EXPECT_EQ(k_sub.grad()[i], k.grad()[i]) << "k at " << i;
        EXPECT_EQ(v_sub.grad()[i], v.grad()[i]) << "v at " << i;
      }
    }
  }
}

TEST(LstmTest, OutputShape) {
  core::Rng rng(1);
  Lstm lstm(6, 4, &rng);
  tensor::Tensor x = tensor::Tensor::Zeros({5, 6});
  NormalInit(&x, 1.0f, &rng);
  tensor::Tensor h = lstm.Forward(x);
  EXPECT_EQ(h.dim(0), 5);
  EXPECT_EQ(h.dim(1), 4);
}

TEST(LstmTest, StateEvolves) {
  core::Rng rng(1);
  Lstm lstm(2, 3, &rng);
  tensor::Tensor x = tensor::Tensor::Full({4, 2}, 1.0f);
  tensor::Tensor h = lstm.Forward(x);
  // Constant input still changes hidden state across steps.
  bool any_diff = false;
  for (int j = 0; j < 3; ++j) {
    if (std::fabs(h.at(0, j) - h.at(3, j)) > 1e-6f) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BiLstmTest, ConcatenatesDirections) {
  core::Rng rng(1);
  BiLstm bilstm(4, 3, &rng);
  EXPECT_EQ(bilstm.output_dim(), 6);
  tensor::Tensor x = tensor::Tensor::Zeros({5, 4});
  NormalInit(&x, 1.0f, &rng);
  tensor::Tensor h = bilstm.Forward(x);
  EXPECT_EQ(h.dim(0), 5);
  EXPECT_EQ(h.dim(1), 6);
}

TEST(BiLstmTest, BackwardGradFlows) {
  core::Rng rng(2);
  BiLstm bilstm(3, 2, &rng);
  tensor::Tensor x = tensor::Tensor::Zeros({4, 3}, /*requires_grad=*/true);
  NormalInit(&x, 1.0f, &rng);
  x.ZeroGrad();
  ops::Sum(bilstm.Forward(x)).Backward();
  float norm = 0.0f;
  for (int64_t i = 0; i < x.numel(); ++i) norm += std::fabs(x.grad()[i]);
  EXPECT_GT(norm, 0.0f);
}

TEST(AdamWTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 elementwise.
  tensor::Tensor w = tensor::Tensor::Zeros({4}, /*requires_grad=*/true);
  AdamWConfig config;
  config.lr = 0.1f;
  config.weight_decay = 0.0f;
  config.max_grad_norm = 0.0f;
  AdamW opt({w}, config);
  for (int step = 0; step < 300; ++step) {
    tensor::Tensor target = tensor::Tensor::Full({4}, 3.0f);
    tensor::Tensor diff = ops::Sub(w, target);
    tensor::Tensor loss = ops::Sum(ops::Mul(diff, diff));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w.at(i), 3.0f, 0.05f);
}

TEST(AdamWTest, WeightDecayShrinksWeights) {
  tensor::Tensor w = tensor::Tensor::Full({1}, 5.0f, true);
  AdamWConfig config;
  config.lr = 0.1f;
  config.weight_decay = 0.5f;
  AdamW opt({w}, config);
  w.ZeroGrad();  // zero gradient: only decay acts
  opt.Step();
  EXPECT_LT(w.at(0), 5.0f);
}

TEST(AdamWTest, GradClippingBoundsUpdate) {
  tensor::Tensor w = tensor::Tensor::Zeros({1}, true);
  AdamWConfig config;
  config.lr = 1.0f;
  config.max_grad_norm = 1e-6f;
  config.weight_decay = 0.0f;
  AdamW opt({w}, config);
  w.ZeroGrad();
  w.grad()[0] = 1e6f;
  opt.Step();
  // Clipped to tiny norm: Adam normalizes, but m/v ratio stays bounded;
  // the step must not explode.
  EXPECT_LT(std::fabs(w.at(0)), 1.1f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  core::Rng rng(1);
  Mlp a({4, 6, 2}, &rng);
  const std::string path = "/tmp/promptem_test_ckpt.bin";
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());

  core::Rng rng2(999);
  Mlp b({4, 6, 2}, &rng2);
  ASSERT_TRUE(LoadCheckpoint(&b, path).ok());
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].param.numel(); ++j) {
      EXPECT_EQ(pa[i].param.data()[j], pb[i].param.data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  core::Rng rng(1);
  Mlp a({4, 6, 2}, &rng);
  const std::string path = "/tmp/promptem_test_ckpt2.bin";
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  Mlp b({4, 8, 2}, &rng);
  EXPECT_FALSE(LoadCheckpoint(&b, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  core::Rng rng(1);
  Mlp a({2, 2}, &rng);
  EXPECT_FALSE(LoadCheckpoint(&a, "/tmp/does_not_exist_promptem").ok());
}

// Bare parameter holder for serialization edge cases the real layers
// never produce (zero-element tensors, no parameters, duplicate names).
class ParamBag : public Module {
 public:
  tensor::Tensor Add(const std::string& name, tensor::Tensor t) {
    return RegisterParameter(name, std::move(t));
  }
};

TEST(SerializeTest, ZeroElementTensorRoundTrips) {
  ParamBag a;
  a.Add("empty", tensor::Tensor::Zeros({0, 3}, true));
  tensor::Tensor w = a.Add("w", tensor::Tensor::Zeros({2, 2}, true));
  w.data()[3] = 7.0f;
  const std::string path = "/tmp/promptem_test_ckpt_zero.bin";
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  ParamBag b;
  b.Add("empty", tensor::Tensor::Zeros({0, 3}, true));
  tensor::Tensor w2 = b.Add("w", tensor::Tensor::Zeros({2, 2}, true));
  ASSERT_TRUE(LoadCheckpoint(&b, path).ok());
  EXPECT_EQ(w2.at(1, 1), 7.0f);
  std::remove(path.c_str());
}

TEST(SerializeTest, EmptyModuleRoundTrips) {
  ParamBag a;
  const std::string path = "/tmp/promptem_test_ckpt_empty.bin";
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  ParamBag b;
  EXPECT_TRUE(LoadCheckpoint(&b, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, DuplicateParamNamesRejectedOnSave) {
  ParamBag a;
  a.Add("w", tensor::Tensor::Zeros({2}, true));
  a.Add("w", tensor::Tensor::Zeros({2}, true));
  const std::string path = "/tmp/promptem_test_ckpt_dup.bin";
  core::Status st = SaveCheckpoint(a, path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveToUnwritablePathReturnsStatus) {
  core::Rng rng(1);
  Mlp a({2, 2}, &rng);
  core::Status st = SaveCheckpoint(a, "/no_such_dir_promptem/x.ckpt");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), core::StatusCode::kIOError);
}

TEST(SerializeTest, NonStrictSkipsShapeMismatchWithWarning) {
  core::Rng rng(1);
  Mlp a({4, 6, 2}, &rng);
  const std::string path = "/tmp/promptem_test_ckpt_nonstrict.bin";
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  core::Rng rng2(2);
  Mlp b({5, 8, 3}, &rng2);  // every parameter shape differs from a's
  auto before = b.NamedParameters();
  std::vector<float> first_values;
  for (const auto& np : before) first_values.push_back(np.param.data()[0]);
  // Strict keeps the hard error; non-strict skips every mismatched entry
  // and leaves the module's own values untouched.
  EXPECT_FALSE(LoadCheckpoint(&b, path, /*strict=*/true).ok());
  EXPECT_TRUE(LoadCheckpoint(&b, path, /*strict=*/false).ok());
  auto after = b.NamedParameters();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].param.data()[0], first_values[i]) << after[i].name;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, CopyParameters) {
  core::Rng rng1(1), rng2(2);
  Mlp a({3, 3}, &rng1);
  Mlp b({3, 3}, &rng2);
  ASSERT_TRUE(CopyParameters(a, &b).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].numel(); ++j) {
      EXPECT_EQ(pa[i].data()[j], pb[i].data()[j]);
    }
  }
}

TEST(SerializeTest, CopyParametersRejectsArchMismatch) {
  core::Rng rng(1);
  Mlp a({3, 3}, &rng);
  Mlp b({3, 4}, &rng);
  EXPECT_FALSE(CopyParameters(a, &b).ok());
}

}  // namespace
}  // namespace promptem::nn
