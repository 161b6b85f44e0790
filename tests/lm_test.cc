// Tests for corpus construction, MLM masking, pre-training, and the
// PretrainedLM bundle.

#include <cstdio>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "data/benchmarks.h"
#include "lm/corpus.h"
#include "lm/mlm.h"
#include "lm/pretrained_lm.h"

namespace promptem::lm {
namespace {

std::vector<data::GemDataset> OneSmallDataset() {
  data::BenchmarkGenOptions options;
  options.size_scale = 0.2;
  std::vector<data::GemDataset> out;
  out.push_back(data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 3,
                                        options));
  return out;
}

TEST(CorpusTest, BuildsPlainAndPairDocuments) {
  Corpus corpus = BuildCorpus(OneSmallDataset(), 1);
  ASSERT_FALSE(corpus.documents.empty());
  int with_label_word = 0;
  int plain = 0;
  for (const auto& doc : corpus.documents) {
    bool has_label = false;
    for (const auto& tok : doc) {
      if (tok == "similar" || tok == "different" || tok == "matched" ||
          tok == "mismatched" || tok == "relevant" || tok == "irrelevant") {
        has_label = true;
      }
    }
    if (has_label) {
      ++with_label_word;
    } else {
      ++plain;
    }
  }
  EXPECT_GT(with_label_word, 0);
  EXPECT_GT(plain, 0);
}

TEST(CorpusTest, DocumentsStartWithCls) {
  Corpus corpus = BuildCorpus(OneSmallDataset(), 1);
  for (const auto& doc : corpus.documents) {
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.front(), "[CLS]");
  }
}

TEST(CorpusTest, DeterministicPerSeed) {
  Corpus a = BuildCorpus(OneSmallDataset(), 9);
  Corpus b = BuildCorpus(OneSmallDataset(), 9);
  ASSERT_EQ(a.documents.size(), b.documents.size());
  EXPECT_EQ(a.documents[1], b.documents[1]);
}

TEST(CorpusTest, VocabKeepsLabelWords) {
  Corpus corpus = BuildCorpus(OneSmallDataset(), 1);
  text::Vocab vocab = BuildCorpusVocab(corpus, RequiredPromptTokens());
  for (const auto& word : RequiredPromptTokens()) {
    EXPECT_TRUE(vocab.Contains(word)) << word;
  }
}

TEST(MaskTest, MasksRoughlyFifteenPercent) {
  core::Rng rng(1);
  std::vector<int> ids(1000, 100);
  MlmInstance inst = MaskTokens(ids, 200, 0.15f, &rng);
  int masked = 0;
  for (int t : inst.targets) masked += t >= 0 ? 1 : 0;
  EXPECT_NEAR(masked / 1000.0, 0.15, 0.05);
}

TEST(MaskTest, NeverCorruptsSpecialTokens) {
  core::Rng rng(2);
  std::vector<int> ids = {text::SpecialTokens::kCls, 100,
                          text::SpecialTokens::kSep};
  for (int trial = 0; trial < 50; ++trial) {
    MlmInstance inst = MaskTokens(ids, 200, 0.99f, &rng);
    EXPECT_EQ(inst.targets[0], -1);
    EXPECT_EQ(inst.targets[2], -1);
    EXPECT_EQ(inst.input_ids[0], text::SpecialTokens::kCls);
  }
}

TEST(MaskTest, GuaranteesAtLeastOneTarget) {
  core::Rng rng(3);
  std::vector<int> ids = {text::SpecialTokens::kCls, 42};
  MlmInstance inst = MaskTokens(ids, 200, 0.0f, &rng);
  int masked = 0;
  for (int t : inst.targets) masked += t >= 0 ? 1 : 0;
  EXPECT_EQ(masked, 1);
}

TEST(MaskTest, TargetsHoldOriginalIds) {
  core::Rng rng(4);
  std::vector<int> ids(50, 77);
  MlmInstance inst = MaskTokens(ids, 200, 0.5f, &rng);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (inst.targets[i] >= 0) EXPECT_EQ(inst.targets[i], 77);
  }
}

TEST(PretrainTest, LossDecreases) {
  auto datasets = OneSmallDataset();
  Corpus corpus = BuildCorpus(datasets, 1);
  text::Vocab vocab = BuildCorpusVocab(corpus, RequiredPromptTokens());
  nn::TransformerConfig config;
  config.vocab_size = vocab.size();
  config.dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.max_seq_len = 96;
  core::Rng rng(5);
  nn::TransformerEncoder encoder(config, &rng);
  MlmOptions options;
  options.epochs = 2;
  auto losses = PretrainMlm(&encoder, corpus, vocab, options, &rng);
  ASSERT_EQ(losses.size(), 2u);
  EXPECT_LT(losses[1], losses[0]);
  EXPECT_GT(losses[0], 0.0f);
}

// Pre-training runs TrainLoop's sequential mode: one document per step,
// every op on the loop thread. The pool size must not move a parameter
// bit or an epoch loss.
TEST(PretrainTest, BitwiseIdenticalAcrossPoolSizes) {
  Corpus corpus = BuildCorpus(OneSmallDataset(), 1);
  const text::Vocab vocab = BuildCorpusVocab(corpus, RequiredPromptTokens());
  corpus.documents.resize(6);
  nn::TransformerConfig config;
  config.vocab_size = vocab.size();
  config.dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.max_seq_len = 96;
  auto pretrain = [&](int threads) {
    core::SetNumThreads(threads);
    core::Rng rng(11);
    nn::TransformerEncoder encoder(config, &rng);
    MlmOptions options;
    options.epochs = 2;
    options.always_mask_words = {"similar", "different"};
    std::vector<float> losses =
        PretrainMlm(&encoder, corpus, vocab, options, &rng);
    std::vector<float> params;
    for (const auto& p : encoder.NamedParameters()) {
      params.insert(params.end(), p.param.data(),
                    p.param.data() + p.param.numel());
    }
    return std::make_pair(losses, params);
  };
  const auto single = pretrain(1);
  const auto pooled = pretrain(4);
  core::SetNumThreads(0);
  ASSERT_EQ(single.first.size(), 2u);
  ASSERT_EQ(pooled.first.size(), 2u);
  ASSERT_EQ(single.second.size(), pooled.second.size());
  EXPECT_EQ(std::memcmp(single.first.data(), pooled.first.data(),
                        single.first.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(single.second.data(), pooled.second.data(),
                        single.second.size() * sizeof(float)),
            0);
}

TEST(PretrainedLmTest, PretrainSaveLoadCloneRoundTrip) {
  auto datasets = OneSmallDataset();
  Corpus corpus = BuildCorpus(datasets, 1);
  nn::TransformerConfig config;
  config.dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.max_seq_len = 96;
  MlmOptions options;
  options.epochs = 1;
  core::Rng rng(6);
  auto lm = PretrainedLM::Pretrain(corpus, config, options,
                                   RequiredPromptTokens(), &rng);
  ASSERT_NE(lm, nullptr);
  EXPECT_EQ(lm->config().vocab_size, lm->vocab().size());

  const std::string prefix = "/tmp/promptem_lm_test";
  ASSERT_TRUE(lm->Save(prefix).ok());
  auto loaded = PretrainedLM::Load(prefix);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->vocab().size(), lm->vocab().size());

  // Clone carries identical weights.
  core::Rng clone_rng(7);
  auto clone = lm->CloneEncoder(&clone_rng);
  auto p_orig = lm->encoder().NamedParameters();
  auto p_clone = clone->NamedParameters();
  ASSERT_EQ(p_orig.size(), p_clone.size());
  for (size_t i = 0; i < p_orig.size(); ++i) {
    for (int64_t j = 0; j < p_orig[i].param.numel(); ++j) {
      ASSERT_EQ(p_orig[i].param.data()[j], p_clone[i].param.data()[j]);
    }
  }
  std::remove((prefix + ".vocab").c_str());
  std::remove((prefix + ".config").c_str());
  std::remove((prefix + ".ckpt").c_str());
}

TEST(PretrainedLmTest, LoadMissingFails) {
  EXPECT_FALSE(PretrainedLM::Load("/tmp/nonexistent_promptem_lm").ok());
}

TEST(PretrainedLmTest, AlwaysMaskWordsResolved) {
  // Pretrain with forced label-word masking; just verifies the pipeline
  // accepts surface-form words and runs.
  auto datasets = OneSmallDataset();
  Corpus corpus = BuildCorpus(datasets, 1);
  nn::TransformerConfig config;
  config.dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 32;
  config.max_seq_len = 96;
  MlmOptions options;
  options.epochs = 1;
  options.always_mask_words = {"similar", "different"};
  core::Rng rng(8);
  auto lm = PretrainedLM::Pretrain(corpus, config, options,
                                   RequiredPromptTokens(), &rng);
  EXPECT_FALSE(lm->pretrain_losses().empty());
}

}  // namespace
}  // namespace promptem::lm
