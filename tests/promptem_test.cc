// Tests for the PromptEM core: templates, verbalizer, encoding, metrics,
// trainer, MC-Dropout uncertainty, pseudo-label selection, and the
// lightweight self-training loop. A tiny shared LM is pre-trained once per
// test binary.

#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "lm/pretrained_lm.h"
#include "promptem/promptem.h"

namespace promptem::em {
namespace {

// ---------------------------------------------------------------------------
// Shared tiny LM fixture (pre-trained once).
// ---------------------------------------------------------------------------

const lm::PretrainedLM& TinyLM() {
  static const lm::PretrainedLM* kLm = [] {
    data::BenchmarkGenOptions small;
    small.size_scale = 0.3;
    std::vector<data::GemDataset> datasets = {
        data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 11, small),
        data::GenerateBenchmark(data::BenchmarkKind::kSemiRel, 11, small),
    };
    lm::Corpus corpus = lm::BuildCorpus(datasets, 11);
    nn::TransformerConfig config;
    config.dim = 16;
    config.num_layers = 1;
    config.num_heads = 2;
    config.ffn_dim = 32;
    config.max_seq_len = 96;
    lm::MlmOptions options;
    options.epochs = 2;
    options.always_mask_words = {"matched",    "similar",   "relevant",
                                 "mismatched", "different", "irrelevant"};
    core::Rng rng(11);
    return lm::PretrainedLM::Pretrain(corpus, config, options,
                                      lm::RequiredPromptTokens(), &rng)
        .release();
  }();
  return *kLm;
}

data::GemDataset TestDataset() {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.3;
  return data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 11, small);
}

// ---------------------------------------------------------------------------
// Templates.
// ---------------------------------------------------------------------------

TEST(TemplatesTest, T1ShapeMatchesPaper) {
  // T1(x) = serialize(e) serialize(e') "They are [MASK]".
  text::Vocab vocab;
  vocab.AddToken("they");
  vocab.AddToken("are");
  auto slots = BuildTemplate(TemplateType::kT1, TemplateMode::kHard, vocab);
  ASSERT_GE(slots.size(), 6u);
  EXPECT_EQ(slots.front().kind, TemplateSlot::Kind::kToken);  // [CLS]
  EXPECT_EQ(slots.back().kind, TemplateSlot::Kind::kMask);    // ends in MASK
  int left = 0, right = 0;
  for (const auto& s : slots) {
    left += s.kind == TemplateSlot::Kind::kLeftEntity;
    right += s.kind == TemplateSlot::Kind::kRightEntity;
  }
  EXPECT_EQ(left, 1);
  EXPECT_EQ(right, 1);
}

TEST(TemplatesTest, T2MaskBetweenEntities) {
  // T2(x) = serialize(e) is [MASK] to serialize(e').
  text::Vocab vocab;
  vocab.AddToken("is");
  vocab.AddToken("to");
  auto slots = BuildTemplate(TemplateType::kT2, TemplateMode::kHard, vocab);
  int mask_pos = -1, left_pos = -1, right_pos = -1;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].kind == TemplateSlot::Kind::kMask) {
      mask_pos = static_cast<int>(i);
    }
    if (slots[i].kind == TemplateSlot::Kind::kLeftEntity) {
      left_pos = static_cast<int>(i);
    }
    if (slots[i].kind == TemplateSlot::Kind::kRightEntity) {
      right_pos = static_cast<int>(i);
    }
  }
  EXPECT_GT(mask_pos, left_pos);
  EXPECT_LT(mask_pos, right_pos);
}

TEST(TemplatesTest, ContinuousReplacesPromptWordsWithSlots) {
  text::Vocab vocab;
  auto slots =
      BuildTemplate(TemplateType::kT1, TemplateMode::kContinuous, vocab);
  int prompts = 0;
  for (const auto& s : slots) {
    prompts += s.kind == TemplateSlot::Kind::kPrompt;
  }
  EXPECT_EQ(prompts, NumPromptSlots(TemplateType::kT1));
}

TEST(TemplatesTest, OverheadCountsNonEntitySlots) {
  text::Vocab vocab;
  vocab.AddToken("they");
  vocab.AddToken("are");
  vocab.AddToken("is");
  vocab.AddToken("to");
  for (auto type : {TemplateType::kT1, TemplateType::kT2}) {
    auto slots = BuildTemplate(type, TemplateMode::kHard, vocab);
    EXPECT_EQ(TemplateOverhead(type),
              static_cast<int>(slots.size()) - 2)
        << TemplateTypeName(type);
  }
}

// ---------------------------------------------------------------------------
// Verbalizer (Eq. 1).
// ---------------------------------------------------------------------------

text::Vocab VerbalizerVocab() {
  text::Vocab vocab;
  for (const auto& w : lm::RequiredPromptTokens()) vocab.AddToken(w);
  for (int i = 0; i < 20; ++i) vocab.AddToken("w" + std::to_string(i));
  return vocab;
}

TEST(VerbalizerTest, DesignedWordSetsPerClass) {
  text::Vocab vocab = VerbalizerVocab();
  Verbalizer v(vocab, LabelWordsType::kDesigned);
  EXPECT_EQ(v.WordIds(1).size(), 3u);
  EXPECT_EQ(v.WordIds(0).size(), 3u);
  EXPECT_NE(v.WordIds(0), v.WordIds(1));
}

TEST(VerbalizerTest, SimpleWordSetsSingleton) {
  text::Vocab vocab = VerbalizerVocab();
  Verbalizer v(vocab, LabelWordsType::kSimple);
  EXPECT_EQ(v.WordIds(1).size(), 1u);
  EXPECT_EQ(vocab.ToToken(v.WordIds(1)[0]), "matched");
}

TEST(VerbalizerTest, ClassProbsImplementEq1) {
  text::Vocab vocab = VerbalizerVocab();
  Verbalizer v(vocab, LabelWordsType::kDesigned);
  // Put all probability mass on one yes-word: P(yes) = 1/3, P(no) = 0.
  tensor::Tensor logits = tensor::Tensor::Full({1, vocab.size()}, -30.0f);
  logits.set(0, v.WordIds(1)[0], 30.0f);
  tensor::Tensor probs = v.ClassProbs(logits);
  EXPECT_NEAR(probs.at(0, 1), 1.0f / 3.0f, 1e-3f);
  EXPECT_NEAR(probs.at(0, 0), 0.0f, 1e-3f);
}

TEST(VerbalizerTest, LossLowWhenCorrectWordLikely) {
  text::Vocab vocab = VerbalizerVocab();
  Verbalizer v(vocab, LabelWordsType::kDesigned);
  tensor::Tensor logits = tensor::Tensor::Full({1, vocab.size()}, -10.0f);
  for (int id : v.WordIds(1)) logits.set(0, id, 10.0f);
  const float loss_correct = v.Loss(logits, 1).item();
  const float loss_wrong = v.Loss(logits, 0).item();
  // Eq. 1 averages over m label words, so P(y) <= 1/m and the loss floor
  // is ln(m) = ln(3) even for a perfect prediction.
  EXPECT_NEAR(loss_correct, std::log(3.0f), 0.05f);
  EXPECT_GT(loss_wrong, 5.0f);
}

TEST(VerbalizerTest, PredictProbsNormalized) {
  text::Vocab vocab = VerbalizerVocab();
  Verbalizer v(vocab, LabelWordsType::kDesigned);
  tensor::Tensor logits = tensor::Tensor::Zeros({1, vocab.size()});
  auto probs = v.PredictProbs(logits);
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-5f);
}

TEST(VerbalizerTest, LossDifferentiable) {
  text::Vocab vocab = VerbalizerVocab();
  Verbalizer v(vocab, LabelWordsType::kDesigned);
  tensor::Tensor logits =
      tensor::Tensor::Zeros({1, vocab.size()}, /*requires_grad=*/true);
  logits.ZeroGrad();
  v.Loss(logits, 1).Backward();
  float norm = 0.0f;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    norm += std::fabs(logits.grad()[i]);
  }
  EXPECT_GT(norm, 0.0f);
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

TEST(EncodingTest, BudgetEnforced) {
  data::GemDataset ds = TestDataset();
  PairEncoder encoder(&TinyLM().vocab(), /*per_side_budget=*/10);
  encoder.FitSummarizer(ds);
  for (const auto& p : ds.test) {
    EncodedPair x = encoder.Encode(ds, p);
    EXPECT_LE(x.left_ids.size(), 10u);
    EXPECT_LE(x.right_ids.size(), 10u);
    EXPECT_EQ(x.label, p.label);
  }
}

TEST(EncodingTest, MakePairEncoderFitsModelLimit) {
  data::GemDataset ds = TestDataset();
  PairEncoder encoder = MakePairEncoder(TinyLM(), ds);
  const int overhead = std::max(TemplateOverhead(TemplateType::kT1),
                                TemplateOverhead(TemplateType::kT2));
  EXPECT_LE(2 * encoder.per_side_budget() + overhead,
            TinyLM().config().max_seq_len);
}

TEST(EncodingTest, EncodeAllPreservesOrderAndCount) {
  data::GemDataset ds = TestDataset();
  PairEncoder encoder = MakePairEncoder(TinyLM(), ds);
  auto all = encoder.EncodeAll(ds, ds.valid);
  ASSERT_EQ(all.size(), ds.valid.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].label, ds.valid[i].label);
  }
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

TEST(MetricsTest, PerfectPrediction) {
  Metrics m = ComputeMetrics({1, 0, 1}, {1, 0, 1});
  EXPECT_DOUBLE_EQ(m.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(m.F1(), 1.0);
}

TEST(MetricsTest, KnownConfusion) {
  // TP=1 FP=1 FN=1 TN=1.
  Metrics m = ComputeMetrics({1, 1, 0, 0}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(m.Precision(), 0.5);
  EXPECT_DOUBLE_EQ(m.Recall(), 0.5);
  EXPECT_DOUBLE_EQ(m.F1(), 0.5);
  EXPECT_DOUBLE_EQ(m.Tnr(), 0.5);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.5);
}

TEST(MetricsTest, DegenerateCasesZero) {
  Metrics m = ComputeMetrics({0, 0}, {1, 1});
  EXPECT_DOUBLE_EQ(m.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(m.F1(), 0.0);
}

TEST(MetricsTest, ToStringFormatsPercent) {
  Metrics m = ComputeMetrics({1}, {1});
  EXPECT_EQ(m.ToString(), "P=100.0 R=100.0 F1=100.0");
}

// ---------------------------------------------------------------------------
// Models + trainer.
// ---------------------------------------------------------------------------

struct EncodedFixture {
  std::vector<EncodedPair> train;
  std::vector<EncodedPair> valid;
  std::vector<EncodedPair> test;
};

EncodedFixture MakeEncoded() {
  data::GemDataset ds = TestDataset();
  PairEncoder encoder = MakePairEncoder(TinyLM(), ds);
  EncodedFixture f;
  core::Rng rng(21);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.25, &rng);
  f.train = encoder.EncodeAll(ds, split.labeled);
  f.valid = encoder.EncodeAll(ds, split.valid);
  f.test = encoder.EncodeAll(ds, split.test);
  return f;
}

TEST(PromptModelTest, LossFiniteAndProbsNormalized) {
  core::Rng rng(31);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng frng(1);
  tensor::Tensor loss = model.Loss(f.train[0], f.train[0].label, &frng);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 0.0f);
  auto probs = model.Probs(f.train[0], &frng);
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-4f);
}

TEST(PromptModelTest, HardTemplateHasNoPromptParams) {
  core::Rng rng(31);
  PromptModelConfig config;
  config.template_mode = TemplateMode::kHard;
  PromptModel model(TinyLM(), config, &rng);
  for (const auto& np : model.NamedParameters()) {
    EXPECT_EQ(np.name.find("prompt"), std::string::npos) << np.name;
  }
}

TEST(PromptModelTest, ContinuousTemplateAddsPromptParams) {
  core::Rng rng(31);
  PromptModelConfig config;
  config.template_mode = TemplateMode::kContinuous;
  PromptModel model(TinyLM(), config, &rng);
  bool has_prompt = false;
  bool has_lstm = false;
  for (const auto& np : model.NamedParameters()) {
    if (np.name == "prompt_embeddings") has_prompt = true;
    if (np.name.find("prompt_lstm") != std::string::npos) has_lstm = true;
  }
  EXPECT_TRUE(has_prompt);
  EXPECT_TRUE(has_lstm);
}

TEST(PromptModelTest, PromptEmbeddingsReceiveGradient) {
  core::Rng rng(31);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng frng(1);
  model.ZeroGrad();
  model.Loss(f.train[0], 1, &frng).Backward();
  for (const auto& np : model.NamedParameters()) {
    if (np.name == "prompt_embeddings") {
      float norm = 0.0f;
      for (int64_t i = 0; i < np.param.numel(); ++i) {
        norm += std::fabs(np.param.grad()[i]);
      }
      EXPECT_GT(norm, 0.0f);
    }
  }
}

TEST(FinetuneModelTest, LossAndProbs) {
  core::Rng rng(31);
  FinetuneModel model(TinyLM(), &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng frng(1);
  EXPECT_TRUE(std::isfinite(model.Loss(f.train[0], 0, &frng).item()));
  auto probs = model.Probs(f.train[0], &frng);
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-4f);
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  core::Rng rng(33);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  train::LoopOptions options;
  options.epochs = 4;
  options.lr = 5e-3f;
  train::LoopResult result =
      TrainClassifier(&model, f.train, f.valid, options);
  ASSERT_EQ(result.epoch_losses.size(), 4u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  EXPECT_GE(result.best_epoch, 0);
}

TEST(TrainerTest, SnapshotRestoreRoundTrip) {
  core::Rng rng(34);
  FinetuneModel model(TinyLM(), &rng);
  auto snapshot = train::SnapshotModuleParams(model);
  // Perturb.
  for (auto& p : model.Parameters()) p.data()[0] += 1.0f;
  train::RestoreModuleParams(&model, snapshot);
  auto params = model.Parameters();
  size_t i = 0;
  for (auto& p : params) {
    EXPECT_EQ(p.data()[0], snapshot[i++][0]);
  }
}

/// Copies the model's parameters after every per-epoch evaluation.
class EvalSnapshotObserver final : public train::TrainObserver {
 public:
  explicit EvalSnapshotObserver(const nn::Module* module) : module_(module) {}
  void OnEvalEnd(const train::EvalStats&) override {
    snapshots.push_back(train::SnapshotModuleParams(*module_));
  }

  std::vector<std::vector<std::vector<float>>> snapshots;

 private:
  const nn::Module* module_;
};

TEST(TrainerTest, TrainClassifierRestoresBestEpochAndDropsSnapshot) {
  core::Rng rng(36);
  FinetuneModel model(TinyLM(), &rng);
  EncodedFixture f = MakeEncoded();
  EvalSnapshotObserver observer(&model);
  train::LoopOptions options;
  options.epochs = 4;
  options.observer = &observer;
  train::LoopResult result =
      TrainClassifier(&model, f.train, f.valid, options);
  EXPECT_TRUE(result.best_snapshot.empty());
  ASSERT_EQ(observer.snapshots.size(), 4u);
  // An early best epoch, so restoring it moves the weights.
  ASSERT_GE(result.best_epoch, 1);
  ASSERT_LT(result.best_epoch, options.epochs);
  const auto weights = train::SnapshotModuleParams(model);
  EXPECT_EQ(weights,
            observer.snapshots[static_cast<size_t>(result.best_epoch - 1)]);
  EXPECT_NE(weights, observer.snapshots.back());
}

TEST(TrainerTest, EvaluateDeterministicInEvalMode) {
  core::Rng rng(35);
  FinetuneModel model(TinyLM(), &rng);
  EncodedFixture f = MakeEncoded();
  Metrics a = Evaluate(&model, f.test);
  Metrics b = Evaluate(&model, f.test);
  EXPECT_EQ(a.tp, b.tp);
  EXPECT_EQ(a.fp, b.fp);
}

// ---------------------------------------------------------------------------
// Uncertainty (MC-Dropout, MC-EL2N).
// ---------------------------------------------------------------------------

TEST(UncertaintyTest, EstimateInRange) {
  core::Rng rng(41);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng mc_rng(2);
  McEstimate est = McDropoutEstimate(&model, f.train[0], 10, &mc_rng);
  EXPECT_GE(est.mean_pos_prob, 0.0f);
  EXPECT_LE(est.mean_pos_prob, 1.0f);
  EXPECT_GE(est.uncertainty, 0.0f);
  EXPECT_GE(est.confidence, 0.5f);
  EXPECT_EQ(est.pseudo_label, est.mean_pos_prob >= 0.5f ? 1 : 0);
}

TEST(UncertaintyTest, DropoutMakesPassesVary) {
  core::Rng rng(42);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng mc_rng(3);
  McEstimate est = McDropoutEstimate(&model, f.train[0], 10, &mc_rng);
  // With dropout 0.1 and an untrained head, stochastic passes differ.
  EXPECT_GT(est.uncertainty, 0.0f);
}

TEST(UncertaintyTest, RestoresTrainingMode) {
  core::Rng rng(43);
  FinetuneModel model(TinyLM(), &rng);
  model.SetTraining(false);
  EncodedFixture f = MakeEncoded();
  core::Rng mc_rng(4);
  McDropoutEstimate(&model, f.train[0], 3, &mc_rng);
  EXPECT_FALSE(model.training());
}

TEST(UncertaintyTest, El2nReflectsError) {
  core::Rng rng(44);
  FinetuneModel model(TinyLM(), &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng mc_rng(5);
  const float score_as_0 = McEl2nScore(&model, f.train[0], 0, 10, &mc_rng);
  const float score_as_1 = McEl2nScore(&model, f.train[0], 1, 10, &mc_rng);
  // Exactly one label agrees better with the model's prediction.
  EXPECT_NE(score_as_0, score_as_1);
  EXPECT_GE(score_as_0, 0.0f);
  EXPECT_LE(score_as_0, std::sqrt(2.0f) + 1e-5f);
}

TEST(UncertaintyTest, El2nBatchMatchesScalar) {
  core::Rng rng(45);
  FinetuneModel model(TinyLM(), &rng);
  EncodedFixture f = MakeEncoded();
  std::vector<EncodedPair> xs(
      f.train.begin(),
      f.train.begin() + std::min<size_t>(3, f.train.size()));
  core::Rng batch_rng(6);
  std::vector<float> batch = McEl2nScoreBatch(&model, xs, 4, &batch_rng);
  ASSERT_EQ(batch.size(), xs.size());
  // Both entry points draw one base seed per sample from the caller's rng
  // in order, so replaying the scalar path with a same-seeded rng must
  // reproduce the batch scores exactly.
  core::Rng scalar_rng(6);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_FLOAT_EQ(
        batch[i],
        McEl2nScore(&model, xs[i], xs[i].label, 4, &scalar_rng));
  }
}

TEST(UncertaintyTest, El2nBatchRejectsUnlabeledPairs) {
  core::Rng rng(46);
  FinetuneModel model(TinyLM(), &rng);
  EncodedFixture f = MakeEncoded();
  std::vector<EncodedPair> xs(f.train.begin(), f.train.begin() + 2);
  xs[1].label = -1;  // unlabeled pair slipped into a pruning batch
  core::Rng mc_rng(7);
  EXPECT_DEATH(McEl2nScoreBatch(&model, xs, 2, &mc_rng), "labeled pairs");
}

// ---------------------------------------------------------------------------
// Pseudo-label selection.
// ---------------------------------------------------------------------------

TEST(KMeansTest, SeparatesObviousClusters) {
  std::vector<std::vector<float>> points = {
      {0.0f, 0.0f}, {0.1f, 0.0f}, {0.0f, 0.1f},
      {5.0f, 5.0f}, {5.1f, 5.0f}, {5.0f, 5.1f}};
  core::Rng rng(7);
  std::vector<int> assignment;
  std::vector<double> distance;
  KMeans(points, 2, 10, &rng, &assignment, &distance);
  EXPECT_EQ(assignment[0], assignment[1]);
  EXPECT_EQ(assignment[3], assignment[4]);
  EXPECT_NE(assignment[0], assignment[3]);
  for (double d : distance) EXPECT_LT(d, 0.2);
}

TEST(PseudoLabelTest, SelectsRequestedFraction) {
  core::Rng rng(51);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng sel_rng(8);
  PseudoLabelResult result = SelectPseudoLabels(
      &model, f.test, PseudoLabelStrategy::kUncertainty, 0.25, 5, &sel_rng);
  EXPECT_EQ(result.indices.size(),
            static_cast<size_t>(f.test.size() * 0.25 + 0.5));
  EXPECT_EQ(result.indices.size(), result.pseudo_labels.size());
}

TEST(PseudoLabelTest, AllStrategiesRun) {
  core::Rng rng(52);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  EmbeddingFn embed = [&model](const EncodedPair& x, core::Rng* r) {
    tensor::Tensor e = model.PairEmbedding(x, r);
    return std::vector<float>(e.data(), e.data() + e.numel());
  };
  for (auto strategy :
       {PseudoLabelStrategy::kUncertainty, PseudoLabelStrategy::kConfidence,
        PseudoLabelStrategy::kClustering}) {
    core::Rng sel_rng(9);
    PseudoLabelResult result =
        SelectPseudoLabels(&model, f.test, strategy, 0.2, 3, &sel_rng, embed);
    EXPECT_FALSE(result.indices.empty())
        << PseudoLabelStrategyName(strategy);
    EXPECT_GE(result.tpr, 0.0);
    EXPECT_LE(result.tpr, 1.0);
    EXPECT_GE(result.tnr, 0.0);
    EXPECT_LE(result.tnr, 1.0);
  }
}

TEST(PseudoLabelTest, UncertaintySelectsLeastUncertainFirst) {
  core::Rng rng(53);
  PromptModel model(TinyLM(), PromptModelConfig{}, &rng);
  EncodedFixture f = MakeEncoded();
  core::Rng sel_rng(10);
  // Collect all estimates, then confirm selected indices have lower
  // uncertainty than the unselected median.
  PseudoLabelResult result = SelectPseudoLabels(
      &model, f.test, PseudoLabelStrategy::kUncertainty, 0.2, 5, &sel_rng);
  EXPECT_FALSE(result.indices.empty());
}

// ---------------------------------------------------------------------------
// Self-training (Algorithm 1).
// ---------------------------------------------------------------------------

SelfTrainingConfig FastStConfig() {
  SelfTrainingConfig config;
  config.teacher_options.epochs = 3;
  config.teacher_options.lr = 5e-3f;
  config.student_options.epochs = 3;
  config.student_options.lr = 5e-3f;
  config.mc_passes = 3;
  config.prune_every = 2;
  return config;
}

TEST(SelfTrainingTest, ProducesModelAndStats) {
  EncodedFixture f = MakeEncoded();
  core::Rng factory_rng(61);
  ModelFactory factory = [&factory_rng]() -> std::unique_ptr<PairClassifier> {
    return std::make_unique<PromptModel>(TinyLM(), PromptModelConfig{},
                                         &factory_rng);
  };
  SelfTrainingStats stats;
  auto model = RunSelfTraining(factory, f.train, f.test, f.valid,
                               FastStConfig(), &stats);
  ASSERT_NE(model, nullptr);
  EXPECT_FALSE(stats.teacher_result.epoch_losses.empty());
  EXPECT_FALSE(stats.pseudo.indices.empty());
  EXPECT_GT(stats.student_samples, 0);
  EXPECT_GT(stats.teacher_seconds, 0.0);
}

TEST(SelfTrainingTest, WithoutLstReturnsTeacher) {
  EncodedFixture f = MakeEncoded();
  core::Rng factory_rng(62);
  ModelFactory factory = [&factory_rng]() -> std::unique_ptr<PairClassifier> {
    return std::make_unique<FinetuneModel>(TinyLM(), &factory_rng);
  };
  SelfTrainingConfig config = FastStConfig();
  config.use_pseudo_labels = false;
  SelfTrainingStats stats;
  auto model = RunSelfTraining(factory, f.train, f.test, f.valid, config,
                               &stats);
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(stats.pseudo.indices.empty());
  EXPECT_EQ(stats.student_samples, 0);
}

/// Records the identity of every training loop it observes.
class LoopMetaRecorder final : public train::TrainObserver {
 public:
  void OnLoopBegin(const train::RunMeta& meta) override {
    metas.push_back(meta);
  }

  std::vector<train::RunMeta> metas;
};

TEST(SelfTrainingTest, ObserverSeesTeacherThenConfiguredStudent) {
  EncodedFixture f = MakeEncoded();
  core::Rng factory_rng(65);
  ModelFactory factory = [&factory_rng]() -> std::unique_ptr<PairClassifier> {
    return std::make_unique<FinetuneModel>(TinyLM(), &factory_rng);
  };
  LoopMetaRecorder recorder;
  SelfTrainingConfig config = FastStConfig();
  config.teacher_options.observer = &recorder;
  config.teacher_options.dataset_name = "unit";
  config.student_options.observer = &recorder;
  config.student_options.run_name = "pupil";
  config.student_options.dataset_name = "unit";
  config.student_options.batch_size = 5;
  SelfTrainingStats stats;
  RunSelfTraining(factory, f.train, f.test, f.valid, config, &stats);

  ASSERT_EQ(recorder.metas.size(), 2u);
  EXPECT_EQ(recorder.metas[0].run_name, "teacher");
  EXPECT_EQ(recorder.metas[0].dataset, "unit");
  EXPECT_EQ(recorder.metas[1].run_name, "pupil");
  EXPECT_EQ(recorder.metas[1].dataset, "unit");
  EXPECT_EQ(recorder.metas[1].epochs, config.student_options.epochs);
  EXPECT_EQ(recorder.metas[1].batch_size, 5);
}

TEST(SelfTrainingTest, PruningRemovesSamples) {
  EncodedFixture f = MakeEncoded();
  core::Rng factory_rng(63);
  ModelFactory factory = [&factory_rng]() -> std::unique_ptr<PairClassifier> {
    return std::make_unique<FinetuneModel>(TinyLM(), &factory_rng);
  };
  SelfTrainingConfig config = FastStConfig();
  config.prune_ratio = 0.3;
  SelfTrainingStats with_pruning;
  RunSelfTraining(factory, f.train, f.test, f.valid, config, &with_pruning);
  EXPECT_GT(with_pruning.pruned_total, 0);

  config.use_pruning = false;
  SelfTrainingStats without;
  RunSelfTraining(factory, f.train, f.test, f.valid, config, &without);
  EXPECT_EQ(without.pruned_total, 0);
  // DDP trains on strictly fewer samples.
  EXPECT_LT(with_pruning.student_samples, without.student_samples);
}

TEST(SelfTrainingTest, LastStudentEpochDoesNotPrune) {
  // The only prune epoch is the student's last, and no epoch would train
  // on its pruned set: the run prunes nothing and matches a run without
  // DDP.
  EncodedFixture f = MakeEncoded();
  const auto run = [&f](bool use_pruning) {
    core::Rng factory_rng(64);
    ModelFactory factory =
        [&factory_rng]() -> std::unique_ptr<PairClassifier> {
      return std::make_unique<FinetuneModel>(TinyLM(), &factory_rng);
    };
    SelfTrainingConfig config = FastStConfig();
    config.prune_ratio = 0.3;
    config.prune_every = config.student_options.epochs;
    config.use_pruning = use_pruning;
    SelfTrainingStats stats;
    RunSelfTraining(factory, f.train, f.test, f.valid, config, &stats);
    return stats;
  };
  const SelfTrainingStats with_pruning = run(true);
  const SelfTrainingStats without = run(false);
  EXPECT_EQ(with_pruning.pruned_total, 0);
  EXPECT_EQ(with_pruning.student_samples, without.student_samples);
  EXPECT_EQ(with_pruning.student_best_valid.tp, without.student_best_valid.tp);
  EXPECT_EQ(with_pruning.student_best_valid.fp, without.student_best_valid.fp);
  EXPECT_EQ(with_pruning.student_best_valid.tn, without.student_best_valid.tn);
  EXPECT_EQ(with_pruning.student_best_valid.fn, without.student_best_valid.fn);
}

// ---------------------------------------------------------------------------
// PromptEM façade.
// ---------------------------------------------------------------------------

TEST(PromptEmTest, RunProducesMetrics) {
  data::GemDataset ds = TestDataset();
  core::Rng rng(71);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.25, &rng);
  PromptEMConfig config;
  config.self_training = FastStConfig();
  PromptEM promptem(&TinyLM(), config);
  PromptEMResult result = promptem.Run(ds, split);
  EXPECT_GE(result.test.F1(), 0.0);
  EXPECT_LE(result.test.F1(), 1.0);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.peak_memory_bytes, 0u);
  EXPECT_NE(promptem.last_model(), nullptr);
}

TEST(PromptEmTest, AblationSwitchesRespected) {
  data::GemDataset ds = TestDataset();
  core::Rng rng(72);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.25, &rng);
  PromptEMConfig config;
  config.self_training = FastStConfig();
  config.self_training.use_pseudo_labels = false;
  PromptEM promptem(&TinyLM(), config);
  PromptEMResult result = promptem.Run(ds, split);
  EXPECT_EQ(result.stats.student_samples, 0);
}

}  // namespace
}  // namespace promptem::em
