// Tests for the eight baseline matchers and the unified method runner.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "baselines/bert_ft.h"
#include "core/mem_tracker.h"
#include "baselines/common.h"
#include "baselines/dader.h"
#include "baselines/deepmatcher.h"
#include "baselines/ditto.h"
#include "baselines/rotom.h"
#include "baselines/sentence_bert.h"
#include "baselines/tdmatch.h"
#include "baselines/tdmatch_star.h"

namespace promptem::baselines {
namespace {

const lm::PretrainedLM& TinyLM() {
  static const lm::PretrainedLM* kLm = [] {
    data::BenchmarkGenOptions small;
    small.size_scale = 0.3;
    std::vector<data::GemDataset> datasets = {
        data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 13, small),
    };
    lm::Corpus corpus = lm::BuildCorpus(datasets, 13);
    nn::TransformerConfig config;
    config.dim = 16;
    config.num_layers = 1;
    config.num_heads = 2;
    config.ffn_dim = 32;
    config.max_seq_len = 96;
    lm::MlmOptions options;
    options.epochs = 1;
    core::Rng rng(13);
    return lm::PretrainedLM::Pretrain(corpus, config, options,
                                      lm::RequiredPromptTokens(), &rng)
        .release();
  }();
  return *kLm;
}

data::GemDataset SmallDataset() {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.3;
  return data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 13, small);
}

em::EncodedPair SampleEncoded() {
  data::GemDataset ds = SmallDataset();
  em::PairEncoder encoder = em::MakePairEncoder(TinyLM(), ds);
  return encoder.Encode(ds, ds.train[0]);
}

// --- registry ---

TEST(RegistryTest, MethodNamesUnique) {
  std::set<std::string> names;
  for (Method m : BaselineMethods()) names.insert(MethodName(m));
  for (Method m : PromptEmVariants()) names.insert(MethodName(m));
  EXPECT_EQ(names.size(),
            BaselineMethods().size() + PromptEmVariants().size());
}

TEST(RegistryTest, EightBaselinesFourVariants) {
  EXPECT_EQ(BaselineMethods().size(), 8u);
  EXPECT_EQ(PromptEmVariants().size(), 4u);
}

TEST(RegistryTest, AblationConfigSwitches) {
  RunOptions options;
  EXPECT_FALSE(
      MakePromptEmConfig(Method::kPromptEMNoPT, options).use_prompt_tuning);
  EXPECT_FALSE(MakePromptEmConfig(Method::kPromptEMNoLST, options)
                   .self_training.use_pseudo_labels);
  EXPECT_FALSE(MakePromptEmConfig(Method::kPromptEMNoDDP, options)
                   .self_training.use_pruning);
  em::PromptEMConfig full = MakePromptEmConfig(Method::kPromptEM, options);
  EXPECT_TRUE(full.use_prompt_tuning);
  EXPECT_TRUE(full.self_training.use_pseudo_labels);
  EXPECT_TRUE(full.self_training.use_pruning);
}

TEST(RegistryTest, RunOptionsDefaultsMatchSelfTrainingDefaults) {
  // One u_r and one e_r: a SelfTrainingConfig built directly trains with
  // the same self-training knobs as one built from default RunOptions.
  const em::SelfTrainingConfig from_options =
      MakePromptEmConfig(Method::kPromptEM, RunOptions{}).self_training;
  const em::SelfTrainingConfig defaults;
  EXPECT_EQ(from_options.pseudo_ratio, defaults.pseudo_ratio);
  EXPECT_EQ(from_options.prune_ratio, defaults.prune_ratio);
  EXPECT_EQ(from_options.prune_every, defaults.prune_every);
  EXPECT_EQ(from_options.mc_passes, defaults.mc_passes);
  EXPECT_EQ(from_options.use_pseudo_labels, defaults.use_pseudo_labels);
  EXPECT_EQ(from_options.use_pruning, defaults.use_pruning);
}

// --- DeepMatcher ---

TEST(DeepMatcherTest, ForwardAndGradients) {
  core::Rng rng(1);
  DeepMatcherModel model(TinyLM().vocab(), 8, 4, &rng);
  em::EncodedPair x = SampleEncoded();
  core::Rng frng(2);
  tensor::Tensor loss = model.Loss(x, 1, &frng);
  EXPECT_TRUE(std::isfinite(loss.item()));
  model.ZeroGrad();
  loss.Backward();
  auto probs = model.Probs(x, &frng);
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-4f);
}

TEST(DeepMatcherTest, HandlesEmptySide) {
  core::Rng rng(1);
  DeepMatcherModel model(TinyLM().vocab(), 8, 4, &rng);
  em::EncodedPair x;
  x.right_ids = {10, 11};
  core::Rng frng(2);
  EXPECT_TRUE(std::isfinite(model.Loss(x, 0, &frng).item()));
}

// --- SentenceBERT ---

TEST(SentenceBertTest, SiameseSymmetricArchitecture) {
  core::Rng rng(1);
  SentenceBertModel model(TinyLM(), &rng);
  em::EncodedPair x = SampleEncoded();
  core::Rng frng(2);
  auto probs = model.Probs(x, &frng);
  EXPECT_NEAR(probs[0] + probs[1], 1.0f, 1e-4f);
  // One shared encoder: its parameters appear once.
  int encoder_params = 0;
  for (const auto& np : model.NamedParameters()) {
    encoder_params += np.name.rfind("encoder.", 0) == 0;
  }
  EXPECT_GT(encoder_params, 0);
}

// --- BERT factory ---

TEST(BertBaselineTest, IsFinetuneModel) {
  core::Rng rng(1);
  auto model = MakeBertBaseline(TinyLM(), &rng);
  ASSERT_NE(model, nullptr);
  EXPECT_NE(dynamic_cast<em::FinetuneModel*>(model.get()), nullptr);
}

// --- Ditto augmentation ---

TEST(DittoTest, AugmentPreservesLabel) {
  em::EncodedPair x = SampleEncoded();
  core::Rng rng(3);
  for (auto op : {AugOp::kSpanDeletion, AugOp::kTokenShuffle,
                  AugOp::kSideTruncate}) {
    em::EncodedPair y = Augment(x, op, &rng);
    EXPECT_EQ(y.label, x.label);
    EXPECT_LE(y.left_ids.size(), x.left_ids.size());
    EXPECT_LE(y.right_ids.size(), x.right_ids.size());
  }
}

TEST(DittoTest, ShuffleKeepsMultiset) {
  em::EncodedPair x = SampleEncoded();
  core::Rng rng(4);
  em::EncodedPair y = Augment(x, AugOp::kTokenShuffle, &rng);
  auto sorted = [](std::vector<int> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(y.left_ids).size() + sorted(y.right_ids).size(),
            x.left_ids.size() + x.right_ids.size());
}

TEST(DittoTest, AugmentSetSize) {
  std::vector<em::EncodedPair> examples = {SampleEncoded(), SampleEncoded()};
  core::Rng rng(5);
  auto out = AugmentSet(examples, 3, &rng);
  EXPECT_EQ(out.size(), 6u);
}

TEST(DittoTest, ShortSequenceUnharmed) {
  em::EncodedPair x;
  x.left_ids = {9};
  x.right_ids = {10};
  core::Rng rng(6);
  em::EncodedPair y = Augment(x, AugOp::kSpanDeletion, &rng);
  EXPECT_EQ(y.left_ids.size(), 1u);
  EXPECT_EQ(y.right_ids.size(), 1u);
}

// --- Rotom ---

TEST(RotomTest, MetaFilterKeepsConsistentOnly) {
  core::Rng rng(7);
  em::FinetuneModel seed(TinyLM(), &rng);
  data::GemDataset ds = SmallDataset();
  em::PairEncoder encoder = em::MakePairEncoder(TinyLM(), ds);
  auto candidates = encoder.EncodeAll(ds, ds.train);
  auto kept = MetaFilterAugmented(&seed, candidates, 0.0f);
  // With threshold 0, kept = candidates whose label the seed model agrees
  // with; those must be a subset with consistent predictions.
  EXPECT_LE(kept.size(), candidates.size());
  core::Rng unused(0);
  for (const auto& x : kept) {
    EXPECT_EQ(seed.Probs(x, &unused)[1] >= 0.5f ? 1 : 0, x.label);
  }
}

TEST(RotomTest, PipelineProducesModel) {
  data::GemDataset ds = SmallDataset();
  em::PairEncoder encoder = em::MakePairEncoder(TinyLM(), ds);
  auto labeled = encoder.EncodeAll(ds, ds.train);
  labeled.resize(std::min<size_t>(labeled.size(), 12));
  auto valid = encoder.EncodeAll(ds, ds.valid);
  train::LoopOptions options;
  options.epochs = 2;
  core::Rng rng(8);
  auto model = RunRotom(TinyLM(), labeled, valid, options, &rng);
  ASSERT_NE(model, nullptr);
  em::Metrics m = em::Evaluate(model.get(), valid);
  EXPECT_GE(m.Accuracy(), 0.0);
}

// --- DADER ---

TEST(DaderTest, SourceMappingSymmetricProducts) {
  EXPECT_EQ(DaderSourceFor(data::BenchmarkKind::kSemiTextW),
            data::BenchmarkKind::kSemiTextC);
  EXPECT_EQ(DaderSourceFor(data::BenchmarkKind::kSemiTextC),
            data::BenchmarkKind::kSemiTextW);
  for (auto kind : data::AllBenchmarks()) {
    EXPECT_NE(DaderSourceFor(kind), kind);
  }
}

TEST(DaderTest, TransferPipelineRuns) {
  data::GemDataset ds = SmallDataset();
  em::PairEncoder encoder = em::MakePairEncoder(TinyLM(), ds);
  auto labeled = encoder.EncodeAll(ds, ds.train);
  labeled.resize(8);
  auto unlabeled = encoder.EncodeAll(ds, ds.test);
  auto valid = encoder.EncodeAll(ds, ds.valid);
  train::LoopOptions options;
  options.epochs = 2;
  core::Rng rng(9);
  // Source = the same tiny dataset (adequate for a pipeline test).
  auto model = RunDader(TinyLM(), labeled, labeled, unlabeled, valid,
                        options, &rng);
  ASSERT_NE(model, nullptr);
}

// --- TDmatch ---

TEST(TdMatchTest, GraphTokenizeKeepsDigitRunsWhole) {
  auto toks = GraphTokenize("isbn 9780672336072 sams!");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1], "9780672336072");
  EXPECT_EQ(toks[2], "sams");
}

TEST(TdMatchTest, GraphStructure) {
  data::GemDataset ds = SmallDataset();
  TdMatchGraph graph(ds);
  EXPECT_EQ(graph.num_left(), static_cast<int>(ds.left_table.size()));
  EXPECT_EQ(graph.num_right(), static_cast<int>(ds.right_table.size()));
  EXPECT_GT(graph.num_nodes(), graph.num_left() + graph.num_right());
  EXPECT_GT(graph.num_edges(), 0);
}

TEST(TdMatchTest, PprIsDistribution) {
  data::GemDataset ds = SmallDataset();
  TdMatchGraph graph(ds);
  auto ppr = graph.Ppr(graph.LeftNode(0));
  double sum = 0.0;
  for (float v : ppr) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-3);
}

TEST(TdMatchTest, SelfScoreHighestAmongRecords) {
  // The PPR of a left record should place its own matching right record
  // (index-aligned rendering of the same entity) above most others.
  data::GemDataset ds = SmallDataset();
  TdMatchGraph graph(ds);
  const float self_score = graph.PairScore(0, 0);
  int better = 0;
  for (int j = 0; j < graph.num_right(); ++j) {
    if (j != 0 && graph.PairScore(0, j) > self_score) ++better;
  }
  EXPECT_LE(better, graph.num_right() / 4);
}

TEST(TdMatchTest, PredictPairsUnsupervisedQuality) {
  data::GemDataset ds = SmallDataset();
  TdMatchGraph graph(ds);
  std::vector<int> gold;
  for (const auto& p : ds.test) gold.push_back(p.label);
  auto preds = graph.PredictPairs(ds.test);
  em::Metrics m = em::ComputeMetrics(preds, gold);
  // Unsupervised, but far better than random on the easy benchmark.
  EXPECT_GT(m.F1(), 0.3);
}

TEST(TdMatchTest, EmbeddingsTrackMemory) {
  data::GemDataset ds = SmallDataset();
  const size_t before = core::MemTracker::CurrentBytes();
  {
    TdMatchGraph graph(ds);
    graph.ComputeAllEmbeddings();
    EXPECT_TRUE(graph.embeddings_ready());
    EXPECT_GT(core::MemTracker::CurrentBytes(), before);
  }
  EXPECT_EQ(core::MemTracker::CurrentBytes(), before);
}

TEST(TdMatchTest, ProjectedEmbeddingDeterministic) {
  data::GemDataset ds = SmallDataset();
  TdMatchGraph graph(ds);
  auto a = graph.ProjectedEmbedding(true, 0, 16, 99);
  auto b = graph.ProjectedEmbedding(true, 0, 16, 99);
  EXPECT_EQ(a, b);
  auto c = graph.ProjectedEmbedding(true, 0, 16, 100);
  EXPECT_NE(a, c);
}

TEST(TdMatchStarTest, TrainsAndPredicts) {
  data::GemDataset ds = SmallDataset();
  TdMatchGraph graph(ds);
  graph.ComputeAllEmbeddings();
  core::Rng rng(10);
  TdMatchStar star(&graph, 16, 42, &rng);
  star.Train(ds.train, /*epochs=*/10, /*lr=*/5e-3f, &rng);
  em::Metrics train_metrics = star.Evaluate(ds.train);
  // Should fit the training pairs better than chance.
  EXPECT_GT(train_metrics.Accuracy(), 0.55);
  auto preds = star.Predict(ds.test);
  EXPECT_EQ(preds.size(), ds.test.size());
}

// --- unified runner (smoke over the cheap methods) ---

TEST(RunMethodTest, DeepMatcherAndTdMatchProduceResults) {
  data::GemDataset ds = SmallDataset();
  core::Rng rng(11);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.25, &rng);
  RunOptions options;
  options.epochs = 2;
  options.student_epochs = 2;
  for (Method m : {Method::kDeepMatcher, Method::kTdMatch}) {
    MethodResult r = RunMethod(m, TinyLM(), data::BenchmarkKind::kRelHeter,
                               ds, split, options);
    EXPECT_GE(r.test.F1(), 0.0) << MethodName(m);
    EXPECT_GE(r.train_seconds, 0.0);
  }
}

}  // namespace
}  // namespace promptem::baselines
