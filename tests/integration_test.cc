// End-to-end integration tests: the full pipeline from benchmark
// generation through pre-training, low-resource splitting, PromptEM
// training, and evaluation — plus cross-method comparisons on an easy
// benchmark.

#include <gtest/gtest.h>

#include "baselines/common.h"
#include "data/benchmarks.h"
#include "lm/pretrained_lm.h"
#include "nn/serialize.h"
#include "promptem/promptem.h"

namespace promptem {
namespace {

// The integration suite exercises the shared pre-trained LM that the
// bench/ table binaries, the examples and the CLI default load, cached on
// disk at the repo root (first build takes minutes; all later runs load
// instantly). benchmark/ loads tests/data/promptem_integration_lm instead.
const lm::PretrainedLM& IntegrationLM() {
  static const lm::PretrainedLM* kLm =
      lm::GetOrCreateSharedLM("promptem_shared_lm", 42).release();
  return *kLm;
}

data::GemDataset EasyDataset() {
  return data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 42);
}

TEST(IntegrationTest, PromptEmBeatsChanceOnEasyBenchmark) {
  data::GemDataset ds = EasyDataset();
  core::Rng rng(1);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.2, &rng);
  baselines::RunOptions options;
  options.epochs = 8;
  options.student_epochs = 8;
  auto result = baselines::RunMethod(baselines::Method::kPromptEM,
                                     IntegrationLM(),
                                     data::BenchmarkKind::kRelHeter, ds,
                                     split, options);
  // Chance F1 (predict all positive) is ~0.5 at a 1/3 positive rate.
  EXPECT_GT(result.test.F1(), 0.6);
}

TEST(IntegrationTest, FewShotPromptTuningLearns) {
  // With a handful of labels, prompt-tuning must reach far-above-chance
  // F1 on the easiest benchmark — the paper's core low-resource claim.
  data::GemDataset ds = EasyDataset();
  em::PairEncoder encoder = em::MakePairEncoder(IntegrationLM(), ds);
  core::Rng rng(2);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.10, &rng);
  auto labeled = encoder.EncodeAll(ds, split.labeled);
  auto valid = encoder.EncodeAll(ds, split.valid);
  auto test = encoder.EncodeAll(ds, split.test);
  core::Rng model_rng(2);
  em::PromptModel model(IntegrationLM(), em::PromptModelConfig{},
                        &model_rng);
  train::LoopOptions options;
  options.epochs = 10;
  em::TrainClassifier(&model, labeled, valid, options);
  // Predict-all-positive scores ~0.5 F1 at a 1/3 positive rate.
  EXPECT_GT(em::Evaluate(&model, test).F1(), 0.6);
}

TEST(IntegrationTest, FewShotPromptCompetitiveWithFreshHead) {
  // The objective-form gap (Challenge I): reusing the pre-trained MLM
  // head must be at least competitive with training a fresh
  // classification head on the same few labels.
  data::GemDataset ds = EasyDataset();
  em::PairEncoder encoder = em::MakePairEncoder(IntegrationLM(), ds);
  core::Rng rng(3);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.10, &rng);
  auto labeled = encoder.EncodeAll(ds, split.labeled);
  auto valid = encoder.EncodeAll(ds, split.valid);
  auto test = encoder.EncodeAll(ds, split.test);
  train::LoopOptions options;
  options.epochs = 10;
  core::Rng prompt_rng(3);
  em::PromptModel prompt(IntegrationLM(), em::PromptModelConfig{},
                         &prompt_rng);
  em::TrainClassifier(&prompt, labeled, valid, options);
  core::Rng ft_rng(3);
  em::FinetuneModel finetune(IntegrationLM(), &ft_rng);
  em::TrainClassifier(&finetune, labeled, valid, options);
  EXPECT_GT(em::Evaluate(&prompt, test).F1() + 0.15,
            em::Evaluate(&finetune, test).F1());
}

TEST(IntegrationTest, SelfTrainingPipelineImprovesOrMatchesTeacher) {
  data::GemDataset ds = EasyDataset();
  core::Rng rng(4);
  data::LowResourceSplit split = data::MakeLowResourceSplit(ds, 0.15, &rng);
  baselines::RunOptions options;
  options.epochs = 6;
  options.student_epochs = 6;

  auto full = baselines::RunMethod(baselines::Method::kPromptEM,
                                   IntegrationLM(),
                                   data::BenchmarkKind::kRelHeter, ds, split,
                                   options);
  auto no_lst = baselines::RunMethod(baselines::Method::kPromptEMNoLST,
                                     IntegrationLM(),
                                     data::BenchmarkKind::kRelHeter, ds,
                                     split, options);
  // Best-on-validation selection includes the teacher, so LST can only
  // help or tie on validation; on test we allow small regressions.
  EXPECT_GE(full.valid.F1() + 1e-9, no_lst.valid.F1() - 0.15);
}

TEST(IntegrationTest, CheckpointRoundTripPreservesPredictions) {
  data::GemDataset ds = EasyDataset();
  em::PairEncoder encoder = em::MakePairEncoder(IntegrationLM(), ds);
  auto test = encoder.EncodeAll(ds, ds.test);
  core::Rng rng(5);
  em::FinetuneModel a(IntegrationLM(), &rng);
  const std::string path = "/tmp/promptem_integration_ckpt.bin";
  ASSERT_TRUE(nn::SaveCheckpoint(a, path).ok());
  core::Rng rng2(999);
  em::FinetuneModel b(IntegrationLM(), &rng2);
  ASSERT_TRUE(nn::LoadCheckpoint(&b, path).ok());
  EXPECT_EQ(em::PredictLabels(&a, test), em::PredictLabels(&b, test));
  std::remove(path.c_str());
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  data::GemDataset ds = EasyDataset();
  core::Rng rng_a(6);
  core::Rng rng_b(6);
  auto split_a = data::MakeLowResourceSplit(ds, 0.2, &rng_a);
  auto split_b = data::MakeLowResourceSplit(ds, 0.2, &rng_b);
  baselines::RunOptions options;
  options.epochs = 3;
  options.student_epochs = 3;
  auto a = baselines::RunMethod(baselines::Method::kPromptEMNoLST,
                                IntegrationLM(),
                                data::BenchmarkKind::kRelHeter, ds, split_a,
                                options);
  auto b = baselines::RunMethod(baselines::Method::kPromptEMNoLST,
                                IntegrationLM(),
                                data::BenchmarkKind::kRelHeter, ds, split_b,
                                options);
  EXPECT_EQ(a.test.tp, b.test.tp);
  EXPECT_EQ(a.test.fp, b.test.fp);
  EXPECT_EQ(a.test.fn, b.test.fn);
}

}  // namespace
}  // namespace promptem
