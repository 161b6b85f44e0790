// Tests for the unified training runtime (src/train/): TrainLoop semantics,
// observer event ordering, the JSONL run log's schema, the matcher
// registry, and the golden seed-parity contract pinning every refactored
// learner to its pre-refactor per-epoch losses and F1 (bitwise).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/matchers.h"
#include "data/json.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "train/observer.h"
#include "train/registry.h"
#include "train/train_loop.h"
#include "train_golden_support.h"

namespace promptem {
namespace {

namespace ops = tensor::ops;

// ---------------------------------------------------------------------------
// A tiny trainable problem: a 2-class MLP over fixed 2-d features.

struct TinyProblem {
  TinyProblem() : rng(5), mlp({2, 4, 2}, &rng, 0.1f) {
    for (int i = 0; i < 8; ++i) {
      features.push_back({i % 2 ? 1.0f : -1.0f, i % 3 ? 0.5f : -0.5f});
      labels.push_back(i % 2);
    }
  }

  tensor::Tensor Loss(size_t index, core::Rng* step_rng) {
    tensor::Tensor x = tensor::Tensor::FromValues(
        {1, 2}, std::vector<float>(features[index]));
    return ops::CrossEntropyLogits(mlp.Forward(x, step_rng),
                                   {labels[index]});
  }

  core::Rng rng;
  nn::Mlp mlp;
  std::vector<std::vector<float>> features;
  std::vector<int> labels;
};

/// Records every observer event as one compact token.
class RecordingObserver final : public train::TrainObserver {
 public:
  void OnLoopBegin(const train::RunMeta& meta) override {
    events.push_back("loop_begin");
    meta_ = meta;
  }
  void OnEpochBegin(int epoch) override {
    events.push_back("epoch_begin:" + std::to_string(epoch));
  }
  void OnBatchEnd(const train::BatchStats& stats) override {
    events.push_back("batch_end:" + std::to_string(stats.epoch) + ":" +
                     std::to_string(stats.batch_index));
  }
  void OnEvalEnd(const train::EvalStats& stats) override {
    events.push_back("eval_end:" + std::to_string(stats.epoch));
  }
  void OnEpochEnd(const train::EpochStats& stats) override {
    events.push_back("epoch_end:" + std::to_string(stats.epoch));
  }
  void OnLoopEnd(const train::LoopResult&) override {
    events.push_back("loop_end");
  }

  const train::RunMeta& meta() const { return meta_; }

  std::vector<std::string> events;

 private:
  train::RunMeta meta_;
};

TEST(TrainLoopTest, ObserverEventOrderingAndOneBasedEpochs) {
  TinyProblem problem;
  RecordingObserver observer;

  train::LoopOptions options;
  options.epochs = 2;
  options.batch_size = 4;  // 8 samples -> 2 batches per epoch
  options.seed = 11;
  options.observer = &observer;
  options.run_name = "tiny";
  options.dataset_name = "unit";

  train::TrainLoop loop(&problem.mlp, options);
  loop.OnParallelStep(
      [&](size_t i, core::Rng* rng) { return problem.Loss(i, rng); });
  loop.OnEval([] { return em::ComputeMetrics({1}, {1}); });
  train::LoopResult result = loop.Run(problem.features.size());

  const std::vector<std::string> expected = {
      "loop_begin",
      "epoch_begin:1", "batch_end:1:0", "batch_end:1:1", "eval_end:1",
      "epoch_end:1",
      "epoch_begin:2", "batch_end:2:0", "batch_end:2:1", "eval_end:2",
      "epoch_end:2",
      "loop_end",
  };
  EXPECT_EQ(observer.events, expected);
  EXPECT_EQ(observer.meta().run_name, "tiny");
  EXPECT_EQ(observer.meta().dataset, "unit");
  EXPECT_EQ(observer.meta().seed, 11u);
  EXPECT_FALSE(observer.meta().config_hash.empty());
  EXPECT_EQ(result.best_epoch, 1);  // 1-based; F1 ties never re-improve
  EXPECT_EQ(result.samples_processed, 16);
  EXPECT_EQ(result.epoch_losses.size(), 2u);
}

TEST(TrainLoopTest, SequentialSkipExcludesSampleFromLossAndCount) {
  TinyProblem problem;
  train::LoopOptions options;
  options.epochs = 1;
  options.batch_size = 3;
  options.seed = 3;

  train::TrainLoop loop(&problem.mlp, options);
  loop.OnSequentialStep(
      [&](size_t i, core::Rng* rng) -> std::optional<tensor::Tensor> {
        if (i % 2 == 1) return std::nullopt;  // skip odd samples
        return problem.Loss(i, rng);
      });
  train::LoopResult result = loop.Run(problem.features.size());
  EXPECT_EQ(result.samples_processed, 4);  // 4 of 8 skipped
  ASSERT_EQ(result.epoch_losses.size(), 1u);
  EXPECT_GT(result.epoch_losses[0], 0.0f);
}

// ---------------------------------------------------------------------------
// JSONL run log

TEST(JsonlRunLoggerTest, WritesOneParseableRecordPerEpoch) {
  const std::string path = ::testing::TempDir() + "train_test_run.jsonl";
  std::remove(path.c_str());

  TinyProblem problem;
  {
    train::JsonlRunLogger logger(path);
    ASSERT_TRUE(logger.ok());

    train::LoopOptions options;
    options.epochs = 3;
    options.batch_size = 4;
    options.seed = 19;
    options.observer = &logger;
    options.run_name = "logger-test";
    options.dataset_name = "unit \"quoted\"";  // exercises escaping

    train::TrainLoop loop(&problem.mlp, options);
    loop.OnParallelStep(
        [&](size_t i, core::Rng* rng) { return problem.Loss(i, rng); });
    loop.OnEval([] { return em::ComputeMetrics({1, 0}, {1, 1}); });
    loop.Run(problem.features.size());
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int records = 0;
  while (std::getline(in, line)) {
    ++records;
    auto parsed = data::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const data::Value& v = parsed.value();
    ASSERT_TRUE(v.is_object());
    ASSERT_NE(v.as_object().size(), 0u);
    auto field = [&](const std::string& key) -> const data::Value* {
      for (const auto& [k, val] : v.as_object()) {
        if (k == key) return &val;
      }
      return nullptr;
    };
    ASSERT_NE(field("run"), nullptr);
    EXPECT_EQ(field("run")->as_string(), "logger-test");
    ASSERT_NE(field("dataset"), nullptr);
    EXPECT_EQ(field("dataset")->as_string(), "unit \"quoted\"");
    ASSERT_NE(field("epoch"), nullptr);
    EXPECT_EQ(static_cast<int>(field("epoch")->as_number()), records);
    for (const char* key : {"loss", "samples", "precision", "recall", "f1",
                            "seconds", "examples_per_sec", "seed"}) {
      ASSERT_NE(field(key), nullptr) << key;
      EXPECT_TRUE(field(key)->is_number()) << key;
    }
    EXPECT_EQ(static_cast<uint64_t>(field("seed")->as_number()), 19u);
    ASSERT_NE(field("config_hash"), nullptr);
    EXPECT_EQ(field("config_hash")->as_string().size(), 16u);
  }
  EXPECT_EQ(records, 3);
  std::remove(path.c_str());
}

TEST(JsonlRunLoggerTest, FailedWriteTurnsOkFalseAndWarnsOnce) {
  const std::string path = "/dev/full";  // every write fails with ENOSPC
  std::FILE* probe = std::fopen(path.c_str(), "a");
  if (probe == nullptr) GTEST_SKIP() << path << " is absent";
  std::fclose(probe);

  TinyProblem problem;
  train::JsonlRunLogger logger(path);
  ASSERT_TRUE(logger.ok());

  train::LoopOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.observer = &logger;
  train::TrainLoop loop(&problem.mlp, options);
  loop.OnParallelStep(
      [&](size_t i, core::Rng* rng) { return problem.Loss(i, rng); });
  ::testing::internal::CaptureStderr();
  loop.Run(problem.features.size());
  const std::string warnings = ::testing::internal::GetCapturedStderr();

  EXPECT_FALSE(logger.ok());
  const size_t first = warnings.find(path);
  ASSERT_NE(first, std::string::npos) << warnings;
  EXPECT_EQ(warnings.find(path, first + 1), std::string::npos) << warnings;
}

// ---------------------------------------------------------------------------
// Matcher registry

class DummyMatcher final : public train::Matcher {
 public:
  std::string Name() const override { return "unit-dummy"; }
  void Train(const train::MatcherContext&) override {}
  std::vector<int> Predict(
      const train::MatcherContext&,
      const std::vector<data::PairExample>& pairs) override {
    return std::vector<int>(pairs.size(), 0);
  }
};

REGISTER_MATCHER_HIDDEN("unit-dummy",
                        [] { return std::make_unique<DummyMatcher>(); });

TEST(MatcherRegistryTest, RegisterMacroInThisTranslationUnit) {
  auto& registry = train::MatcherRegistry::Instance();
  ASSERT_TRUE(registry.Contains("unit-dummy"));
  auto matcher = registry.Create("unit-dummy");
  ASSERT_NE(matcher, nullptr);
  EXPECT_EQ(matcher->Name(), "unit-dummy");
  // Hidden registrations never surface in --list-matchers.
  for (const auto& name : registry.ListedNames()) {
    EXPECT_NE(name, "unit-dummy");
  }
}

TEST(MatcherRegistryTest, ListsTheNineCanonicalMatchersInTableOrder) {
  baselines::EnsureBaselineMatchersRegistered();
  const std::vector<std::string> expected = {
      "DeepMatcher", "BERT",    "SentenceBERT", "Ditto",    "DADER",
      "Rotom",       "TDmatch", "TDmatch*",     "PromptEM",
  };
  EXPECT_EQ(train::MatcherRegistry::Instance().ListedNames(), expected);
}

TEST(MatcherRegistryTest, AblationVariantsAreCreatableButUnlisted) {
  baselines::EnsureBaselineMatchersRegistered();
  auto& registry = train::MatcherRegistry::Instance();
  for (const char* name :
       {"PromptEM w/o PT", "PromptEM w/o LST", "PromptEM w/o DDP"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto matcher = registry.Create(name);
    ASSERT_NE(matcher, nullptr) << name;
    EXPECT_EQ(matcher->Name(), name);
  }
}

TEST(MatcherRegistryTest, UnknownNameIsNotCreatable) {
  auto& registry = train::MatcherRegistry::Instance();
  EXPECT_FALSE(registry.Contains("NoSuchMatcher"));
  EXPECT_EQ(registry.Create("NoSuchMatcher"), nullptr);
}

// ---------------------------------------------------------------------------
// Golden seed parity: every refactored learner must reproduce the
// per-epoch losses and final F1 recorded against the pre-refactor HEAD,
// bit for bit. Regenerate with tools/make_train_golden after an
// intentional behavioural change.

TEST(GoldenParityTest, AllLearnersMatchRecordedFixtureBitwise) {
  std::ifstream in("tests/data/train_golden.json");
  ASSERT_TRUE(in.good())
      << "missing fixture; run tools/make_train_golden from the repo root";
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = data::ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok());

  const data::Value* runs_value = nullptr;
  for (const auto& [key, value] : parsed.value().as_object()) {
    if (key == "runs") runs_value = &value;
  }
  ASSERT_NE(runs_value, nullptr);
  const auto& fixture_runs = runs_value->as_list();

  const std::vector<golden::GoldenRun> actual_runs =
      golden::CaptureGoldenRuns();
  ASSERT_EQ(actual_runs.size(), fixture_runs.size());

  for (size_t r = 0; r < actual_runs.size(); ++r) {
    const golden::GoldenRun& actual = actual_runs[r];
    auto field = [&](const std::string& key) -> const data::Value* {
      for (const auto& [k, v] : fixture_runs[r].as_object()) {
        if (k == key) return &v;
      }
      return nullptr;
    };
    ASSERT_NE(field("name"), nullptr);
    EXPECT_EQ(field("name")->as_string(), actual.name);

    ASSERT_NE(field("epoch_loss_bits"), nullptr);
    const auto& loss_bits = field("epoch_loss_bits")->as_list();
    ASSERT_EQ(loss_bits.size(), actual.epoch_losses.size()) << actual.name;
    for (size_t i = 0; i < loss_bits.size(); ++i) {
      EXPECT_EQ(loss_bits[i].as_string(),
                golden::BitsOf(actual.epoch_losses[i]))
          << actual.name << " epoch " << i + 1;
    }
    ASSERT_NE(field("valid_f1_bits"), nullptr);
    EXPECT_EQ(field("valid_f1_bits")->as_string(),
              golden::BitsOf(actual.valid_f1))
        << actual.name;
    ASSERT_NE(field("test_f1_bits"), nullptr);
    EXPECT_EQ(field("test_f1_bits")->as_string(),
              golden::BitsOf(actual.test_f1))
        << actual.name;
  }
}

}  // namespace
}  // namespace promptem
