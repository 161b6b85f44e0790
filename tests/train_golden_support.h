#ifndef PROMPTEM_TESTS_TRAIN_GOLDEN_SUPPORT_H_
#define PROMPTEM_TESTS_TRAIN_GOLDEN_SUPPORT_H_

// Shared between tools/make_train_golden.cpp (which records the fixture)
// and tests/train_test.cc (which replays it). The fixture pins the
// behavioural contract of the training-runtime refactor: for a fixed seed
// every learner must reproduce the exact per-epoch losses and final F1
// captured against the pre-refactor HEAD. Everything here is seeded, so
// the numbers are bitwise stable across runs on one platform.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "baselines/deepmatcher.h"
#include "core/string_util.h"
#include "data/benchmarks.h"
#include "lm/pretrained_lm.h"
#include "promptem/finetune_model.h"
#include "promptem/promptem.h"
#include "promptem/trainer.h"
#include "tensor/kernels.h"

namespace promptem::golden {

/// One learner's pinned numbers. F1 fields are -1 when not applicable.
struct GoldenRun {
  std::string name;
  std::vector<float> epoch_losses;
  double valid_f1 = -1.0;
  double test_f1 = -1.0;
};

inline std::string BitsOf(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return core::StrFormat("0x%08x", bits);
}

inline std::string BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return core::StrFormat("0x%016llx",
                         static_cast<unsigned long long>(bits));
}

/// The tiny deterministic LM every golden run shares (mirrors the test
/// fixtures): its pre-training losses double as the MLM loop's parity
/// record.
inline const lm::PretrainedLM& GoldenLM() {
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
    options.epochs = 2;
    core::Rng rng(13);
    return lm::PretrainedLM::Pretrain(corpus, config, options,
                                      lm::RequiredPromptTokens(), &rng)
        .release();
  }();
  return *kLm;
}

inline data::GemDataset GoldenDataset() {
  data::BenchmarkGenOptions small;
  small.size_scale = 0.3;
  return data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 13, small);
}

inline baselines::RunOptions GoldenRunOptions() {
  baselines::RunOptions options;
  options.seed = 42;
  options.epochs = 8;
  options.student_epochs = 8;
  options.mc_passes = 2;
  options.prune_every = 2;
  return options;
}

/// Recomputes every pinned learner. Kept deliberately on the public
/// pre-refactor API surface (TrainClassifier, PromptEM, RunMethod) so the
/// identical code compiles before and after the runtime refactor.
///
/// Pinned to the scalar kernel variant: bitwise determinism holds only
/// *within* a variant, and the fixture must replay identically on AVX2
/// hosts, pre-AVX2 hosts, and the PROMPTEM_FORCE_SCALAR=1 CI job.
inline std::vector<GoldenRun> CaptureGoldenRuns() {
  tensor::kernels::ScopedKernelVariant scalar(
      tensor::kernels::KernelVariant::kScalar);
  std::vector<GoldenRun> runs;

  const lm::PretrainedLM& lm = GoldenLM();
  const data::GemDataset dataset = GoldenDataset();
  core::Rng split_rng(77);
  const data::LowResourceSplit split =
      data::MakeLowResourceSplit(dataset, 0.5, &split_rng);
  em::PairEncoder encoder = em::MakePairEncoder(lm, dataset);
  const auto train = encoder.EncodeAll(dataset, split.labeled);
  const auto valid = encoder.EncodeAll(dataset, split.valid);
  const auto test = encoder.EncodeAll(dataset, split.test);

  {
    GoldenRun run;
    run.name = "mlm_pretrain";
    run.epoch_losses = lm.pretrain_losses();
    runs.push_back(run);
  }

  train::LoopOptions train_options;
  train_options.epochs = 5;
  train_options.seed = 17;

  {
    GoldenRun run;
    run.name = "deepmatcher_classifier";
    core::Rng model_rng(7);
    baselines::DeepMatcherModel model(lm.vocab(), /*embed_dim=*/16,
                                      /*hidden_dim=*/8, &model_rng);
    train::LoopResult result =
        em::TrainClassifier(&model, train, valid, train_options);
    run.epoch_losses = result.epoch_losses;
    run.valid_f1 = result.best_eval.F1();
    run.test_f1 = em::Evaluate(&model, test).F1();
    runs.push_back(run);
  }

  {
    GoldenRun run;
    run.name = "finetune_classifier";
    core::Rng model_rng(9);
    em::FinetuneModel model(lm, &model_rng);
    train::LoopResult result =
        em::TrainClassifier(&model, train, valid, train_options);
    run.epoch_losses = result.epoch_losses;
    run.valid_f1 = result.best_eval.F1();
    run.test_f1 = em::Evaluate(&model, test).F1();
    runs.push_back(run);
  }

  const baselines::RunOptions options = GoldenRunOptions();

  {
    GoldenRun run;
    run.name = "promptem_full";
    em::PromptEM promptem(
        &lm, baselines::MakePromptEmConfig(baselines::Method::kPromptEM,
                                           options));
    em::PromptEMResult result = promptem.Run(dataset, split);
    run.epoch_losses = result.stats.teacher_result.epoch_losses;
    run.valid_f1 = result.valid.F1();
    run.test_f1 = result.test.F1();
    runs.push_back(run);
  }

  {
    GoldenRun run;
    run.name = "sentencebert_runmethod";
    baselines::MethodResult result = baselines::RunMethod(
        baselines::Method::kSentenceBert, lm, data::BenchmarkKind::kRelHeter,
        dataset, split, options);
    run.valid_f1 = result.valid.F1();
    run.test_f1 = result.test.F1();
    runs.push_back(run);
  }

  {
    GoldenRun run;
    run.name = "tdmatchstar_runmethod";
    baselines::MethodResult result = baselines::RunMethod(
        baselines::Method::kTdMatchStar, lm, data::BenchmarkKind::kRelHeter,
        dataset, split, options);
    run.valid_f1 = result.valid.F1();
    run.test_f1 = result.test.F1();
    runs.push_back(run);
  }

  return runs;
}

/// Serializes runs as one JSON object. Floats are recorded as raw bit
/// patterns (the parity contract is bitwise, not epsilon) with decimal
/// renderings alongside for humans.
inline std::string GoldenRunsToJson(const std::vector<GoldenRun>& runs) {
  std::string out = "{\"runs\": [\n";
  for (size_t r = 0; r < runs.size(); ++r) {
    const GoldenRun& run = runs[r];
    out += "  {\"name\": \"" + run.name + "\", \"epoch_loss_bits\": [";
    for (size_t i = 0; i < run.epoch_losses.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + BitsOf(run.epoch_losses[i]) + "\"";
    }
    out += "], \"epoch_losses\": [";
    for (size_t i = 0; i < run.epoch_losses.size(); ++i) {
      if (i > 0) out += ", ";
      out += core::StrFormat("%.9g", run.epoch_losses[i]);
    }
    out += "], \"valid_f1_bits\": \"" + BitsOf(run.valid_f1) + "\"";
    out += ", \"test_f1_bits\": \"" + BitsOf(run.test_f1) + "\"";
    out += core::StrFormat(", \"valid_f1\": %.17g, \"test_f1\": %.17g}",
                           run.valid_f1, run.test_f1);
    if (r + 1 < runs.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace promptem::golden

#endif  // PROMPTEM_TESTS_TRAIN_GOLDEN_SUPPORT_H_
