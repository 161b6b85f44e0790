#include "baselines/dader.h"

#include <algorithm>

#include "nn/serialize.h"
#include "promptem/finetune_model.h"
#include "promptem/scoring.h"

namespace promptem::baselines {

data::BenchmarkKind DaderSourceFor(data::BenchmarkKind target) {
  using data::BenchmarkKind;
  switch (target) {
    case BenchmarkKind::kRelHeter:
      return BenchmarkKind::kGeoHeter;  // both name/address-style records
    case BenchmarkKind::kSemiHomo:
      return BenchmarkKind::kRelText;  // citation domain
    case BenchmarkKind::kSemiHeter:
      return BenchmarkKind::kSemiHomo;
    case BenchmarkKind::kSemiRel:
      return BenchmarkKind::kSemiHeter;
    case BenchmarkKind::kSemiTextW:
      return BenchmarkKind::kSemiTextC;  // sibling product benchmarks
    case BenchmarkKind::kSemiTextC:
      return BenchmarkKind::kSemiTextW;
    case BenchmarkKind::kRelText:
      return BenchmarkKind::kSemiHomo;
    case BenchmarkKind::kGeoHeter:
      return BenchmarkKind::kRelHeter;
  }
  return BenchmarkKind::kSemiHomo;
}

std::unique_ptr<em::PairClassifier> RunDader(
    const lm::PretrainedLM& lm,
    const std::vector<em::EncodedPair>& source_train,
    const std::vector<em::EncodedPair>& target_labeled,
    const std::vector<em::EncodedPair>& target_unlabeled,
    const std::vector<em::EncodedPair>& target_valid,
    const train::LoopOptions& options, core::Rng* rng) {
  // Phase 1: source model on the source benchmark's full labels. With no
  // validation set it keeps its last epoch's weights.
  core::Rng source_rng = rng->Fork();
  auto source_model = std::make_unique<em::FinetuneModel>(lm, &source_rng);
  em::TrainClassifier(source_model.get(), source_train, {}, options);

  // Phase 2: target model initialized from the source model.
  core::Rng target_rng = rng->Fork();
  auto target_model = std::make_unique<em::FinetuneModel>(lm, &target_rng);
  core::Status st = nn::CopyParameters(*source_model, target_model.get());
  PROMPTEM_CHECK_MSG(st.ok(), st.ToString().c_str());

  // Phase 3: fine-tune on target labels, plus a KD/alignment term — the
  // source model pseudo-labels a slice of the target's unlabeled pool
  // through the batched eval engine.
  std::vector<em::EncodedPair> train = target_labeled;
  const size_t kd_budget = std::min<size_t>(target_unlabeled.size(),
                                            target_labeled.size());
  const std::vector<em::EncodedPair> kd_pool(
      target_unlabeled.begin(),
      target_unlabeled.begin() + static_cast<long>(kd_budget));
  const std::vector<em::ProbPair> kd_probs =
      em::ScoreBatch(source_model.get(), kd_pool);
  for (size_t i = 0; i < kd_budget; ++i) {
    const float confidence = std::max(kd_probs[i][0], kd_probs[i][1]);
    if (confidence < 0.75f) continue;  // only confident source knowledge
    em::EncodedPair kd = kd_pool[i];
    kd.label = kd_probs[i][1] >= 0.5f ? 1 : 0;
    train.push_back(std::move(kd));
  }
  em::TrainClassifier(target_model.get(), train, target_valid, options);
  return target_model;
}

}  // namespace promptem::baselines
