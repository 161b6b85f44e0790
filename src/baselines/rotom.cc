#include "baselines/rotom.h"

#include "baselines/ditto.h"
#include "promptem/finetune_model.h"
#include "promptem/scoring.h"

namespace promptem::baselines {

std::vector<em::EncodedPair> MetaFilterAugmented(
    em::PairClassifier* seed_model,
    const std::vector<em::EncodedPair>& candidates, float min_confidence) {
  // Batched eval scoring; the keep-filter then runs over the slots in
  // input order, so the kept set matches the old sequential loop exactly.
  const std::vector<em::ProbPair> probs =
      em::ScoreBatch(seed_model, candidates);
  std::vector<em::EncodedPair> kept;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const int pred = probs[i][1] >= 0.5f ? 1 : 0;
    const float confidence = std::max(probs[i][0], probs[i][1]);
    if (pred == candidates[i].label && confidence >= min_confidence) {
      kept.push_back(candidates[i]);
    }
  }
  return kept;
}

std::unique_ptr<em::PairClassifier> RunRotom(
    const lm::PretrainedLM& lm, const std::vector<em::EncodedPair>& labeled,
    const std::vector<em::EncodedPair>& valid,
    const train::LoopOptions& options, core::Rng* rng) {
  // Stage 1: seed model on the original labeled data (shorter schedule).
  core::Rng seed_rng = rng->Fork();
  auto seed_model = std::make_unique<em::FinetuneModel>(lm, &seed_rng);
  train::LoopOptions seed_options = options;
  seed_options.epochs = std::max(1, options.epochs / 2);
  em::TrainClassifier(seed_model.get(), labeled, valid, seed_options);

  // Stage 2: augment and meta-filter.
  std::vector<em::EncodedPair> augmented = AugmentSet(labeled, 2, rng);
  std::vector<em::EncodedPair> kept =
      MetaFilterAugmented(seed_model.get(), augmented, 0.6f);

  // Stage 3: final model on original + surviving augmented examples.
  std::vector<em::EncodedPair> train = labeled;
  train.insert(train.end(), kept.begin(), kept.end());
  core::Rng final_rng = rng->Fork();
  auto final_model = std::make_unique<em::FinetuneModel>(lm, &final_rng);
  em::TrainClassifier(final_model.get(), train, valid, options);
  return final_model;
}

}  // namespace promptem::baselines
