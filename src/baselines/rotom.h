#ifndef PROMPTEM_BASELINES_ROTOM_H_
#define PROMPTEM_BASELINES_ROTOM_H_

#include <vector>

#include "lm/pretrained_lm.h"
#include "promptem/trainer.h"

namespace promptem::baselines {

/// Rotom's meta-filtering (Miao et al., SIGMOD'21), simplified: a seed
/// model trained on the original data screens augmented candidates; only
/// candidates the seed model labels consistently (with confidence at least
/// `min_confidence`) survive. This approximates Rotom's learned
/// select-and-weight policy with its dominant signal (seed-model
/// agreement). See DESIGN.md §1.
std::vector<em::EncodedPair> MetaFilterAugmented(
    em::PairClassifier* seed_model,
    const std::vector<em::EncodedPair>& candidates, float min_confidence);

/// Full Rotom pipeline: seed training -> augmentation -> meta-filter ->
/// final training. Returns the trained final model.
std::unique_ptr<em::PairClassifier> RunRotom(
    const lm::PretrainedLM& lm, const std::vector<em::EncodedPair>& labeled,
    const std::vector<em::EncodedPair>& valid,
    const train::LoopOptions& options, core::Rng* rng);

}  // namespace promptem::baselines

#endif  // PROMPTEM_BASELINES_ROTOM_H_
