#ifndef PROMPTEM_BASELINES_DADER_H_
#define PROMPTEM_BASELINES_DADER_H_

#include <memory>

#include "data/benchmarks.h"
#include "lm/pretrained_lm.h"
#include "promptem/trainer.h"

namespace promptem::baselines {

/// Source benchmark used to adapt to each target (the paper "selects the
/// source and target datasets from a similar domain").
data::BenchmarkKind DaderSourceFor(data::BenchmarkKind target);

/// DADER (Tu et al., SIGMOD'22), simplified InvGAN+KD: (1) train a source
/// model on the source benchmark's full training labels; (2) initialize
/// the target model from it; (3) fine-tune on the target's low-resource
/// labels with a knowledge-distillation term against the source model's
/// soft predictions on the target's unlabeled pool (the feature-alignment
/// signal). See DESIGN.md §1 for the substitution note.
std::unique_ptr<em::PairClassifier> RunDader(
    const lm::PretrainedLM& lm,
    const std::vector<em::EncodedPair>& source_train,
    const std::vector<em::EncodedPair>& target_labeled,
    const std::vector<em::EncodedPair>& target_unlabeled,
    const std::vector<em::EncodedPair>& target_valid,
    const train::LoopOptions& options, core::Rng* rng);

}  // namespace promptem::baselines

#endif  // PROMPTEM_BASELINES_DADER_H_
