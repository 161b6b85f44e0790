#ifndef PROMPTEM_PROMPTEM_PROMPTEM_H_
#define PROMPTEM_PROMPTEM_PROMPTEM_H_

#include <memory>
#include <string>

#include "promptem/finetune_model.h"
#include "promptem/prompt_model.h"
#include "promptem/self_training.h"

namespace promptem::em {

/// Full PromptEM configuration: the three modules of the paper. Table 2's
/// ablations are use_prompt_tuning (w/o PT) here and
/// self_training.use_pseudo_labels (w/o LST) and self_training.use_pruning
/// (w/o DDP) in the self-training config.
struct PromptEMConfig {
  PromptModelConfig model;
  bool use_prompt_tuning = true;  ///< false = fine-tune (w/o PT)
  SelfTrainingConfig self_training;
  uint64_t seed = 7;
};

/// A full run's outputs (consumed by the benchmark harness).
struct PromptEMResult {
  Metrics test;
  Metrics valid;
  SelfTrainingStats stats;
  double total_seconds = 0.0;
  size_t peak_memory_bytes = 0;
};

/// Top-level façade: encodes a dataset split, runs lightweight
/// self-training over the prompt (or fine-tune) model, and evaluates.
///
/// Usage:
///   auto lm = lm::GetOrCreateSharedLM("lm_cache", 42);
///   PromptEM promptem(lm.get(), PromptEMConfig{});
///   PromptEMResult r = promptem.Run(dataset, split);
class PromptEM {
 public:
  PromptEM(const lm::PretrainedLM* lm, const PromptEMConfig& config);

  /// Trains on split.labeled (+ pseudo-labels from split.unlabeled) and
  /// reports test metrics.
  PromptEMResult Run(const data::GemDataset& dataset,
                     const data::LowResourceSplit& split) const;

  /// The trained model from the last Run (for inspection / examples).
  PairClassifier* last_model() const { return last_model_.get(); }

  const PromptEMConfig& config() const { return config_; }

 private:
  std::unique_ptr<PairClassifier> MakeModel(core::Rng* rng) const;

  const lm::PretrainedLM* lm_;
  PromptEMConfig config_;
  mutable std::unique_ptr<PairClassifier> last_model_;
};

/// Builds the PairEncoder every method shares for one dataset: per-side
/// budget derived from the LM's max sequence length and the template
/// overhead, summarizer fitted on the dataset.
PairEncoder MakePairEncoder(const lm::PretrainedLM& lm,
                            const data::GemDataset& dataset);

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_PROMPTEM_H_
