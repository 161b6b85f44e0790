#ifndef PROMPTEM_PROMPTEM_FINETUNE_MODEL_H_
#define PROMPTEM_PROMPTEM_FINETUNE_MODEL_H_

#include <memory>

#include "lm/pretrained_lm.h"
#include "promptem/trainer.h"

namespace promptem::em {

/// Vanilla fine-tuning (§2.3): "[CLS] serialize(e) [SEP] serialize(e')
/// [SEP]" through the encoder, then a freshly initialized classification
/// head on the [CLS] representation. This is both the "PromptEM w/o PT"
/// ablation and the BERT baseline — the head is *new*, which is exactly
/// the objective-form gap prompt-tuning removes (Challenge I).
class FinetuneModel : public nn::Module, public PairClassifier {
 public:
  FinetuneModel(const lm::PretrainedLM& lm, core::Rng* rng);

  tensor::Tensor Loss(const EncodedPair& x, int label,
                      core::Rng* rng) override;
  std::array<float, 2> Probs(const EncodedPair& x, core::Rng* rng) override;
  nn::Module* AsModule() override { return this; }

  /// Class logits [1, 2] for one pair. The last encoder layer computes
  /// only the [CLS] row.
  tensor::Tensor Logits(const EncodedPair& x, core::Rng* rng) const;

  /// Mean-pooled encoder representation: [1, dim].
  tensor::Tensor PairEmbedding(const EncodedPair& x, core::Rng* rng) const;

 private:
  std::vector<int> BuildInputIds(const EncodedPair& x) const;

  std::unique_ptr<nn::TransformerEncoder> encoder_;
  std::unique_ptr<nn::Linear> head_;
};

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_FINETUNE_MODEL_H_
