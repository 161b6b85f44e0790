#ifndef PROMPTEM_PROMPTEM_PROMPT_MODEL_H_
#define PROMPTEM_PROMPTEM_PROMPT_MODEL_H_

#include <memory>

#include "lm/pretrained_lm.h"
#include "nn/lstm.h"
#include "promptem/templates.h"
#include "promptem/trainer.h"
#include "promptem/verbalizer.h"

namespace promptem::em {

/// Prompt-model hyper-parameters (template and verbalizer choices of §3).
struct PromptModelConfig {
  TemplateType template_type = TemplateType::kT2;
  TemplateMode template_mode = TemplateMode::kContinuous;
  LabelWordsType label_words = LabelWordsType::kDesigned;
};

/// PromptEM's core model (§3): casts GEM as masked language modeling.
/// The pair is wrapped in a GEM-specific template; the pre-trained tied
/// MLM head predicts the [MASK] token; the verbalizer folds label-word
/// probabilities into class scores (Eq. 1).
///
/// Continuous templates implement P-tuning: trainable prompt embeddings
/// contextualized by a BiLSTM + linear head, spliced into the input
/// sequence in place of the hard prompt words, and optimized jointly with
/// the LM parameters.
class PromptModel : public nn::Module, public PairClassifier {
 public:
  PromptModel(const lm::PretrainedLM& lm, const PromptModelConfig& config,
              core::Rng* rng);

  tensor::Tensor Loss(const EncodedPair& x, int label,
                      core::Rng* rng) override;
  std::array<float, 2> Probs(const EncodedPair& x, core::Rng* rng) override;
  nn::Module* AsModule() override { return this; }

  /// Computes the continuous prompt rows once and shares them, read-only,
  /// with every pair of the sweep.
  SweepScoreFn SweepScorer() override;

  /// Mean-pooled encoder representation of the pair (used by the
  /// clustering pseudo-label strategy): [1, dim].
  tensor::Tensor PairEmbedding(const EncodedPair& x, core::Rng* rng) const;

  const PromptModelConfig& config() const { return config_; }
  const Verbalizer& verbalizer() const { return verbalizer_; }

 private:
  /// Assembles embedded rows for the templated sequence, splicing
  /// continuous prompt rows when in continuous mode (`prompt_rows`, or
  /// freshly computed ones when it is undefined). Sets *mask_pos.
  tensor::Tensor BuildInputRows(const EncodedPair& x,
                                const tensor::Tensor& prompt_rows,
                                core::Rng* rng, int* mask_pos) const;

  /// MLM logits at the [MASK] position for one templated pair: [1, vocab].
  /// `prompt_rows` as for BuildInputRows. The last encoder layer computes
  /// only the [MASK] row.
  tensor::Tensor MaskLogits(const EncodedPair& x,
                            const tensor::Tensor& prompt_rows,
                            core::Rng* rng) const;

  /// Prompt rows after BiLSTM + projection: [num_prompts, dim]. They
  /// depend only on the parameters.
  tensor::Tensor PromptRows() const;

  PromptModelConfig config_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  std::vector<TemplateSlot> slots_;
  Verbalizer verbalizer_;

  // Continuous-template (P-tuning) machinery.
  tensor::Tensor prompt_embeddings_;  ///< [num_prompts, dim]
  std::unique_ptr<nn::BiLstm> prompt_lstm_;
  std::unique_ptr<nn::Linear> prompt_proj_;
};

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_PROMPT_MODEL_H_
