#include "promptem/prompt_model.h"

#include <algorithm>

#include "tensor/autograd.h"

namespace promptem::em {

namespace ops = tensor::ops;
using text::SpecialTokens;

PromptModel::PromptModel(const lm::PretrainedLM& lm,
                         const PromptModelConfig& config, core::Rng* rng)
    : config_(config),
      encoder_(lm.CloneEncoder(rng)),
      slots_(BuildTemplate(config.template_type, config.template_mode,
                           lm.vocab())),
      verbalizer_(lm.vocab(), config.label_words) {
  RegisterModule("encoder", encoder_.get());
  if (config_.template_mode == TemplateMode::kContinuous) {
    const int dim = encoder_->config().dim;
    const int n = NumPromptSlots(config_.template_type);
    tensor::Tensor prompts = tensor::Tensor::Zeros({n, dim});
    nn::NormalInit(&prompts, 0.02f, rng);
    prompt_embeddings_ = RegisterParameter("prompt_embeddings", prompts);
    prompt_lstm_ = std::make_unique<nn::BiLstm>(dim, dim / 2, rng);
    prompt_proj_ = std::make_unique<nn::Linear>(dim, dim, rng);
    RegisterModule("prompt_lstm", prompt_lstm_.get());
    RegisterModule("prompt_proj", prompt_proj_.get());
  }
}

tensor::Tensor PromptModel::PromptRows() const {
  PROMPTEM_CHECK(config_.template_mode == TemplateMode::kContinuous);
  // P-tuning: BiLSTM over the trainable prompt tokens models interaction
  // between them; a linear head maps back to the embedding space.
  tensor::Tensor contextual = prompt_lstm_->Forward(prompt_embeddings_);
  return prompt_proj_->Forward(contextual);
}

tensor::Tensor PromptModel::BuildInputRows(const EncodedPair& x,
                                           const tensor::Tensor& prompt_rows,
                                           core::Rng* rng,
                                           int* mask_pos) const {
  // Expand slots into a token-id sequence; prompt slots get a placeholder
  // id whose embedding row is replaced below.
  const int max_len = encoder_->config().max_seq_len;
  std::vector<int> ids;
  std::vector<std::pair<int, int>> prompt_positions;  // (seq pos, prompt idx)
  int mask = -1;

  // Budget the two entity spans so the full template fits max_len.
  const int overhead = TemplateOverhead(config_.template_type);
  const int budget = (max_len - overhead) / 2;
  auto clipped = [budget](const std::vector<int>& v) {
    std::vector<int> out = v;
    if (static_cast<int>(out.size()) > budget) {
      out.resize(static_cast<size_t>(budget));
    }
    return out;
  };
  const std::vector<int> left = clipped(x.left_ids);
  const std::vector<int> right = clipped(x.right_ids);

  for (const TemplateSlot& slot : slots_) {
    switch (slot.kind) {
      case TemplateSlot::Kind::kToken:
        ids.push_back(slot.token_id);
        break;
      case TemplateSlot::Kind::kLeftEntity:
        ids.insert(ids.end(), left.begin(), left.end());
        break;
      case TemplateSlot::Kind::kRightEntity:
        ids.insert(ids.end(), right.begin(), right.end());
        break;
      case TemplateSlot::Kind::kMask:
        mask = static_cast<int>(ids.size());
        ids.push_back(SpecialTokens::kMask);
        break;
      case TemplateSlot::Kind::kPrompt:
        prompt_positions.emplace_back(static_cast<int>(ids.size()),
                                      slot.prompt_index);
        ids.push_back(SpecialTokens::kPad);  // placeholder row
        break;
    }
  }
  PROMPTEM_CHECK(mask >= 0);
  *mask_pos = mask;

  tensor::Tensor rows = encoder_->token_embedding().Forward(ids);
  if (!prompt_positions.empty()) {
    const tensor::Tensor prompts =
        prompt_rows.defined() ? prompt_rows : PromptRows();
    // Splice prompt rows into the sequence between token segments.
    std::vector<tensor::Tensor> pieces;
    int cursor = 0;
    for (const auto& [pos, prompt_idx] : prompt_positions) {
      if (pos > cursor) {
        std::vector<int> seg(static_cast<size_t>(pos - cursor));
        for (int i = cursor; i < pos; ++i) {
          seg[static_cast<size_t>(i - cursor)] = i;
        }
        pieces.push_back(ops::SelectRows(rows, seg));
      }
      pieces.push_back(ops::SelectRows(prompts, {prompt_idx}));
      cursor = pos + 1;
    }
    const int total = static_cast<int>(ids.size());
    if (cursor < total) {
      std::vector<int> seg(static_cast<size_t>(total - cursor));
      for (int i = cursor; i < total; ++i) {
        seg[static_cast<size_t>(i - cursor)] = i;
      }
      pieces.push_back(ops::SelectRows(rows, seg));
    }
    rows = ops::ConcatRows(pieces);
  }
  return encoder_->EmbedRows(rows, nn::TransformerEncoder::DuplicateFlags(ids),
                             rng);
}

tensor::Tensor PromptModel::MaskLogits(const EncodedPair& x,
                                       const tensor::Tensor& prompt_rows,
                                       core::Rng* rng) const {
  int mask_pos = -1;
  tensor::Tensor embedded = BuildInputRows(x, prompt_rows, rng, &mask_pos);
  // The verbalizer reads only h_[MASK] (Eq. 1), so the last layer
  // computes that one row.
  const std::vector<int> mask_row = {mask_pos};
  tensor::Tensor hidden = encoder_->EncodeEmbedded(embedded, rng, &mask_row);
  return encoder_->MlmLogits(hidden, {0});
}

tensor::Tensor PromptModel::PairEmbedding(const EncodedPair& x,
                                          core::Rng* rng) const {
  tensor::NoGradGuard no_grad;
  int mask_pos = -1;
  tensor::Tensor embedded =
      BuildInputRows(x, tensor::Tensor(), rng, &mask_pos);
  tensor::Tensor hidden = encoder_->EncodeEmbedded(embedded, rng);
  return ops::MeanRows(hidden);
}

tensor::Tensor PromptModel::Loss(const EncodedPair& x, int label,
                                 core::Rng* rng) {
  return verbalizer_.Loss(MaskLogits(x, tensor::Tensor(), rng), label);
}

std::array<float, 2> PromptModel::Probs(const EncodedPair& x,
                                        core::Rng* rng) {
  // NOTE(execution-modes): the guard here is deliberately kept even though
  // the batched engine (scoring.h) already disables grad mode per worker
  // chunk — Probs must stay graph-free when called directly (active
  // learning, ad-hoc scoring), and nested guards are free. Dropout
  // stochasticity is governed solely by the module's Train()/Eval() state,
  // so MC-Dropout works under this guard.
  tensor::NoGradGuard no_grad;
  return verbalizer_.PredictProbs(MaskLogits(x, tensor::Tensor(), rng));
}

PairClassifier::SweepScoreFn PromptModel::SweepScorer() {
  if (config_.template_mode != TemplateMode::kContinuous) {
    return PairClassifier::SweepScorer();
  }
  // The prompt rows are held by this sweep's scorer, never cached on the
  // model: any parameter change (an optimizer step, a best-snapshot
  // restore) happens between sweeps, so the next sweep recomputes them.
  tensor::Tensor prompt_rows;
  {
    tensor::NoGradGuard no_grad;
    prompt_rows = PromptRows();
  }
  return [this, prompt_rows](const EncodedPair& x, core::Rng* rng) {
    tensor::NoGradGuard no_grad;
    return verbalizer_.PredictProbs(MaskLogits(x, prompt_rows, rng));
  };
}

}  // namespace promptem::em
