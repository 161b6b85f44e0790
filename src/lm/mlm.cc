#include "lm/mlm.h"

#include <algorithm>

#include "core/status.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "train/train_loop.h"

namespace promptem::lm {

namespace ops = tensor::ops;
using text::SpecialTokens;

MlmInstance MaskTokens(const std::vector<int>& ids, int vocab_size,
                       float mask_prob, core::Rng* rng) {
  MlmInstance inst;
  inst.input_ids = ids;
  inst.targets.assign(ids.size(), -1);
  int masked = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    // Never corrupt special tokens.
    if (ids[i] < SpecialTokens::kCount) continue;
    if (!rng->Bernoulli(mask_prob)) continue;
    inst.targets[i] = ids[i];
    ++masked;
    const double roll = rng->NextDouble();
    if (roll < 0.8) {
      inst.input_ids[i] = SpecialTokens::kMask;
    } else if (roll < 0.9) {
      inst.input_ids[i] = SpecialTokens::kCount +
                          static_cast<int>(rng->NextU64(static_cast<uint64_t>(
                              vocab_size - SpecialTokens::kCount)));
    }  // else: keep original token.
  }
  if (masked == 0 && !ids.empty()) {
    // Guarantee a learning signal on short documents.
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= SpecialTokens::kCount) {
        inst.targets[i] = ids[i];
        inst.input_ids[i] = SpecialTokens::kMask;
        break;
      }
    }
  }
  return inst;
}

namespace {

/// Share of eligible tokens selected for corruption (BERT's 15%).
constexpr float kMaskProb = 0.15f;

}  // namespace

std::vector<float> PretrainMlm(nn::TransformerEncoder* encoder,
                               const Corpus& corpus,
                               const text::Vocab& vocab,
                               const MlmOptions& options, core::Rng* rng) {
  PROMPTEM_CHECK(encoder != nullptr);

  // Pre-encode all documents once.
  const int max_seq_len = encoder->config().max_seq_len;
  std::vector<std::vector<int>> encoded;
  encoded.reserve(corpus.documents.size());
  for (const auto& doc : corpus.documents) {
    std::vector<int> ids = text::TokensToIds(vocab, doc);
    if (static_cast<int>(ids.size()) > max_seq_len) {
      ids.resize(static_cast<size_t>(max_seq_len));
    }
    if (!ids.empty()) encoded.push_back(std::move(ids));
  }
  PROMPTEM_CHECK_MSG(!encoded.empty(), "empty pre-training corpus");

  std::vector<int> always_mask_ids;
  for (const auto& word : options.always_mask_words) {
    if (vocab.Contains(word)) always_mask_ids.push_back(vocab.ToId(word));
  }

  train::LoopOptions loop_options;
  loop_options.epochs = options.epochs;
  // MLM steps after every document (sequential mode with group size 1);
  // documents where masking selected nothing are skipped entirely.
  loop_options.batch_size = 1;
  loop_options.lr = options.lr;
  loop_options.rng = rng;
  loop_options.observer = options.observer;
  loop_options.run_name = "mlm";

  train::TrainLoop loop(encoder, loop_options);
  loop.OnSequentialStep(
      [&](size_t idx, core::Rng* step_rng)
          -> std::optional<tensor::Tensor> {
        MlmInstance inst =
            MaskTokens(encoded[idx], vocab.size(), kMaskProb, step_rng);
        for (size_t i = 0; i < encoded[idx].size(); ++i) {
          const int original = encoded[idx][i];
          for (int forced : always_mask_ids) {
            if (original == forced) {
              inst.targets[i] = original;
              inst.input_ids[i] = SpecialTokens::kMask;
            }
          }
        }
        std::vector<int> positions;
        std::vector<int> labels;
        for (size_t i = 0; i < inst.targets.size(); ++i) {
          if (inst.targets[i] >= 0) {
            positions.push_back(static_cast<int>(i));
            labels.push_back(inst.targets[i]);
          }
        }
        if (positions.empty()) return std::nullopt;
        tensor::Tensor hidden = encoder->Encode(inst.input_ids, step_rng);
        tensor::Tensor logits = encoder->MlmLogits(hidden, positions);
        return ops::CrossEntropyLogits(logits, labels);
      });

  return loop.Run(encoded.size()).epoch_losses;
}

}  // namespace promptem::lm
