#ifndef PROMPTEM_LM_MLM_H_
#define PROMPTEM_LM_MLM_H_

#include <string>
#include <vector>

#include "lm/corpus.h"
#include "nn/transformer.h"
#include "train/observer.h"

namespace promptem::lm {

/// Masked-LM pre-training options (BERT-style 15% selection with 80/10/10
/// mask/random/keep corruption). Documents are truncated to the
/// encoder's max_seq_len.
struct MlmOptions {
  int epochs = 3;
  float lr = 1e-3f;
  /// Words that are always masked when present (the verbalizer's label
  /// words, so every cloze document trains the label-word mapping).
  /// Words missing from the vocabulary are ignored.
  std::vector<std::string> always_mask_words;
  /// Receives the pre-training loop's events (not owned; may be null).
  train::TrainObserver* observer = nullptr;
};

/// One masked training instance.
struct MlmInstance {
  std::vector<int> input_ids;  ///< with [MASK]/random corruptions applied
  std::vector<int> targets;    ///< original id at masked positions, -1 else
};

/// Applies the 15% / 80-10-10 corruption to a token-id sequence. Ensures
/// at least one position is masked for non-empty inputs.
MlmInstance MaskTokens(const std::vector<int>& ids, int vocab_size,
                       float mask_prob, core::Rng* rng);

/// Pre-trains `encoder` on the corpus with the MLM objective. Returns the
/// final average loss per epoch (front = first epoch), so callers and
/// tests can assert the loss decreases.
std::vector<float> PretrainMlm(nn::TransformerEncoder* encoder,
                               const Corpus& corpus,
                               const text::Vocab& vocab,
                               const MlmOptions& options, core::Rng* rng);

}  // namespace promptem::lm

#endif  // PROMPTEM_LM_MLM_H_
