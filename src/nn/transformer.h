#ifndef PROMPTEM_NN_TRANSFORMER_H_
#define PROMPTEM_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"

namespace promptem::nn {

/// Hyper-parameters of the transformer encoder (the "LM backbone").
/// Defaults are sized for single-core CPU training; raise for fidelity.
struct TransformerConfig {
  int vocab_size = 0;      ///< set from the tokenizer
  int max_seq_len = 160;   ///< positions available
  int dim = 64;            ///< hidden size
  int num_layers = 2;
  int num_heads = 4;
  int ffn_dim = 128;       ///< inner FFN width
  float dropout = 0.1f;
};

/// One post-LN encoder block: x = LN(x + Attn(x)); x = LN(x + FFN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& config, core::Rng* rng);

  /// x: [T, D] -> [T, D]. With `query_rows` (strictly ascending),
  /// returns only those rows ([query_rows.size(), D]), bitwise equal to
  /// the same rows of the full output in every mode: K and V still
  /// project every row, while attention, the out-projection, residuals,
  /// LayerNorms and the FFN run only over the listed rows. Dropout draws
  /// the full layer's masks and keeps the listed rows'. Under grad, every
  /// parameter and x receive the full layer's gradient when the loss
  /// reads only the listed rows (nn_test pins both).
  tensor::Tensor Forward(const tensor::Tensor& x, core::Rng* rng,
                         const std::vector<int>* query_rows = nullptr) const;

 private:
  MultiHeadSelfAttention attn_;
  Linear ffn1_;
  Linear ffn2_;
  LayerNormLayer ln1_;
  LayerNormLayer ln2_;
  DropoutLayer dropout_;
};

/// BERT-style encoder: token + position embeddings, N blocks, and a tied
/// masked-LM head (logits = h @ E^T + vocab bias). The tied head is what
/// lets prompt-tuning reuse pre-trained token knowledge at [MASK].
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& config, core::Rng* rng);

  /// Embeds token ids (with positions and duplicate markers) -> [T, D].
  /// Exposed separately so P-tuning can splice trainable prompt embeddings
  /// into the input.
  tensor::Tensor Embed(const std::vector<int>& ids, core::Rng* rng) const;

  /// Adds position embeddings, duplicate-marker embeddings, embedding
  /// layer-norm, and dropout to externally assembled token rows [T, D].
  /// P-tuning uses this to splice trainable prompt embeddings into the
  /// input before positions are added. `dup_flags` has one 0/1 entry per
  /// row (1 = this token id occurs more than once in the sequence); pass
  /// an empty vector to skip the marker.
  tensor::Tensor EmbedRows(const tensor::Tensor& rows,
                           const std::vector<int>& dup_flags,
                           core::Rng* rng) const;

  /// Duplicate-marker flags for a token-id sequence: flag[i] = 1 when
  /// ids[i] appears at least twice (special tokens always 0). This learned
  /// input feature is the small-scale stand-in for a large pre-trained
  /// model's innate token-overlap awareness (DESIGN.md §1): it marks
  /// surface overlap between the two record segments of a pair input.
  /// Single-digit tokens duplicate spuriously in digit-heavy records, so
  /// the marker is uninformative exactly where the paper observes LMs
  /// failing on numeric attributes.
  static std::vector<int> DuplicateFlags(const std::vector<int>& ids);

  /// Runs the encoder blocks over already-embedded input [T, D] -> [T, D].
  /// With `query_rows`, the last block computes only those rows and the
  /// result is [query_rows.size(), D], bitwise equal to the same rows of
  /// the full output. Heads that read one row (the [MASK] verbalizer, a
  /// [CLS] classifier) pass it in every mode: eval, MC-Dropout and
  /// training (see TransformerEncoderLayer::Forward).
  tensor::Tensor EncodeEmbedded(
      const tensor::Tensor& embedded, core::Rng* rng,
      const std::vector<int>* query_rows = nullptr) const;

  /// Embed + encode convenience.
  tensor::Tensor Encode(const std::vector<int>& ids, core::Rng* rng,
                        const std::vector<int>* query_rows = nullptr) const;

  /// Tied MLM logits for selected positions: [positions.size(), vocab].
  tensor::Tensor MlmLogits(const tensor::Tensor& hidden,
                           const std::vector<int>& positions) const;

  const TransformerConfig& config() const { return config_; }
  const Embedding& token_embedding() const { return token_embedding_; }

 private:
  TransformerConfig config_;
  Embedding token_embedding_;
  Embedding position_embedding_;
  Embedding dup_embedding_;  ///< [2, D]: row 1 marks duplicated tokens
  LayerNormLayer embed_ln_;
  DropoutLayer embed_dropout_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  tensor::Tensor mlm_bias_;
};

}  // namespace promptem::nn

#endif  // PROMPTEM_NN_TRANSFORMER_H_
