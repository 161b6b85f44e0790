#include "nn/transformer.h"

#include "text/vocab.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace promptem::nn {

namespace ops = tensor::ops;

TransformerEncoderLayer::TransformerEncoderLayer(
    const TransformerConfig& config, core::Rng* rng)
    : attn_(config.dim, config.num_heads, config.dropout, rng),
      ffn1_(config.dim, config.ffn_dim, rng),
      ffn2_(config.ffn_dim, config.dim, rng),
      ln1_(config.dim),
      ln2_(config.dim),
      dropout_(config.dropout) {
  RegisterModule("attn", &attn_);
  RegisterModule("ffn1", &ffn1_);
  RegisterModule("ffn2", &ffn2_);
  RegisterModule("ln1", &ln1_);
  RegisterModule("ln2", &ln2_);
  RegisterModule("dropout", &dropout_);
}

tensor::Tensor TransformerEncoderLayer::Forward(
    const tensor::Tensor& x, core::Rng* rng,
    const std::vector<int>* query_rows) const {
  // With query rows, only they go past K and V. Each dropout draws its
  // full [T, D] mask, in the full layer's order, and keeps the query
  // rows', so the rng stream is the full layer's; AddRows sums the
  // residual into x's gradient where the full layer's Add would.
  const int t = x.dim(0);
  const auto dropout = [&](const tensor::Tensor& y) {
    return query_rows == nullptr
               ? dropout_.Forward(y, rng)
               : dropout_.ForwardRows(y, rng, t, *query_rows);
  };
  tensor::Tensor attn_out = dropout(attn_.ForwardRows(x, query_rows, rng));
  tensor::Tensor h = ln1_.Forward(query_rows == nullptr
                                      ? ops::Add(x, attn_out)
                                      : ops::AddRows(x, *query_rows, attn_out));
  tensor::Tensor ffn = dropout(ffn2_.Forward(ops::Gelu(ffn1_.Forward(h))));
  return ln2_.Forward(ops::Add(h, ffn));
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config,
                                       core::Rng* rng)
    : config_(config),
      token_embedding_(config.vocab_size, config.dim, rng),
      position_embedding_(config.max_seq_len, config.dim, rng),
      dup_embedding_(2, config.dim, rng),
      embed_ln_(config.dim),
      embed_dropout_(config.dropout) {
  PROMPTEM_CHECK(config.vocab_size > 0);
  RegisterModule("tok", &token_embedding_);
  RegisterModule("pos", &position_embedding_);
  RegisterModule("dup", &dup_embedding_);
  RegisterModule("embed_ln", &embed_ln_);
  RegisterModule("embed_dropout", &embed_dropout_);
  for (int i = 0; i < config.num_layers; ++i) {
    layers_.push_back(
        std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterModule("layer" + std::to_string(i), layers_.back().get());
  }
  mlm_bias_ = RegisterParameter(
      "mlm_bias", tensor::Tensor::Zeros({config.vocab_size}));
}

std::vector<int> TransformerEncoder::DuplicateFlags(
    const std::vector<int>& ids) {
  // An id repeats iff its first occurrence in sorted order has an equal
  // successor.
  std::vector<int> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> flags(ids.size(), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < text::SpecialTokens::kCount) continue;
    const auto first = std::lower_bound(sorted.begin(), sorted.end(), ids[i]);
    if (first + 1 != sorted.end() && first[1] == ids[i]) flags[i] = 1;
  }
  return flags;
}

tensor::Tensor TransformerEncoder::EmbedRows(
    const tensor::Tensor& rows, const std::vector<int>& dup_flags,
    core::Rng* rng) const {
  PROMPTEM_CHECK(rows.ndim() == 2 && rows.dim(1) == config_.dim);
  const int t = rows.dim(0);
  PROMPTEM_CHECK_MSG(t <= config_.max_seq_len,
                     "sequence exceeds max_seq_len");
  std::vector<int> positions(t);
  std::iota(positions.begin(), positions.end(), 0);
  tensor::Tensor emb = ops::Add(rows, position_embedding_.Forward(positions));
  if (!dup_flags.empty()) {
    PROMPTEM_CHECK(static_cast<int>(dup_flags.size()) == t);
    emb = ops::Add(emb, dup_embedding_.Forward(dup_flags));
  }
  emb = embed_ln_.Forward(emb);
  return embed_dropout_.Forward(emb, rng);
}

tensor::Tensor TransformerEncoder::Embed(const std::vector<int>& ids,
                                         core::Rng* rng) const {
  return EmbedRows(token_embedding_.Forward(ids), DuplicateFlags(ids), rng);
}

tensor::Tensor TransformerEncoder::EncodeEmbedded(
    const tensor::Tensor& embedded, core::Rng* rng,
    const std::vector<int>* query_rows) const {
  PROMPTEM_CHECK(query_rows == nullptr || !layers_.empty());
  tensor::Tensor h = embedded;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    h = layers_[i]->Forward(h, rng, last ? query_rows : nullptr);
  }
  return h;
}

tensor::Tensor TransformerEncoder::Encode(
    const std::vector<int>& ids, core::Rng* rng,
    const std::vector<int>* query_rows) const {
  return EncodeEmbedded(Embed(ids, rng), rng, query_rows);
}

tensor::Tensor TransformerEncoder::MlmLogits(
    const tensor::Tensor& hidden, const std::vector<int>& positions) const {
  // NOTE(execution-modes): the tied MLM head multiplies against the full
  // embedding table, which is the most allocation-heavy step of a prompt
  // forward. Rows are selected *before* the projection so eval scoring
  // only pays for the [MASK] positions, and under a NoGradGuard the
  // [positions, vocab] logits buffer comes from the thread's ScratchArena
  // rather than the heap (see DESIGN.md "Execution modes").
  tensor::Tensor selected = ops::SelectRows(hidden, positions);
  tensor::Tensor logits = ops::MatMul(selected, token_embedding_.table(),
                                      false, /*trans_b=*/true);
  return ops::AddBiasInPlace(std::move(logits), mlm_bias_);
}

}  // namespace promptem::nn
