#include "promptem/encoding.h"

#include "core/hashing.h"
#include "core/thread_pool.h"
#include "data/serializer.h"
#include "text/tokenizer.h"

namespace promptem::em {
namespace {

/// Pairs per ParallelFor chunk in EncodeAll. Encoding one pair is
/// tokenizer-bound (tens of microseconds); 8 keeps scheduling overhead
/// negligible while still splitting the small self-training pools.
constexpr int64_t kEncodeGrain = 8;

}  // namespace

PairEncoder::PairEncoder(const text::Vocab* vocab, int per_side_budget,
                         size_t cache_capacity)
    : vocab_(vocab),
      per_side_budget_(per_side_budget),
      cache_(std::make_unique<core::ConcurrentCache<std::vector<int>>>(
          cache_capacity)) {
  PROMPTEM_CHECK(vocab != nullptr);
  PROMPTEM_CHECK(per_side_budget > 0);
}

void PairEncoder::FitSummarizer(const data::GemDataset& dataset) {
  std::vector<std::vector<std::string>> docs;
  docs.reserve(dataset.left_table.size() + dataset.right_table.size());
  for (const auto& r : dataset.left_table) {
    docs.push_back(text::WordTokenize(data::SerializeRecord(r)));
  }
  for (const auto& r : dataset.right_table) {
    docs.push_back(text::WordTokenize(data::SerializeRecord(r)));
  }
  tfidf_ = std::make_unique<text::TfIdf>(docs);
  // The summarizer changes how over-budget records encode; drop any
  // memoized encodings made without it.
  InvalidateCache();
}

uint64_t PairEncoder::CacheKey(const data::GemDataset& dataset, bool left,
                               int index) {
  const uint64_t side_index =
      (static_cast<uint64_t>(left ? 1 : 2) << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(index));
  // Identities are small consecutive counters; Combine64's shift terms
  // would let one dataset's keys collide with indexes ~64 away in the
  // next, so diffuse the identity first.
  return core::Combine64(core::Mix64(dataset.cache_identity), side_index);
}

std::shared_ptr<const std::vector<int>> PairEncoder::CachedEncode(
    const data::GemDataset& dataset, bool left, int index) const {
  const auto& table = left ? dataset.left_table : dataset.right_table;
  PROMPTEM_CHECK(index >= 0 && static_cast<size_t>(index) < table.size());
  return cache_->GetOrCompute(CacheKey(dataset, left, index), [&] {
    return EncodeRecord(table[static_cast<size_t>(index)]);
  });
}

void PairEncoder::InvalidateRecord(const data::GemDataset& dataset, bool left,
                                   int index) const {
  cache_->Erase(CacheKey(dataset, left, index));
}

void PairEncoder::InvalidateCache() const { cache_->Invalidate(); }

std::vector<int> PairEncoder::EncodeRecord(const data::Record& record) const {
  std::vector<std::string> tokens =
      text::WordTokenize(data::SerializeRecord(record));
  const auto budget = static_cast<size_t>(per_side_budget_);
  if (tokens.size() > budget) {
    if (tfidf_ != nullptr) {
      // Appendix F: keep high-TF-IDF non-stopword tokens instead of
      // blindly truncating (important signal is rarely at the front).
      tokens = text::SummarizeTokens(*tfidf_, tokens, budget);
    } else {
      tokens.resize(budget);
    }
  }
  return text::TokensToIds(*vocab_, tokens);
}

EncodedPair PairEncoder::Encode(const data::GemDataset& dataset,
                                const data::PairExample& pair) const {
  EncodedPair out;
  out.left_ids = *CachedEncode(dataset, /*left=*/true, pair.left_index);
  out.right_ids = *CachedEncode(dataset, /*left=*/false, pair.right_index);
  out.label = pair.label;
  return out;
}

std::vector<EncodedPair> PairEncoder::EncodeAll(
    const data::GemDataset& dataset,
    const std::vector<data::PairExample>& pairs) const {
  std::vector<EncodedPair> out(pairs.size());
  // Per-slot writes of a pure function of pairs[i]: bitwise identical at
  // any pool size. The memo only decides which lane pays the encode.
  core::ParallelFor(0, static_cast<int64_t>(pairs.size()), kEncodeGrain,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        out[static_cast<size_t>(i)] =
                            Encode(dataset, pairs[static_cast<size_t>(i)]);
                      }
                    });
  return out;
}

}  // namespace promptem::em
