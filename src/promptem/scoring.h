#ifndef PROMPTEM_PROMPTEM_SCORING_H_
#define PROMPTEM_PROMPTEM_SCORING_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/concurrent_cache.h"
#include "data/dataset.h"
#include "promptem/embed_cache.h"
#include "promptem/trainer.h"

namespace promptem::em {

/// {P(no), P(yes)} for one pair.
using ProbPair = std::array<float, 2>;

/// The unified batched inference engine.
///
/// Every matcher in the repo — the prompt model, the vanilla fine-tuning
/// model, and the baselines — scores pairs one at a time through some
/// per-sample forward. This header is the single execution path that
/// batches those forwards: pool-parallel across samples, graph-free (each
/// worker chunk runs under a NoGradGuard so no autograd state is built),
/// with intermediate buffers recycled (each chunk — one sample — installs
/// a tensor::ScratchArena that reuses them across the forward's layers;
/// DESIGN.md §6 explains the one-sample grain). Results are
/// written to per-index slots and per-sample rng streams are derived from
/// explicit seeds, so the output is bitwise identical for any
/// PROMPTEM_NUM_THREADS.
///
/// PairClassifier implementations plug in via ScoreBatch; models with
/// other shapes (e.g. TDmatch*'s graph-embedding head) adapt through
/// ScoreIndexed; non-probability work (MC-Dropout estimates, pair
/// embeddings) rides ForEachGraphFree.

/// RAII: forces training mode (dropout active) if it is not already on,
/// restoring the previous mode on destruction. When the mode is already
/// correct nothing is written, so concurrent scopes over the same module
/// only read the flag. This is how MC-Dropout keeps dropout stochastic
/// while grad mode is off.
class ScopedTrainingMode {
 public:
  explicit ScopedTrainingMode(nn::Module* module)
      : module_(module), was_training_(module->training()) {
    if (!was_training_) module_->Train();
  }
  ~ScopedTrainingMode() {
    if (!was_training_) module_->Eval();
  }

  ScopedTrainingMode(const ScopedTrainingMode&) = delete;
  ScopedTrainingMode& operator=(const ScopedTrainingMode&) = delete;

 private:
  nn::Module* module_;
  bool was_training_;
};

/// Runs `fn(i)` for every i in [0, n) across the thread pool. Each worker
/// chunk executes under a NoGradGuard and a fresh ScratchArena scope, so
/// the body's forwards build no graph and recycle intermediate buffers.
/// `fn` must confine its side effects to slot i.
void ForEachGraphFree(int64_t n, const std::function<void(int64_t)>& fn);

/// Scores `n` indices through the engine. Index i is scored with a
/// core::Rng seeded from seeds[i] (or 0 when `seeds` is empty — the draws
/// are unused by deterministic eval forwards); slot i receives the result.
using IndexedScoreFn = std::function<ProbPair(int64_t, core::Rng*)>;
std::vector<ProbPair> ScoreIndexed(int64_t n, const IndexedScoreFn& score_one,
                                   const std::vector<uint64_t>& seeds = {});

/// Eval-mode probabilities for every pair. Puts the model in Eval() (and
/// leaves it there, matching PredictLabels semantics), then scores every
/// pair through one PairClassifier::SweepScorer built for this call.
std::vector<ProbPair> ScoreBatch(PairClassifier* model,
                                 const std::vector<EncodedPair>& xs);

/// Threshold 0.5 on P(yes) — the decision rule used everywhere.
std::vector<int> LabelsFromProbs(const std::vector<ProbPair>& probs);

/// Flat per-pair embeddings through the engine (clustering pseudo-labels).
/// Sample i's rng is seeded from seeds[i] (or 0 when empty).
using PairEmbedFn =
    std::function<std::vector<float>(const EncodedPair&, core::Rng*)>;
std::vector<std::vector<float>> EmbedBatch(const PairEmbedFn& embed,
                                           const std::vector<EncodedPair>& xs,
                                           const std::vector<uint64_t>& seeds =
                                               {});

/// Scores one candidate chunk: slot i holds {P(no), P(yes)} for chunk[i].
using ChunkScoreFn =
    std::function<std::vector<ProbPair>(const std::vector<data::PairExample>&)>;

/// One pair's keys in ScoreThroughCache's tiers.
struct ScoreCacheKeys {
  /// Key in the RAM tier (unused when there is none).
  uint64_t ram = 0;
  /// Key in the persistent store — set only for restart-stable pairs,
  /// whose score a previous process computed bitwise the same.
  std::optional<uint64_t> store;
};

/// Where cached scores live; either tier may be absent.
struct ScoreCacheTiers {
  core::ConcurrentCache<ProbPair>* ram = nullptr;
  /// Scores are stored as 2-float entries (see ScoreThroughCache).
  EmbeddingCache* store = nullptr;
};

/// What ScoreThroughCache paid; each call adds hits + scored == pairs.
struct ScoreCacheCounts {
  size_t hits = 0;    ///< served from a tier
  size_t scored = 0;  ///< sent through the scorer
};

/// A score's store entry is the 2-float vector {P(no), P(yes)}. Find
/// returns false when the key is absent or holds anything else.
bool FindStoredScore(EmbeddingCache* store, uint64_t key, ProbPair* out);
void InsertStoredScore(EmbeddingCache* store, uint64_t key, const ProbPair& p);

/// The one cached-scoring path. For each pair, `key_of(pair)` returns its
/// ScoreCacheKeys; the pair is served from the RAM tier, else (restart-
/// stable pairs only) from the store, promoting a store hit into the RAM
/// tier. Every miss goes through `score` as one compacted chunk and is
/// written back into each tier that applies. Because eval scores are pure
/// functions of their pair, the result is bitwise the uncached
/// `score(pairs)` at any pool size and any cache state. Only
/// deterministic scorers may be cached — never MC-Dropout.
///
/// A template so the hit loop inlines `key_of`: on a hot cache that loop
/// is the whole cost of a request.
template <typename KeyFn>
std::vector<ProbPair> ScoreThroughCache(
    const std::vector<data::PairExample>& pairs, const KeyFn& key_of,
    const ScoreCacheTiers& tiers, const ChunkScoreFn& score,
    ScoreCacheCounts* counts) {
  if (tiers.ram == nullptr && tiers.store == nullptr) {
    counts->scored += pairs.size();
    return score(pairs);
  }
  std::vector<ProbPair> probs(pairs.size());
  std::vector<size_t> misses;
  std::vector<ScoreCacheKeys> miss_keys;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const ScoreCacheKeys keys = key_of(pairs[i]);
    if (tiers.ram != nullptr) {
      if (auto hit = tiers.ram->Find(keys.ram)) {
        probs[i] = *hit;
        continue;
      }
    }
    if (keys.store && tiers.store != nullptr &&
        FindStoredScore(tiers.store, *keys.store, &probs[i])) {
      if (tiers.ram != nullptr) tiers.ram->Insert(keys.ram, probs[i]);
      continue;
    }
    misses.push_back(i);
    miss_keys.push_back(keys);
  }
  counts->hits += pairs.size() - misses.size();
  counts->scored += misses.size();
  if (misses.empty()) return probs;
  std::vector<data::PairExample> miss_pairs;
  miss_pairs.reserve(misses.size());
  for (size_t i : misses) miss_pairs.push_back(pairs[i]);
  const std::vector<ProbPair> computed = score(miss_pairs);
  PROMPTEM_CHECK(computed.size() == misses.size());
  for (size_t m = 0; m < misses.size(); ++m) {
    probs[misses[m]] = computed[m];
    if (tiers.ram != nullptr) tiers.ram->Insert(miss_keys[m].ram, computed[m]);
    if (miss_keys[m].store && tiers.store != nullptr) {
      InsertStoredScore(tiers.store, *miss_keys[m].store, computed[m]);
    }
  }
  return probs;
}

/// Cached EmbedBatch. `keys[i]` names xs[i]'s embedding in the cache (a
/// composite over dataset/model fingerprints and the pair's table
/// indexes — see EmbeddingCache's key builders); only misses go through
/// the engine, and every computed value is inserted for the next sweep.
/// Output is bitwise the uncached sweep at any pool size and cache
/// state. `cache == nullptr` (or empty `keys`) degrades to EmbedBatch.
std::vector<std::vector<float>> EmbedBatchCached(
    const PairEmbedFn& embed, const std::vector<EncodedPair>& xs,
    const std::vector<uint64_t>& seeds, EmbeddingCache* cache,
    const std::vector<uint64_t>& keys);

/// Softmax over a [1, 2] logits tensor — the shared tail of every binary
/// Probs implementation.
ProbPair SoftmaxProbs2(const tensor::Tensor& logits);

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_SCORING_H_
