#include "promptem/scoring.h"

#include "core/thread_pool.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"

namespace promptem::em {

namespace {

/// Samples per worker chunk. Fixed — the chunk decomposition never depends
/// on the pool size. One sample per chunk spreads even a single 8-pair
/// request across every lane: a forward costs hundreds of microseconds,
/// so per-chunk dispatch and the chunk's ScratchArena warm-up (buffers are
/// still recycled across the layers of that forward) stay small beside it.
constexpr int64_t kScoreGrain = 1;

}  // namespace

void ForEachGraphFree(int64_t n, const std::function<void(int64_t)>& fn) {
  core::ParallelFor(0, n, kScoreGrain, [&](int64_t begin, int64_t end) {
    tensor::NoGradGuard no_grad;
    tensor::ScratchArena arena;
    tensor::ScratchArena::Scope scope(&arena);
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

std::vector<ProbPair> ScoreIndexed(int64_t n, const IndexedScoreFn& score_one,
                                   const std::vector<uint64_t>& seeds) {
  PROMPTEM_CHECK(seeds.empty() || static_cast<int64_t>(seeds.size()) == n);
  std::vector<ProbPair> probs(static_cast<size_t>(n));
  ForEachGraphFree(n, [&](int64_t i) {
    const size_t idx = static_cast<size_t>(i);
    core::Rng rng(seeds.empty() ? 0 : seeds[idx]);
    probs[idx] = score_one(i, &rng);
  });
  return probs;
}

std::vector<ProbPair> ScoreBatch(PairClassifier* model,
                                 const std::vector<EncodedPair>& xs) {
  model->AsModule()->Eval();
  if (xs.empty()) return {};
  const PairClassifier::SweepScoreFn score = model->SweepScorer();
  return ScoreIndexed(static_cast<int64_t>(xs.size()),
                      [&](int64_t i, core::Rng* rng) {
                        return score(xs[static_cast<size_t>(i)], rng);
                      });
}

std::vector<int> LabelsFromProbs(const std::vector<ProbPair>& probs) {
  std::vector<int> labels(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    labels[i] = probs[i][1] >= 0.5f ? 1 : 0;
  }
  return labels;
}

std::vector<std::vector<float>> EmbedBatch(const PairEmbedFn& embed,
                                           const std::vector<EncodedPair>& xs,
                                           const std::vector<uint64_t>& seeds) {
  PROMPTEM_CHECK(seeds.empty() || seeds.size() == xs.size());
  std::vector<std::vector<float>> points(xs.size());
  ForEachGraphFree(static_cast<int64_t>(xs.size()), [&](int64_t i) {
    const size_t idx = static_cast<size_t>(i);
    core::Rng rng(seeds.empty() ? 0 : seeds[idx]);
    points[idx] = embed(xs[idx], &rng);
  });
  return points;
}

bool FindStoredScore(EmbeddingCache* store, uint64_t key, ProbPair* out) {
  const auto stored = store->Find(key);
  if (stored == nullptr || stored->size() != 2) return false;
  *out = {(*stored)[0], (*stored)[1]};
  return true;
}

void InsertStoredScore(EmbeddingCache* store, uint64_t key,
                       const ProbPair& p) {
  store->Insert(key, {p[0], p[1]});
}

std::vector<std::vector<float>> EmbedBatchCached(
    const PairEmbedFn& embed, const std::vector<EncodedPair>& xs,
    const std::vector<uint64_t>& seeds, EmbeddingCache* cache,
    const std::vector<uint64_t>& keys) {
  if (cache == nullptr || keys.empty()) return EmbedBatch(embed, xs, seeds);
  PROMPTEM_CHECK(keys.size() == xs.size());
  PROMPTEM_CHECK(seeds.empty() || seeds.size() == xs.size());
  std::vector<std::vector<float>> points(xs.size());
  std::vector<size_t> misses;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (auto hit = cache->Find(keys[i])) {
      points[i] = *hit;
    } else {
      misses.push_back(i);
    }
  }
  if (misses.empty()) return points;
  std::vector<EncodedPair> miss_xs;
  std::vector<uint64_t> miss_seeds;
  miss_xs.reserve(misses.size());
  for (size_t i : misses) {
    miss_xs.push_back(xs[i]);
    if (!seeds.empty()) miss_seeds.push_back(seeds[i]);
  }
  std::vector<std::vector<float>> computed =
      EmbedBatch(embed, miss_xs, miss_seeds);
  for (size_t m = 0; m < misses.size(); ++m) {
    cache->Insert(keys[misses[m]], computed[m]);
    points[misses[m]] = std::move(computed[m]);
  }
  return points;
}

ProbPair SoftmaxProbs2(const tensor::Tensor& logits) {
  PROMPTEM_CHECK(logits.numel() == 2);
  float p[2];
  tensor::kernels::SoftmaxRows(logits.data(), 1, 2, p);
  return {p[0], p[1]};
}

}  // namespace promptem::em
