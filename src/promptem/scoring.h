#ifndef PROMPTEM_PROMPTEM_SCORING_H_
#define PROMPTEM_PROMPTEM_SCORING_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/concurrent_cache.h"
#include "promptem/embed_cache.h"
#include "promptem/trainer.h"
#include "tensor/quant.h"

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
/// PairClassifier implementations plug in via ScoreBatch /
/// ScoreBatchStochastic; models with other shapes (e.g. TDmatch*'s
/// graph-embedding head) adapt through ScoreIndexed; non-probability
/// work (MC-Dropout estimates, pair embeddings) rides ForEachGraphFree.

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

/// Eval-traffic quantization switch for the engine. In kInt8 mode every
/// graph-free sweep (ScoreBatch / ScoreIndexed / EmbedBatch) runs its
/// Linear forwards through the dynamically quantized int8 kernel
/// (tensor/quant.h); training and MC-dropout (ScoreBatchStochastic)
/// always stay f32 because they run with training-mode/grad semantics.
/// Each sweep entry bumps the quant generation, so weight updates between
/// sweeps requantize lazily. Exact across kernel variants (the int8 GEMM
/// is integer arithmetic) and bitwise deterministic at any pool size.
inline void SetEvalQuantization(tensor::quant::EvalQuantMode mode) {
  tensor::quant::SetEvalQuantMode(mode);
}
inline tensor::quant::EvalQuantMode GetEvalQuantization() {
  return tensor::quant::GetEvalQuantMode();
}

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
/// leaves it there, matching PredictLabels semantics).
std::vector<ProbPair> ScoreBatch(PairClassifier* model,
                                 const std::vector<EncodedPair>& xs);

/// Stochastic probabilities: dropout stays active (ScopedTrainingMode)
/// and sample i draws its dropout pattern from Rng(seeds[i]).
std::vector<ProbPair> ScoreBatchStochastic(PairClassifier* model,
                                           const std::vector<EncodedPair>& xs,
                                           const std::vector<uint64_t>& seeds);

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

/// Cached variants of the deterministic eval sweeps. `keys[i]` names
/// xs[i]'s result in the cache (a composite over dataset/model
/// fingerprints and the pair's table indexes — see EmbeddingCache's key
/// builders); only misses go through the engine, and every computed value
/// is inserted for the next sweep. Because eval forwards are pure
/// functions of the input (per-sample rng draws are unused), output is
/// bitwise identical to the uncached sweep at any pool size and any cache
/// state. Stochastic paths (ScoreBatchStochastic, MC-Dropout) have no
/// cached variant by design: their outputs are not pure in the key.
///
/// `cache == nullptr` (or empty `keys`) degrades to the uncached sweep.
std::vector<ProbPair> ScoreBatchCached(
    PairClassifier* model, const std::vector<EncodedPair>& xs,
    core::ConcurrentCache<ProbPair>* cache,
    const std::vector<uint64_t>& keys);

std::vector<std::vector<float>> EmbedBatchCached(
    const PairEmbedFn& embed, const std::vector<EncodedPair>& xs,
    const std::vector<uint64_t>& seeds, EmbeddingCache* cache,
    const std::vector<uint64_t>& keys);

/// Softmax over a [1, 2] logits tensor — the shared tail of every binary
/// Probs implementation.
ProbPair SoftmaxProbs2(const tensor::Tensor& logits);

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_SCORING_H_
