#ifndef PROMPTEM_TRAIN_TRAIN_LOOP_H_
#define PROMPTEM_TRAIN_TRAIN_LOOP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "nn/module.h"
#include "promptem/metrics.h"
#include "train/observer.h"

namespace promptem::nn {
class AdamW;
}  // namespace promptem::nn

namespace promptem::train {

/// Data-parallel per-sample step: computes the differentiable loss for
/// dataset element `index`. Runs concurrently across the minibatch, each
/// call under its own GradShard and a per-sample Rng derived from the
/// loop's stream in batch order (so results are independent of the pool
/// size). The loop reads `.item()` and calls `.Backward()`.
using ParallelStepFn =
    std::function<tensor::Tensor(size_t index, core::Rng* rng)>;

/// Sequential per-sample step: runs on the loop thread against the loop's
/// shared Rng stream. Returning nullopt skips the sample entirely — it
/// contributes no loss, no gradient, and does not advance the
/// accumulation counter (MLM documents with nothing masked).
using SequentialStepFn = std::function<std::optional<tensor::Tensor>(
    size_t index, core::Rng* rng)>;

/// Per-epoch evaluation; the returned metrics drive best-checkpoint
/// tracking (score = F1).
using EvalFn = std::function<em::Metrics()>;

/// Post-epoch hook, run after the epoch's batches and before evaluation.
/// May mutate the caller's dataset (self-training's dynamic data pruning)
/// and must return the dataset's new size; `rng` is the loop's stream, so
/// hook randomness stays on the run's deterministic timeline.
using EpochHookFn = std::function<size_t(int epoch, core::Rng* rng)>;

/// One training run's knobs — the only training-options type, from the
/// matchers and self-training down to the loop. The optimizer is AdamW
/// with nn::AdamWConfig's weight decay and gradient clipping.
struct LoopOptions {
  int epochs = 10;
  int batch_size = 8;  ///< gradient-accumulation group
  float lr = 5e-3f;
  /// Rebuild the identity order every epoch instead of re-shuffling the
  /// previous permutation (required when the epoch hook resizes the
  /// dataset; also the historical convention of the self-training student).
  bool reset_order_each_epoch = false;
  uint64_t seed = 17;
  /// External RNG stream; when set, `seed` is ignored and shuffling,
  /// per-sample seeds, and the epoch hook all draw from this stream.
  core::Rng* rng = nullptr;
  /// Restore the best-eval parameter snapshot after the last epoch.
  bool restore_best = true;
  /// Incoming best score; an epoch only becomes "best" by beating this
  /// (self-training phases compete across teacher/student rounds).
  double best_score_init = -1.0;
  TrainObserver* observer = nullptr;  ///< not owned; may be null
  std::string run_name;               ///< observer label ("teacher", "Ditto")
  std::string dataset_name;           ///< observer label
};

/// What one Run produced.
struct LoopResult {
  std::vector<float> epoch_losses;  ///< avg loss per processed sample
  em::Metrics best_eval;
  double best_score = -1.0;  ///< == options.best_score_init if never beaten
  int best_epoch = -1;       ///< 1-based; -1 when no epoch improved
  int64_t samples_processed = 0;
  /// Parameter snapshot at the best epoch (empty when no epoch improved).
  std::vector<std::vector<float>> best_snapshot;
};

/// The one training loop every learner in the repo runs through —
/// prompt-tuning, fine-tuning, MLM pre-training, the baseline heads, and
/// self-training student rounds. Owns epoch/minibatch iteration,
/// deterministic shuffling, gradient accumulation, AdamW stepping and
/// best-checkpoint tracking; the learner plugs in as a per-sample loss
/// callback.
///
/// Two execution modes, chosen by which step callback is set:
///  - data-parallel (ParallelStepFn): minibatch samples run concurrently,
///    each under its own tensor::GradShard and a per-sample Rng seeded
///    from the loop stream in batch order; shards merge in sample order
///    before the optimizer step, so gradients — and therefore weights —
///    are bitwise identical for any PROMPTEM_NUM_THREADS.
///  - sequential (SequentialStepFn): samples run on the loop thread
///    against the shared stream, stepping every `batch_size` processed
///    samples with a partial flush at epoch end.
///
/// Epochs are 1-based everywhere (iteration, observer events, best_epoch).
class TrainLoop {
 public:
  TrainLoop(nn::Module* module, LoopOptions options);

  TrainLoop& OnParallelStep(ParallelStepFn fn);
  TrainLoop& OnSequentialStep(SequentialStepFn fn);
  TrainLoop& OnEval(EvalFn fn);
  TrainLoop& OnEpochHook(EpochHookFn fn);

  /// Runs the configured number of epochs over `dataset_size` elements.
  /// Exactly one step callback must be set.
  LoopResult Run(size_t dataset_size);

  /// FNV-1a hash of the loop configuration (stamped into run logs so a
  /// record is traceable to the exact hyper-parameters that produced it).
  std::string ConfigHash() const;

 private:
  double RunEpochDataParallel(const std::vector<size_t>& order,
                              core::Rng* rng, nn::AdamW* optimizer,
                              int epoch, int64_t* processed);
  double RunEpochSequential(const std::vector<size_t>& order, core::Rng* rng,
                            nn::AdamW* optimizer, int epoch,
                            int64_t* processed);

  nn::Module* module_;
  LoopOptions options_;
  ParallelStepFn parallel_fn_;
  SequentialStepFn sequential_fn_;
  EvalFn eval_fn_;
  EpochHookFn epoch_hook_;
};

/// Copies all parameter values out of / back into a module (best-epoch
/// snapshotting, teacher/student hand-off).
std::vector<std::vector<float>> SnapshotModuleParams(
    const nn::Module& module);
void RestoreModuleParams(nn::Module* module,
                         const std::vector<std::vector<float>>& snapshot);

}  // namespace promptem::train

#endif  // PROMPTEM_TRAIN_TRAIN_LOOP_H_
