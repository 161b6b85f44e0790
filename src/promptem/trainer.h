#ifndef PROMPTEM_PROMPTEM_TRAINER_H_
#define PROMPTEM_PROMPTEM_TRAINER_H_

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "nn/module.h"
#include "promptem/encoding.h"
#include "promptem/metrics.h"
#include "train/observer.h"

namespace promptem::em {

/// The interface every matcher model implements (PromptEM's prompt model,
/// the vanilla fine-tuning model, and the LM-based baselines). Per-sample
/// API: the trainer accumulates gradients across a minibatch and steps.
class PairClassifier {
 public:
  virtual ~PairClassifier() = default;

  /// Differentiable scalar loss for one labeled pair.
  virtual tensor::Tensor Loss(const EncodedPair& x, int label,
                              core::Rng* rng) = 0;

  /// {P(no), P(yes)} for one pair. Deterministic in eval mode; stochastic
  /// (dropout active) in training mode — MC-Dropout exploits the latter.
  virtual std::array<float, 2> Probs(const EncodedPair& x,
                                     core::Rng* rng) = 0;

  /// Probs for one scoring sweep, callable from every pool worker at
  /// once. Built at the start of a sweep, in the mode the sweep runs in
  /// (eval for ScoreBatch, training for the MC-Dropout passes), it may
  /// hold values that depend only on the parameters, computed once for
  /// the whole sweep (PromptModel's P-tuning prompt rows). Such values go
  /// stale when the parameters change, so a scorer lives no longer than
  /// its sweep. Each call returns bitwise what Probs would.
  using SweepScoreFn =
      std::function<std::array<float, 2>(const EncodedPair&, core::Rng*)>;
  virtual SweepScoreFn SweepScorer() {
    return [this](const EncodedPair& x, core::Rng* rng) {
      return Probs(x, rng);
    };
  }

  /// The underlying module (parameters / train mode).
  virtual nn::Module* AsModule() = 0;
};

/// Supervised training configuration. The small from-scratch LM wants a
/// larger learning rate than the paper's 2e-5 for RoBERTa-base.
struct TrainOptions {
  int epochs = 10;
  int batch_size = 8;  ///< gradient-accumulation group
  float lr = 5e-3f;
  float weight_decay = 0.01f;
  bool select_best_on_valid = true;  ///< restore best-F1 weights at the end
  /// Stop after this many consecutive epochs without a validation-F1
  /// improvement (0 = disabled; requires select_best_on_valid).
  int early_stop_patience = 0;
  uint64_t seed = 17;
  train::TrainObserver* observer = nullptr;  ///< not owned; may be null
  std::string run_name;                      ///< observer label
  std::string dataset_name;                  ///< observer label
};

/// Per-run training statistics.
struct TrainResult {
  std::vector<float> epoch_losses;
  Metrics best_valid;
  int best_epoch = -1;          ///< 1-based; -1 when no epoch improved
  int64_t samples_trained = 0;  ///< total per-sample steps across epochs
};

/// Trains `model` on `train` (labels from EncodedPair::label), evaluating
/// on `valid` each epoch and restoring the best-F1 snapshot at the end
/// (the paper selects the epoch with the highest validation F1). A thin
/// adapter over train::TrainLoop's data-parallel mode; leaves the model
/// in eval mode.
TrainResult TrainClassifier(PairClassifier* model,
                            const std::vector<EncodedPair>& train,
                            const std::vector<EncodedPair>& valid,
                            const TrainOptions& options);

/// Evaluates in eval mode (deterministic) against the labels in `examples`.
Metrics Evaluate(PairClassifier* model,
                 const std::vector<EncodedPair>& examples);

/// Predicted labels in eval mode (threshold 0.5 on P(yes)).
std::vector<int> PredictLabels(PairClassifier* model,
                               const std::vector<EncodedPair>& examples);

/// Copies all parameter values out of / back into a module (best-epoch
/// snapshotting, teacher/student hand-off). Aliases for the train:: pair,
/// kept under the em:: name the self-training and test code uses.
std::vector<std::vector<float>> SnapshotParams(const nn::Module& module);
void RestoreParams(nn::Module* module,
                   const std::vector<std::vector<float>>& snapshot);

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_TRAINER_H_
