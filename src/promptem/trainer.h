#ifndef PROMPTEM_PROMPTEM_TRAINER_H_
#define PROMPTEM_PROMPTEM_TRAINER_H_

#include <array>
#include <functional>
#include <vector>

#include "nn/module.h"
#include "promptem/encoding.h"
#include "promptem/metrics.h"
#include "train/train_loop.h"

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

/// Trains `model` on `train` (labels from EncodedPair::label) through
/// train::TrainLoop's data-parallel mode, evaluating on `valid` each epoch
/// and restoring the best-F1 weights at the end (the paper selects the
/// epoch with the highest validation F1); an empty `valid` skips selection
/// and keeps the last epoch's weights. `options` goes to the loop as is.
/// The returned best_snapshot is cleared once restored, so the model holds
/// the only copy of the best weights. Leaves the model in eval mode.
train::LoopResult TrainClassifier(PairClassifier* model,
                                  const std::vector<EncodedPair>& train,
                                  const std::vector<EncodedPair>& valid,
                                  const train::LoopOptions& options);

/// Evaluates in eval mode (deterministic) against the labels in `examples`.
Metrics Evaluate(PairClassifier* model,
                 const std::vector<EncodedPair>& examples);

/// Predicted labels in eval mode (threshold 0.5 on P(yes)).
std::vector<int> PredictLabels(PairClassifier* model,
                               const std::vector<EncodedPair>& examples);

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_TRAINER_H_
