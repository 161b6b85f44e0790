#ifndef PROMPTEM_PROMPTEM_SELF_TRAINING_H_
#define PROMPTEM_PROMPTEM_SELF_TRAINING_H_

#include <functional>
#include <memory>

#include "promptem/pseudo_labels.h"

namespace promptem::em {

/// Creates a fresh model (teacher or student) initialized from the
/// pre-trained LM.
using ModelFactory = std::function<std::unique_ptr<PairClassifier>()>;

/// Teacher/student rounds of Algorithm 1 (the paper runs one).
inline constexpr int kSelfTrainingIterations = 1;

/// Lightweight Self-Training configuration (Algorithm 1 of §4). The
/// defaults are train::RunOptions' (u_r 0.10, e_r 0.20 every 2 epochs).
///
/// The teacher trains with `teacher_options` as given (run name "teacher"
/// when empty). The student starts from a copy of `student_options`; the
/// driver overrides only what pruning and cross-phase selection need:
/// reset_order_each_epoch (true), rng (seeded from student_options.seed),
/// restore_best (false), best_score_init (the best F1 so far) and an empty
/// run_name ("student").
struct SelfTrainingConfig {
  train::LoopOptions teacher_options;
  train::LoopOptions student_options;
  double pseudo_ratio = 0.10;  ///< u_r: fraction of D_U pseudo-labeled
  double prune_ratio = 0.20;   ///< e_r: fraction of D_L pruned per pruning
  int prune_every = 2;         ///< prune every this many student epochs
  int mc_passes = 10;          ///< MC-Dropout passes (paper: 10)
  bool use_pseudo_labels = true;  ///< LST switch (ablation w/o LST)
  bool use_pruning = true;        ///< DDP switch (ablation w/o DDP)
  PseudoLabelStrategy strategy = PseudoLabelStrategy::kUncertainty;
  uint64_t seed = 23;
  /// Optional embedding cache for the kClustering strategy. `embed_keys`
  /// is parallel to RunSelfTraining's `unlabeled` argument (one key per
  /// pair, built with EmbeddingCache's key builders); the driver keeps
  /// the surviving keys aligned as pseudo-labeled pairs leave D_U.
  EmbeddingCache* embed_cache = nullptr;
  std::vector<uint64_t> embed_keys;
};

/// Observability for the benchmark tables.
struct SelfTrainingStats {
  train::LoopResult teacher_result;
  Metrics student_best_valid;
  PseudoLabelResult pseudo;      ///< last iteration's selection
  /// Samples removed by DDP. The student's last epoch never prunes (no
  /// epoch would train on the result), so this counts only prunes a later
  /// epoch trains on.
  int pruned_total = 0;
  int64_t student_samples = 0;   ///< per-sample steps during student phase
  double teacher_seconds = 0.0;
  /// MC-Dropout pseudo-label selection over D_U (Algorithm 1, lines 5-8).
  double pseudo_label_seconds = 0.0;
  /// The student phase, including its DDP prunes.
  double student_seconds = 0.0;
  /// DDP's MC-EL2N scoring and pruning, inside student_seconds.
  double prune_seconds = 0.0;
};

/// Runs Algorithm 1 and returns the best student model (the teacher when
/// use_pseudo_labels is false, in which case this reduces to plain
/// supervised training).
///
/// `unlabeled` gold labels are only consulted for the pseudo-label quality
/// stats; training reads pseudo-labels exclusively.
std::unique_ptr<PairClassifier> RunSelfTraining(
    const ModelFactory& factory, const std::vector<EncodedPair>& labeled,
    const std::vector<EncodedPair>& unlabeled,
    const std::vector<EncodedPair>& valid, const SelfTrainingConfig& config,
    SelfTrainingStats* stats, const EmbeddingFn& embed = nullptr);

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_SELF_TRAINING_H_
