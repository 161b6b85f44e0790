#include "promptem/self_training.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/log.h"
#include "core/timer.h"
#include "train/train_loop.h"

namespace promptem::em {

namespace {

/// Student phase: supervised training with dynamic data pruning (DDP)
/// interleaved every `prune_every` epochs (Algorithm 1, lines 9-15).
/// Pruning runs as the loop's epoch hook — after the epoch's batches,
/// before evaluation — on the same RNG stream as the training epochs.
void TrainStudentWithPruning(PairClassifier* student,
                             std::vector<EncodedPair>* train_set,
                             const std::vector<EncodedPair>& valid,
                             const SelfTrainingConfig& config,
                             SelfTrainingStats* stats,
                             std::vector<std::vector<float>>* best_snapshot,
                             double* best_f1) {
  core::Rng rng(config.student_options.seed);

  train::LoopOptions loop_options = config.student_options;
  // The student re-derives the identity order every epoch (the historical
  // convention; pruning invalidates a persistent permutation anyway).
  loop_options.reset_order_each_epoch = true;
  loop_options.rng = &rng;
  // The best snapshot is handed back to the self-training driver, which
  // materializes it into a fresh model; the student itself keeps its
  // final-epoch weights.
  loop_options.restore_best = false;
  // Students compete with the teacher (and earlier students) for
  // best-on-validation: an epoch only snapshots by beating the incoming
  // cross-phase best.
  loop_options.best_score_init = *best_f1;
  if (loop_options.run_name.empty()) loop_options.run_name = "student";

  train::TrainLoop loop(student->AsModule(), loop_options);
  loop.OnParallelStep([&](size_t index, core::Rng* sample_rng) {
    const EncodedPair& x = (*train_set)[index];
    return student->Loss(x, x.label, sample_rng);
  });
  loop.OnEpochHook([&](int epoch, core::Rng* hook_rng) -> size_t {
    // Dynamic data pruning: drop the N_D least-important samples (lowest
    // MC-EL2N, Eq. 3) every `prune_every` epochs. No epoch follows the
    // last one, so nothing would train on its pruned set.
    if (config.use_pruning && config.prune_every > 0 &&
        epoch % config.prune_every == 0 && epoch < loop_options.epochs &&
        train_set->size() > 4) {
      const size_t n_d = static_cast<size_t>(
          config.prune_ratio * static_cast<double>(train_set->size()));
      if (n_d > 0) {
        core::Timer prune_timer;
        const std::vector<float> scores = McEl2nScoreBatch(
            student, *train_set, config.mc_passes, hook_rng);
        std::vector<size_t> by_score(train_set->size());
        std::iota(by_score.begin(), by_score.end(), 0);
        std::stable_sort(by_score.begin(), by_score.end(),
                         [&](size_t a, size_t b) {
                           return scores[a] < scores[b];
                         });
        std::vector<bool> drop(train_set->size(), false);
        for (size_t i = 0; i < n_d; ++i) drop[by_score[i]] = true;
        std::vector<EncodedPair> kept;
        kept.reserve(train_set->size() - n_d);
        for (size_t i = 0; i < train_set->size(); ++i) {
          if (!drop[i]) kept.push_back((*train_set)[i]);
        }
        stats->pruned_total += static_cast<int>(n_d);
        *train_set = std::move(kept);
        stats->prune_seconds += prune_timer.ElapsedSeconds();
      }
    }
    return train_set->size();
  });
  if (!valid.empty()) {
    loop.OnEval([&] { return Evaluate(student, valid); });
  }

  train::LoopResult run = loop.Run(train_set->size());
  stats->student_samples += run.samples_processed;
  if (run.best_score > *best_f1 && !run.best_snapshot.empty()) {
    *best_f1 = run.best_score;
    *best_snapshot = std::move(run.best_snapshot);
    stats->student_best_valid = run.best_eval;
  }
}

}  // namespace

std::unique_ptr<PairClassifier> RunSelfTraining(
    const ModelFactory& factory, const std::vector<EncodedPair>& labeled,
    const std::vector<EncodedPair>& unlabeled,
    const std::vector<EncodedPair>& valid, const SelfTrainingConfig& config,
    SelfTrainingStats* stats, const EmbeddingFn& embed) {
  PROMPTEM_CHECK(stats != nullptr);
  core::Rng rng(config.seed);

  std::vector<EncodedPair> d_l = labeled;
  std::vector<EncodedPair> d_u = unlabeled;
  // Embedding-cache keys stay index-aligned with the shrinking d_u.
  std::vector<uint64_t> u_keys = config.embed_keys;
  PROMPTEM_CHECK(u_keys.empty() || u_keys.size() == d_u.size());

  train::LoopOptions teacher_options = config.teacher_options;
  if (teacher_options.run_name.empty()) teacher_options.run_name = "teacher";

  // Teachers and students share one architecture (same factory), so the
  // best model across all phases is tracked as a parameter snapshot and
  // materialized once at the end.
  std::vector<std::vector<float>> best_snapshot;
  double best_f1 = -1.0;

  for (int iteration = 0; iteration < kSelfTrainingIterations; ++iteration) {
    // Teacher phase (lines 2-4).
    core::Timer teacher_timer;
    std::unique_ptr<PairClassifier> teacher = factory();
    stats->teacher_result = TrainClassifier(
        teacher.get(), d_l, valid, teacher_options);
    stats->teacher_seconds += teacher_timer.ElapsedSeconds();

    if (!config.use_pseudo_labels) {
      // Ablation "w/o LST": the teacher IS the model.
      stats->student_best_valid = stats->teacher_result.best_eval;
      return teacher;
    }

    // The teacher competes with the students for best-on-validation, so a
    // noisy pseudo-label round can never make the final model worse than
    // plain supervised training.
    if (stats->teacher_result.best_eval.F1() > best_f1) {
      best_f1 = stats->teacher_result.best_eval.F1();
      best_snapshot = train::SnapshotModuleParams(*teacher->AsModule());
      stats->student_best_valid = stats->teacher_result.best_eval;
    }

    // Uncertainty-aware pseudo-label selection (lines 5-8).
    if (!d_u.empty()) {
      core::Timer pseudo_timer;
      stats->pseudo = SelectPseudoLabels(teacher.get(), d_u,
                                         config.strategy,
                                         config.pseudo_ratio,
                                         config.mc_passes, &rng, embed,
                                         config.embed_cache, u_keys);
      stats->pseudo_label_seconds += pseudo_timer.ElapsedSeconds();
      std::vector<bool> taken(d_u.size(), false);
      for (size_t i = 0; i < stats->pseudo.indices.size(); ++i) {
        const int idx = stats->pseudo.indices[i];
        EncodedPair pseudo = d_u[static_cast<size_t>(idx)];
        pseudo.label = stats->pseudo.pseudo_labels[i];
        d_l.push_back(std::move(pseudo));
        taken[static_cast<size_t>(idx)] = true;
      }
      std::vector<EncodedPair> remaining;
      std::vector<uint64_t> remaining_keys;
      remaining.reserve(d_u.size());
      for (size_t i = 0; i < d_u.size(); ++i) {
        if (!taken[i]) {
          remaining.push_back(std::move(d_u[i]));
          if (!u_keys.empty()) remaining_keys.push_back(u_keys[i]);
        }
      }
      d_u = std::move(remaining);
      u_keys = std::move(remaining_keys);
    }

    // Student phase with dynamic data pruning (lines 9-15).
    core::Timer student_timer;
    std::unique_ptr<PairClassifier> student = factory();
    std::vector<EncodedPair> student_train = d_l;
    std::vector<std::vector<float>> snapshot;
    double f1 = best_f1;
    TrainStudentWithPruning(student.get(), &student_train, valid, config,
                            stats, &snapshot, &f1);
    stats->student_seconds += student_timer.ElapsedSeconds();
    if (f1 > best_f1 && !snapshot.empty()) {
      best_f1 = f1;
      best_snapshot = std::move(snapshot);
    }
  }

  std::unique_ptr<PairClassifier> best_model = factory();
  if (best_snapshot.empty()) {
    // Empty validation set: fall back to a fresh model trained on the
    // augmented labeled set.
    TrainClassifier(best_model.get(), d_l, valid, config.student_options);
    return best_model;
  }
  train::RestoreModuleParams(best_model->AsModule(), best_snapshot);
  best_model->AsModule()->Eval();
  return best_model;
}

}  // namespace promptem::em
