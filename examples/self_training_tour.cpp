// A step-by-step walk through Lightweight Self-Training (Algorithm 1):
// train the teacher, inspect MC-Dropout uncertainties, select
// pseudo-labels (Eq. 2), and watch dynamic data pruning (Eq. 3) shrink
// the student's training set.

#include <algorithm>
#include <cstdio>

#include "data/benchmarks.h"
#include "lm/pretrained_lm.h"
#include "promptem/promptem.h"

int main() {
  using namespace promptem;
  const uint64_t kSeed = 42;

  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiTextC, kSeed);
  auto lm = lm::GetOrCreateSharedLM("promptem_shared_lm", kSeed);
  core::Rng rng(kSeed);
  data::LowResourceSplit split =
      data::MakeLowResourceSplit(ds, ds.default_rate, &rng);
  em::PairEncoder encoder = em::MakePairEncoder(*lm, ds);
  auto labeled = encoder.EncodeAll(ds, split.labeled);
  auto unlabeled = encoder.EncodeAll(ds, split.unlabeled);
  auto valid = encoder.EncodeAll(ds, split.valid);

  // Step 1: teacher on D_L (Algorithm 1, lines 2-4).
  std::printf("=== Step 1: train teacher on %zu labels ===\n",
              labeled.size());
  core::Rng model_rng(kSeed);
  em::PromptModel teacher(*lm, em::PromptModelConfig{}, &model_rng);
  train::LoopOptions train_options;
  train_options.epochs = 10;
  train::LoopResult tr =
      em::TrainClassifier(&teacher, labeled, valid, train_options);
  std::printf("teacher valid: %s (best epoch %d)\n\n",
              tr.best_eval.ToString().c_str(), tr.best_epoch);

  // Step 2: MC-Dropout uncertainty on the unlabeled pool (§4.2).
  std::printf("=== Step 2: MC-Dropout uncertainty (10 passes) ===\n");
  core::Rng mc_rng(kSeed + 1);
  std::vector<em::McEstimate> estimates;
  for (const auto& x : unlabeled) {
    estimates.push_back(em::McDropoutEstimate(&teacher, x, 10, &mc_rng));
  }
  std::vector<size_t> by_uncertainty(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) by_uncertainty[i] = i;
  std::sort(by_uncertainty.begin(), by_uncertainty.end(),
            [&](size_t a, size_t b) {
              return estimates[a].uncertainty < estimates[b].uncertainty;
            });
  std::printf("least uncertain samples (selected as pseudo-labels):\n");
  for (size_t k = 0; k < 3 && k < by_uncertainty.size(); ++k) {
    const size_t i = by_uncertainty[k];
    std::printf("  #%zu: u=%.4f  P(match)=%.2f  pseudo=%d  (gold=%d)\n", i,
                estimates[i].uncertainty, estimates[i].mean_pos_prob,
                estimates[i].pseudo_label, unlabeled[i].label);
  }
  std::printf("most uncertain samples (rejected):\n");
  for (size_t k = 0; k < 3 && k < by_uncertainty.size(); ++k) {
    const size_t i = by_uncertainty[by_uncertainty.size() - 1 - k];
    std::printf("  #%zu: u=%.4f  P(match)=%.2f  (gold=%d)\n", i,
                estimates[i].uncertainty, estimates[i].mean_pos_prob,
                unlabeled[i].label);
  }

  // Step 3: Eq. 2 selection with u_r = 0.1.
  core::Rng sel_rng(kSeed + 2);
  em::PseudoLabelResult selection = em::SelectPseudoLabels(
      &teacher, unlabeled, em::PseudoLabelStrategy::kUncertainty, 0.1, 10,
      &sel_rng);
  std::printf("\n=== Step 3: selected %zu pseudo-labels "
              "(TPR=%.2f TNR=%.2f) ===\n\n",
              selection.indices.size(), selection.tpr, selection.tnr);

  // Step 4: full Algorithm 1 with DDP, comparing the with/without-DDP
  // student workloads.
  std::printf("=== Step 4: student with dynamic data pruning ===\n");
  core::Rng factory_rng(kSeed + 3);
  em::ModelFactory factory =
      [&factory_rng, &lm]() -> std::unique_ptr<em::PairClassifier> {
    return std::make_unique<em::PromptModel>(*lm, em::PromptModelConfig{},
                                             &factory_rng);
  };
  em::SelfTrainingConfig st;
  st.teacher_options.epochs = 10;
  st.student_options.epochs = 12;
  st.prune_every = 2;
  em::SelfTrainingStats stats;
  auto model = em::RunSelfTraining(factory, labeled, unlabeled, valid, st,
                                   &stats);
  auto test = encoder.EncodeAll(ds, split.test);
  std::printf("pruned %d samples across the student phase; student saw %lld "
              "per-sample steps\n",
              stats.pruned_total,
              static_cast<long long>(stats.student_samples));
  std::printf("final test metrics: %s\n",
              em::Evaluate(model.get(), test).ToString().c_str());
  return 0;
}
