#include "promptem/uncertainty.h"

#include <array>
#include <cmath>

#include "promptem/scoring.h"

namespace promptem::em {

namespace {

/// The stochastic core: K dropout passes of `score` over one sample, pass
/// i seeded from the i-th draw of Rng(base_seed). Passes are independent,
/// so the graph-free engine fans them out across the pool (inline when
/// already inside a sample-level parallel region); the returned
/// probabilities are in pass order either way. `score` is a
/// PairClassifier::SweepScorer built after training mode went on, so
/// whatever it precomputes (the prompt model's prompt rows, which draw no
/// randomness) is computed once per call rather than once per pass.
std::vector<std::array<float, 2>> RunMcPasses(
    const PairClassifier::SweepScoreFn& score, const EncodedPair& x,
    int passes, uint64_t base_seed) {
  std::vector<uint64_t> seeds(static_cast<size_t>(passes));
  core::Rng seeder(base_seed);
  for (auto& s : seeds) s = seeder.NextU64();
  return ScoreIndexed(passes,
                      [&](int64_t, core::Rng* pass_rng) {
                        return score(x, pass_rng);
                      },
                      seeds);
}

McEstimate EstimateFromPasses(
    const std::vector<std::array<float, 2>>& probs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& p : probs) {
    sum += p[1];
    sum_sq += static_cast<double>(p[1]) * p[1];
  }
  const auto passes = static_cast<double>(probs.size());
  McEstimate est;
  const double mean = sum / passes;
  const double var = std::max(0.0, sum_sq / passes - mean * mean);
  est.mean_pos_prob = static_cast<float>(mean);
  est.uncertainty = static_cast<float>(std::sqrt(var));
  est.pseudo_label = mean >= 0.5 ? 1 : 0;
  est.confidence = static_cast<float>(std::max(mean, 1.0 - mean));
  return est;
}

float El2nFromPasses(const std::vector<std::array<float, 2>>& probs,
                     int label) {
  double total = 0.0;
  for (const auto& p : probs) {
    const float d0 = p[0] - (label == 0 ? 1.0f : 0.0f);
    const float d1 = p[1] - (label == 1 ? 1.0f : 0.0f);
    total += std::sqrt(static_cast<double>(d0) * d0 +
                       static_cast<double>(d1) * d1);
  }
  return static_cast<float>(total / static_cast<double>(probs.size()));
}

}  // namespace

McEstimate McDropoutEstimate(PairClassifier* model, const EncodedPair& x,
                             int passes, core::Rng* rng) {
  PROMPTEM_CHECK(passes >= 1);
  ScopedTrainingMode training(model->AsModule());
  return EstimateFromPasses(
      RunMcPasses(model->SweepScorer(), x, passes, rng->NextU64()));
}

float McEl2nScore(PairClassifier* model, const EncodedPair& x, int label,
                  int passes, core::Rng* rng) {
  PROMPTEM_CHECK(passes >= 1);
  PROMPTEM_CHECK(label == 0 || label == 1);
  ScopedTrainingMode training(model->AsModule());
  return El2nFromPasses(
      RunMcPasses(model->SweepScorer(), x, passes, rng->NextU64()), label);
}

std::vector<McEstimate> McDropoutEstimateBatch(
    PairClassifier* model, const std::vector<EncodedPair>& xs, int passes,
    core::Rng* rng) {
  PROMPTEM_CHECK(passes >= 1);
  ScopedTrainingMode training(model->AsModule());
  const PairClassifier::SweepScoreFn score = model->SweepScorer();
  std::vector<uint64_t> seeds(xs.size());
  for (auto& s : seeds) s = rng->NextU64();
  std::vector<McEstimate> estimates(xs.size());
  ForEachGraphFree(static_cast<int64_t>(xs.size()), [&](int64_t i) {
    const size_t idx = static_cast<size_t>(i);
    estimates[idx] = EstimateFromPasses(
        RunMcPasses(score, xs[idx], passes, seeds[idx]));
  });
  return estimates;
}

std::vector<float> McEl2nScoreBatch(PairClassifier* model,
                                    const std::vector<EncodedPair>& xs,
                                    int passes, core::Rng* rng) {
  PROMPTEM_CHECK(passes >= 1);
  // Same contract as scalar McEl2nScore: EL2N needs a one-hot target, so
  // an unlabeled pair (label == data::kUnlabeledLabel, e.g. a
  // blocker-generated candidate) in the batch is a caller bug — catch it
  // before the parallel region rather than letting it silently poison the
  // pruning scores.
  for (const auto& x : xs) {
    PROMPTEM_CHECK_MSG(x.label != data::kUnlabeledLabel,
                       "McEl2nScoreBatch rejects unlabeled pairs");
    PROMPTEM_CHECK_MSG(x.label == 0 || x.label == 1,
                       "McEl2nScoreBatch requires labeled pairs");
  }
  ScopedTrainingMode training(model->AsModule());
  const PairClassifier::SweepScoreFn score = model->SweepScorer();
  std::vector<uint64_t> seeds(xs.size());
  for (auto& s : seeds) s = rng->NextU64();
  std::vector<float> scores(xs.size());
  ForEachGraphFree(static_cast<int64_t>(xs.size()), [&](int64_t i) {
    const size_t idx = static_cast<size_t>(i);
    scores[idx] = El2nFromPasses(
        RunMcPasses(score, xs[idx], passes, seeds[idx]), xs[idx].label);
  });
  return scores;
}

}  // namespace promptem::em
