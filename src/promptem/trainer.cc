#include "promptem/trainer.h"

#include "promptem/scoring.h"

namespace promptem::em {

std::vector<int> PredictLabels(PairClassifier* model,
                               const std::vector<EncodedPair>& examples) {
  // Eval-mode passes are deterministic and independent: the batched engine
  // scores them pool-parallel, graph-free, with buffer reuse.
  return LabelsFromProbs(ScoreBatch(model, examples));
}

Metrics Evaluate(PairClassifier* model,
                 const std::vector<EncodedPair>& examples) {
  std::vector<int> gold;
  gold.reserve(examples.size());
  for (const auto& x : examples) gold.push_back(x.label);
  return MetricsFromProbs(ScoreBatch(model, examples), gold);
}

train::LoopResult TrainClassifier(PairClassifier* model,
                                  const std::vector<EncodedPair>& train,
                                  const std::vector<EncodedPair>& valid,
                                  const train::LoopOptions& options) {
  PROMPTEM_CHECK(model != nullptr);
  PROMPTEM_CHECK(!train.empty());
  nn::Module* module = model->AsModule();

  train::TrainLoop loop(module, options);
  loop.OnParallelStep([&](size_t index, core::Rng* rng) {
    const EncodedPair& x = train[index];
    return model->Loss(x, x.label, rng);
  });
  if (!valid.empty()) {
    loop.OnEval([&] { return Evaluate(model, valid); });
  }

  train::LoopResult result = loop.Run(train.size());
  if (options.restore_best) result.best_snapshot.clear();
  module->Eval();
  return result;
}

}  // namespace promptem::em
