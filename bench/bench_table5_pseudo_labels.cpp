// Regenerates Table 5: quality (TPR / TNR) of the pseudo-labels produced
// by the three selection strategies — uncertainty (PromptEM's choice),
// confidence, and clustering — with u_r fixed to 0.1.

#include <memory>

#include "bench_util.h"
#include "promptem/promptem.h"

int main() {
  using namespace promptem;
  const auto& lm = bench::SharedLM();
  const bool fast = bench::FastMode();

  bench::PrintHeader(
      "Table 5: Results of pseudo-label selection strategies (u_r = 0.1)",
      "TPR / TNR of the selected pseudo-labels against hidden gold "
      "labels.");

  core::TablePrinter table({"Dataset", "Uncert TPR", "Uncert TNR",
                            "Conf TPR", "Conf TNR", "Clust TPR",
                            "Clust TNR"});

  for (auto kind : data::AllBenchmarks()) {
    data::GemDataset ds = data::GenerateBenchmark(kind, bench::kSeed);
    data::LowResourceSplit split = bench::DefaultSplit(ds);
    em::PairEncoder encoder = em::MakePairEncoder(lm, ds);
    auto labeled = encoder.EncodeAll(ds, split.labeled);
    auto unlabeled = encoder.EncodeAll(ds, split.unlabeled);
    auto valid = encoder.EncodeAll(ds, split.valid);

    // One teacher per dataset, shared by all three strategies.
    core::Rng model_rng(bench::kSeed);
    em::PromptModel teacher(lm, em::PromptModelConfig{}, &model_rng);
    train::LoopOptions train_options;
    train_options.epochs = fast ? 2 : 10;
    em::TrainClassifier(&teacher, labeled, valid, train_options);

    em::EmbeddingFn embed = [&teacher](const em::EncodedPair& x,
                                       core::Rng* rng) {
      tensor::Tensor e = teacher.PairEmbedding(x, rng);
      return std::vector<float>(e.data(), e.data() + e.numel());
    };

    std::vector<std::string> row = {ds.name};
    for (auto strategy : {em::PseudoLabelStrategy::kUncertainty,
                          em::PseudoLabelStrategy::kConfidence,
                          em::PseudoLabelStrategy::kClustering}) {
      core::Rng sel_rng(bench::kSeed + 1);
      em::PseudoLabelResult r = em::SelectPseudoLabels(
          &teacher, unlabeled, strategy, /*ratio=*/0.1,
          /*mc_passes=*/fast ? 3 : 10, &sel_rng, embed);
      row.push_back(core::StrFormat("%.3f", r.tpr));
      row.push_back(core::StrFormat("%.3f", r.tnr));
    }
    table.AddRow(std::move(row));
    std::fprintf(stderr, "[table5] %s done\n", ds.name.c_str());
  }
  table.Print();
  return 0;
}
