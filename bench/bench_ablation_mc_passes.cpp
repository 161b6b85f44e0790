// Ablation (DESIGN.md): sensitivity of pseudo-label quality to the
// MC-Dropout pass count K. The paper fixes K = 10; this bench shows the
// TPR/TNR trade-off that justifies it.

#include "bench_util.h"
#include "promptem/promptem.h"

int main() {
  using namespace promptem;
  const auto& lm = bench::SharedLM();
  const bool fast = bench::FastMode();

  bench::PrintHeader(
      "Ablation: MC-Dropout pass count K vs pseudo-label quality",
      "u_r = 0.1, uncertainty strategy; paper uses K = 10.");

  const std::vector<int> pass_counts = fast ? std::vector<int>{1, 5}
                                            : std::vector<int>{1, 5, 10, 20};
  const std::vector<data::BenchmarkKind> kinds = {
      data::BenchmarkKind::kSemiHomo, data::BenchmarkKind::kSemiTextC,
      data::BenchmarkKind::kRelText};

  std::vector<std::string> header = {"K"};
  for (auto kind : kinds) {
    std::string abbrev = data::GetBenchmarkInfo(kind).abbrev;
    header.push_back(abbrev + " TPR");
    header.push_back(abbrev + " TNR");
  }
  core::TablePrinter table(header);

  // Train one teacher per dataset; reuse across K values so rows differ
  // only by the estimator.
  struct Prepared {
    std::unique_ptr<em::PromptModel> teacher;
    std::vector<em::EncodedPair> unlabeled;
  };
  std::vector<Prepared> prepared;
  for (auto kind : kinds) {
    data::GemDataset ds = data::GenerateBenchmark(kind, bench::kSeed);
    data::LowResourceSplit split = bench::DefaultSplit(ds);
    em::PairEncoder encoder = em::MakePairEncoder(lm, ds);
    auto labeled = encoder.EncodeAll(ds, split.labeled);
    auto valid = encoder.EncodeAll(ds, split.valid);
    Prepared p;
    core::Rng rng(bench::kSeed);
    p.teacher =
        std::make_unique<em::PromptModel>(lm, em::PromptModelConfig{}, &rng);
    train::LoopOptions options;
    options.epochs = fast ? 2 : 10;
    em::TrainClassifier(p.teacher.get(), labeled, valid, options);
    p.unlabeled = encoder.EncodeAll(ds, split.unlabeled);
    prepared.push_back(std::move(p));
  }

  for (int k : pass_counts) {
    std::vector<std::string> row = {std::to_string(k)};
    for (auto& p : prepared) {
      core::Rng rng(bench::kSeed + 7);
      em::PseudoLabelResult r = em::SelectPseudoLabels(
          p.teacher.get(), p.unlabeled,
          em::PseudoLabelStrategy::kUncertainty, 0.1, k, &rng);
      row.push_back(core::StrFormat("%.3f", r.tpr));
      row.push_back(core::StrFormat("%.3f", r.tnr));
    }
    table.AddRow(std::move(row));
    std::fprintf(stderr, "[mc_passes] K=%d done\n", k);
  }
  table.Print();
  return 0;
}
