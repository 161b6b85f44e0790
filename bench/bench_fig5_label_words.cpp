// Regenerates Figure 5 (and the §5.5 label-word study): the designed
// label words (matched/similar/relevant vs mismatched/different/
// irrelevant) against the simple pair (matched vs mismatched), for both
// continuous templates.

#include <vector>

#include "bench_util.h"
#include "promptem/promptem.h"

int main() {
  using namespace promptem;
  const auto& lm = bench::SharedLM();
  const bool fast = bench::FastMode();

  bench::PrintHeader(
      "Figure 5: Effect of label-word choices (F1 %)",
      "Designed words encode the general binary relationship GEM needs; "
      "'simple' = matched/mismatched only.");

  struct Variant {
    const char* name;
    em::TemplateType type;
    em::LabelWordsType words;
  };
  const std::vector<Variant> variants = {
      {"T1 designed", em::TemplateType::kT1, em::LabelWordsType::kDesigned},
      {"T1 simple", em::TemplateType::kT1, em::LabelWordsType::kSimple},
      {"T2 designed", em::TemplateType::kT2, em::LabelWordsType::kDesigned},
      {"T2 simple", em::TemplateType::kT2, em::LabelWordsType::kSimple},
  };

  std::vector<std::string> header = {"Variant"};
  std::vector<data::GemDataset> datasets;
  for (auto kind : data::AllBenchmarks()) {
    datasets.push_back(data::GenerateBenchmark(kind, bench::kSeed));
    header.push_back(data::GetBenchmarkInfo(kind).abbrev);
  }
  header.push_back("Avg");
  core::TablePrinter table(header);

  for (const Variant& variant : variants) {
    std::vector<std::string> row = {variant.name};
    double total = 0.0;
    for (auto& ds : datasets) {
      data::LowResourceSplit split = bench::DefaultSplit(ds);
      em::PairEncoder encoder = em::MakePairEncoder(lm, ds);
      auto labeled = encoder.EncodeAll(ds, split.labeled);
      auto valid = encoder.EncodeAll(ds, split.valid);
      auto test = encoder.EncodeAll(ds, split.test);

      em::PromptModelConfig config;
      config.template_type = variant.type;
      config.template_mode = em::TemplateMode::kContinuous;
      config.label_words = variant.words;
      core::Rng rng(bench::kSeed);
      em::PromptModel model(lm, config, &rng);
      train::LoopOptions options;
      options.epochs = fast ? 2 : 8;
      em::TrainClassifier(&model, labeled, valid, options);
      const double f1 = em::Evaluate(&model, test).F1();
      total += f1;
      row.push_back(core::StrFormat("%.1f", f1 * 100));
    }
    row.push_back(core::StrFormat("%.1f", total / datasets.size() * 100));
    table.AddRow(std::move(row));
    std::fprintf(stderr, "[fig5] %s done\n", variant.name);
  }
  table.Print();
  return 0;
}
