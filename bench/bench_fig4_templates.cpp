// Regenerates Figure 4 (and the §5.5 template study): F1 of the four
// template variants — continuous vs hard-encoding, T1 vs T2 — using the
// prompt model alone (no self-training, isolating the template choice).

#include <vector>

#include "bench_util.h"
#include "promptem/promptem.h"

int main() {
  using namespace promptem;
  const auto& lm = bench::SharedLM();
  const bool fast = bench::FastMode();

  bench::PrintHeader(
      "Figure 4: Effect of template choices (F1 %)",
      "T1/T2 continuous vs T1*/T2* hard-encoding; prompt model only.");

  struct Variant {
    const char* name;
    em::TemplateType type;
    em::TemplateMode mode;
  };
  const std::vector<Variant> variants = {
      {"T1 (continuous)", em::TemplateType::kT1,
       em::TemplateMode::kContinuous},
      {"T1* (hard)", em::TemplateType::kT1, em::TemplateMode::kHard},
      {"T2 (continuous)", em::TemplateType::kT2,
       em::TemplateMode::kContinuous},
      {"T2* (hard)", em::TemplateType::kT2, em::TemplateMode::kHard},
  };

  std::vector<std::string> header = {"Template"};
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
      config.template_mode = variant.mode;
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
    std::fprintf(stderr, "[fig4] %s done\n", variant.name);
  }
  table.Print();
  return 0;
}
