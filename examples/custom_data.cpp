// Running PromptEM on YOUR data: this example writes a small dataset
// directory in the interchange format (CSV + JSONL + pair files), loads
// it back the way a user would load real data, runs blocking to build
// candidates, and matches with PromptEM.

#include <cstdio>
#include <filesystem>

#include "baselines/common.h"
#include "data/benchmarks.h"
#include "data/blocking.h"
#include "data/io.h"
#include "lm/pretrained_lm.h"
#include "promptem/promptem.h"

int main() {
  using namespace promptem;
  namespace fs = std::filesystem;
  const uint64_t kSeed = 42;
  const std::string dir = "custom_dataset_demo";

  // 1. Produce a dataset directory (stand-in for your own files):
  //    left.jsonl (semi-structured), right.csv (relational),
  //    pairs_{train,valid,test}.csv.
  fs::remove_all(dir);
  data::GemDataset source =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiRel, kSeed);
  core::Status st = data::SaveGemDataset(source, dir);
  PROMPTEM_CHECK_MSG(st.ok(), st.ToString().c_str());
  std::printf("wrote %s/: left.jsonl right.csv pairs_*.csv\n\n",
              dir.c_str());

  // 2. Load it as a user would.
  auto loaded = data::LoadGemDataset(dir, "my-movies");
  PROMPTEM_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
  data::GemDataset ds = std::move(loaded).value();
  ds.default_rate = 0.10;
  std::printf("loaded %zu semi-structured + %zu relational records, "
              "%d labeled pairs\n",
              ds.left_table.size(), ds.right_table.size(),
              ds.TotalLabeled());

  // 3. Blocking: the step before matching in the classic EM workflow.
  data::OverlapBlocker::Config block_config;
  block_config.top_k = 5;
  data::OverlapBlocker blocker(ds.left_table, ds.right_table, block_config);
  auto candidates = blocker.Drain();
  std::vector<data::PairExample> gold;
  for (const auto& p : ds.train) {
    if (p.label == 1) gold.push_back(p);
  }
  auto quality = data::EvaluateBlocking(candidates, gold,
                                        ds.left_table.size(),
                                        ds.right_table.size());
  std::printf("blocking: %zu candidates, pair completeness %.2f, "
              "reduction ratio %.3f\n\n",
              candidates.size(), quality.pair_completeness,
              quality.reduction_ratio);

  // 4. Match with PromptEM under the low-resource setting.
  auto lm = lm::GetOrCreateSharedLM("promptem_shared_lm", kSeed);
  core::Rng rng(kSeed);
  data::LowResourceSplit split =
      data::MakeLowResourceSplit(ds, ds.default_rate, &rng);
  em::PromptEM promptem(
      lm.get(), baselines::MakePromptEmConfig(baselines::Method::kPromptEM,
                                              baselines::RunOptions{}));
  em::PromptEMResult result = promptem.Run(ds, split);
  std::printf("PromptEM on the loaded dataset: %s\n",
              result.test.ToString().c_str());

  fs::remove_all(dir);
  return 0;
}
