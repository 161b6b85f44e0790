#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "baselines/common.h"
#include "bench.h"
#include "core/hashing.h"
#include "core/mem_tracker.h"
#include "core/rng.h"
#include "data/io.h"
#include "promptem/metrics.h"

namespace promptem::bench {

std::string Options::LmPrefix() const {
  return root + "/tests/data/promptem_integration_lm";
}

data::LowResourceSplit MakeSplit(const data::GemDataset& dataset) {
  core::Rng rng(kModelSeed);
  return data::MakeCountSplit(dataset, kRecipe.labels, &rng);
}

train::RunOptions MakeRunOptions() {
  train::RunOptions run_options;
  run_options.seed = kModelSeed;
  run_options.epochs = kRecipe.epochs;
  run_options.student_epochs = kRecipe.epochs;
  return run_options;
}

int SetupRepeats(const Options& options) {
  return options.smoke || options.trace ? 1 : 3;
}

size_t CatalogRows(const Options& options) {
  return options.smoke ? 500 : 6000;
}

size_t IncrementalRows(const Options& options) {
  return options.smoke ? 300 : 2000;
}

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

const RunResult::Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool PercentileSupported(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

uint64_t StreamSeed(uint64_t seed, const std::string& workload,
                    const std::string& stream) {
  return core::Combine64(core::Combine64(core::Mix64(seed),
                                         core::Fnv1a64(workload)),
                         core::Fnv1a64(stream));
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

Catalog WriteCatalog(const Options& options, size_t rows,
                     const std::string& dir) {
  data::SyntheticTableOptions table_options;
  table_options.rows = rows;
  table_options.seed = options.seed;
  data::SyntheticTables tables = data::GenerateSyntheticTables(table_options);
  Catalog catalog;
  catalog.dir = dir;
  catalog.left_rows = tables.left.size();
  catalog.right_rows = tables.right.size();
  catalog.right_of_left = tables.right_of_left;
  catalog.left_of_right = tables.left_of_right;
  // ToDataset samples train, then valid, then test, each alternating a
  // gold and a random pair; trimming keeps every split balanced.
  data::GemDataset dataset =
      tables.ToDataset(kRecipe.train_pairs / 2, options.seed ^ 0xDA7AULL);
  dataset.valid.resize(kRecipe.valid_pairs);
  dataset.test.resize(kRecipe.test_pairs);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const core::Status saved = data::SaveGemDataset(dataset, dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "cannot write catalog to %s: %s\n", dir.c_str(),
                 saved.ToString().c_str());
    std::exit(1);
  }
  return catalog;
}

std::vector<data::PairExample> ProbePairs(const Catalog& catalog,
                                          const Options& options) {
  // Seeded by the workload seed alone, so every workload run over the
  // same catalog probes (and digests) the same pairs.
  core::Rng rng(StreamSeed(options.seed, "catalog", "probe"));
  const size_t kEach = 256;
  std::vector<data::PairExample> probe;
  probe.reserve(2 * kEach);
  for (size_t i = 0; i < kEach; ++i) {
    const int l = static_cast<int>(rng.NextU64(catalog.left_rows));
    probe.push_back({l, catalog.right_of_left[static_cast<size_t>(l)], 1});
  }
  for (size_t i = 0; i < kEach; ++i) {
    const int l = static_cast<int>(rng.NextU64(catalog.left_rows));
    const int r = static_cast<int>(rng.NextU64(catalog.right_rows));
    probe.push_back({l, r, catalog.GoldLabel(l, r)});
  }
  return probe;
}

double ProbeF1(const std::vector<data::PairExample>& probe,
               const std::vector<em::ProbPair>& probs) {
  em::Metrics metrics;
  for (size_t i = 0; i < probe.size() && i < probs.size(); ++i) {
    metrics.Count(ArgmaxLabel(probs[i]), probe[i].label);
  }
  return 100.0 * metrics.F1();
}

uint64_t ProbDigest(const std::vector<em::ProbPair>& probs) {
  uint64_t digest = core::kFnv1aOffset;
  for (const em::ProbPair& p : probs) {
    digest = core::Fnv1a64(p.data(), sizeof(float) * p.size(), digest);
  }
  return digest;
}

bool ValidProbs(const em::ProbPair& p) {
  for (float v : p) {
    if (!std::isfinite(v) || v < 0.0f || v > 1.0f) return false;
  }
  return std::fabs(static_cast<double>(p[0]) + static_cast<double>(p[1]) -
                   1.0) <= 1e-5;
}

std::unique_ptr<TrainedModel> TrainModel(const Options& options,
                                         const std::string& dataset_dir) {
  auto trained = std::make_unique<TrainedModel>();
  auto lm = lm::PretrainedLM::Load(options.LmPrefix());
  if (!lm.ok()) {
    std::fprintf(stderr, "cannot load LM fixture %s: %s\n",
                 options.LmPrefix().c_str(), lm.status().ToString().c_str());
    std::exit(1);
  }
  trained->lm = std::move(lm).value();
  auto dataset = data::LoadGemDataset(dataset_dir, "custom");
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot load catalog %s: %s\n", dataset_dir.c_str(),
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  trained->dataset = std::move(dataset).value();
  trained->split = MakeSplit(trained->dataset);
  em::PromptEMConfig config = baselines::MakePromptEmConfig(
      baselines::Method::kPromptEM, MakeRunOptions());
  config.self_training.teacher_options.dataset_name = trained->dataset.name;
  config.self_training.student_options.dataset_name = trained->dataset.name;
  trained->promptem =
      std::make_unique<em::PromptEM>(trained->lm.get(), config);
  trained->promptem->Run(trained->dataset, trained->split);
  trained->encoder.emplace(em::MakePairEncoder(*trained->lm,
                                               trained->dataset));
  return trained;
}

double SelfPeakRssMb() {
  return static_cast<double>(core::MemTracker::ProcessPeakRssBytes()) /
         (1024.0 * 1024.0);
}

}  // namespace promptem::bench
