#ifndef PROMPTEM_BENCHMARK_BENCH_H_
#define PROMPTEM_BENCHMARK_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "lm/pretrained_lm.h"
#include "promptem/encoding.h"
#include "promptem/promptem.h"
#include "promptem/scoring.h"
#include "train/registry.h"

namespace promptem::bench {

class Tracer;

/// Steady-clock nanoseconds: the time base of every span and latency.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Measuring time of one run, in seconds (BENCHMARK.json's run_seconds).
/// The phase and delta counts derive from it, and the seed recording in
/// README.md holds for it alone, so it is fixed rather than a flag.
inline constexpr int kRunSeconds = 12;

/// Command-line settings of one benchmark invocation.
struct Options {
  std::string workload;  ///< the one workload this process runs
  uint64_t seed = 1;     ///< workload seed: tables and request streams
  bool trace = false;    ///< per-layer run instead of the end-to-end run
  bool smoke = false;    ///< tiny sizes, every check on, nothing recorded
  std::string root;       ///< repository root (holds tests/data)
  std::string serve_bin;  ///< promptem_serve binary under test
  std::string work_dir;   ///< scratch space inside the checkout

  /// Prefix of the committed LM fixture every workload loads.
  std::string LmPrefix() const;
};

/// Model seed, fixed across workloads so the daemon and the in-process
/// paths train bitwise-identical weights.
inline constexpr uint64_t kModelSeed = 42;

/// The PromptEM model every workload serves or runs. Sized so one set-up
/// costs about two seconds — a run sets up three times — while the model
/// still tells matches from non-matches on every seed tried (1-40 and
/// 101-120); with 6 epochs one seed in ten collapses to predicting
/// "match" everywhere.
struct ModelRecipe {
  size_t train_pairs;  ///< labeled-pool pairs (half gold, half random)
  size_t valid_pairs;
  size_t test_pairs;
  int labels;  ///< labeled budget (promptem_serve --labels)
  int epochs;  ///< teacher and student epochs (promptem_serve --epochs)
};
inline constexpr ModelRecipe kRecipe = {128, 64, 16, 96, 8};

/// promptem_serve's split for `--labels N --seed kModelSeed`.
data::LowResourceSplit MakeSplit(const data::GemDataset& dataset);
/// promptem_serve's run options for `--epochs N --seed kModelSeed`.
train::RunOptions MakeRunOptions();

/// Left rows of the catalog shared by serve_* and table_match (so their
/// parity-probe digests agree for one seed), and of incremental_delta's,
/// which also re-matches in full at every set-up.
size_t CatalogRows(const Options& options);
/// Set-ups per run; setup_s is their median. Traced and smoke runs, which
/// report no setup_s, set up once.
int SetupRepeats(const Options& options);
size_t IncrementalRows(const Options& options);

/// One run's verdict and measurements, printed as the final JSON line.
class RunResult {
 public:
  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit);

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted = 0;  ///< operations attempted
  uint64_t failed = 0;     ///< operations that failed or were refused

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  /// Null when the workload did not measure `name`.
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
/// True when at least ten samples lie beyond the p-th percentile.
bool PercentileSupported(size_t n, double p);
double Median(std::vector<double> values);

/// Independent, reproducible seed for one stream of one workload phase:
/// phases never replay each other's pairs.
uint64_t StreamSeed(uint64_t seed, const std::string& workload,
                    const std::string& stream);

/// Shortest decimal that parses back to `value` exactly.
std::string FormatNumber(double value);

/// The synthetic two-table catalog of one run, saved with
/// data::SaveGemDataset where the program under test loads it. Holds the
/// gold mapping (the tables themselves live only on disk).
struct Catalog {
  std::string dir;
  size_t left_rows = 0;
  size_t right_rows = 0;
  std::vector<int> right_of_left;
  std::vector<int> left_of_right;

  int GoldLabel(int l, int r) const {
    return right_of_left[static_cast<size_t>(l)] == r ? 1 : 0;
  }
};

/// Generates the seeded catalog and writes it under `dir`.
Catalog WriteCatalog(const Options& options, size_t rows,
                     const std::string& dir);

/// The parity probe: 256 gold pairs and 256 random pairs, seeded.
std::vector<data::PairExample> ProbePairs(const Catalog& catalog,
                                          const Options& options);
/// F1 in percent of the argmax labels of `probs` against the probe's gold
/// labels: the quality metric every workload reports.
double ProbeF1(const std::vector<data::PairExample>& probe,
               const std::vector<em::ProbPair>& probs);
/// FNV-1a over the bit patterns of every probability, in order.
uint64_t ProbDigest(const std::vector<em::ProbPair>& probs);
/// Finite, each in [0, 1], summing to 1 within 1e-5.
bool ValidProbs(const em::ProbPair& p);
/// The decision rule every matcher shares: P(yes) >= P(no).
inline int ArgmaxLabel(const em::ProbPair& p) { return p[1] >= p[0] ? 1 : 0; }

/// A trained PromptEM model with the inputs it was trained on, built the
/// way the PromptEM registry matcher (and so promptem_serve) builds it:
/// LoadGemDataset from the catalog directory, MakeSplit, MakeRunOptions,
/// MakePromptEmConfig, PromptEM::Run, and MakePairEncoder.
struct TrainedModel {
  std::unique_ptr<lm::PretrainedLM> lm;
  data::GemDataset dataset;
  data::LowResourceSplit split;
  std::unique_ptr<em::PromptEM> promptem;
  std::optional<em::PairEncoder> encoder;

  em::PairClassifier* model() const { return promptem->last_model(); }
};

/// LM load + dataset load + training. Aborts the run on load failure.
std::unique_ptr<TrainedModel> TrainModel(const Options& options,
                                         const std::string& dataset_dir);

/// Peak resident set of this process in MB.
double SelfPeakRssMb();

/// Workloads. Each generates its inputs from options.seed, measures for
/// about kRunSeconds, and checks the program's outputs. `tracer` is
/// enabled only in traced runs.
RunResult RunServeWorkload(const Options& options, bool hot, Tracer* tracer);
RunResult RunTableMatch(const Options& options, Tracer* tracer);
RunResult RunIncrementalDelta(const Options& options, Tracer* tracer);

}  // namespace promptem::bench

#endif  // PROMPTEM_BENCHMARK_BENCH_H_
