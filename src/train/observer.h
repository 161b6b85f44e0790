#ifndef PROMPTEM_TRAIN_OBSERVER_H_
#define PROMPTEM_TRAIN_OBSERVER_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "promptem/metrics.h"

namespace promptem::train {

struct LoopResult;

/// Static facts about one TrainLoop run, emitted once at loop start and
/// stamped into every structured log record.
struct RunMeta {
  std::string run_name;     ///< matcher / phase label ("Ditto", "teacher")
  std::string dataset;      ///< dataset name when known
  uint64_t seed = 0;        ///< the loop's RNG seed (0 for external streams)
  std::string config_hash;  ///< FNV-1a over the loop configuration
  int epochs = 0;
  int batch_size = 0;
  int64_t dataset_size = 0;
};

/// One optimizer step's worth of samples.
struct BatchStats {
  int epoch = 0;             ///< 1-based
  int64_t batch_index = 0;   ///< 0-based within the epoch
  int64_t batch_samples = 0; ///< samples contributing to this step
  double batch_loss = 0.0;   ///< summed per-sample loss of the batch
};

/// Outcome of the per-epoch evaluation (when the loop has an EvalFn).
struct EvalStats {
  int epoch = 0;       ///< 1-based
  em::Metrics metrics;
  double score = 0.0;  ///< selection score (validation F1)
  bool improved = false;
};

/// Everything known about one finished epoch. `eval` is meaningful only
/// when `has_eval` is true.
struct EpochStats {
  int epoch = 0;  ///< 1-based
  double loss_sum = 0.0;
  float avg_loss = 0.0f;  ///< loss_sum / samples (0 when no samples)
  int64_t samples = 0;    ///< samples processed (skipped samples excluded)
  double seconds = 0.0;
  double examples_per_sec = 0.0;
  bool has_eval = false;
  em::Metrics eval;
};

/// Event hooks fired by train::TrainLoop. Per epoch the order is
///   OnEpochBegin -> OnBatchEnd* -> [OnEvalEnd] -> OnEpochEnd
/// bracketed by one OnLoopBegin / OnLoopEnd pair. Observers must not
/// mutate training state; they exist for progress display and telemetry.
class TrainObserver {
 public:
  virtual ~TrainObserver() = default;

  virtual void OnLoopBegin(const RunMeta& meta) { (void)meta; }
  virtual void OnEpochBegin(int epoch) { (void)epoch; }
  virtual void OnBatchEnd(const BatchStats& stats) { (void)stats; }
  virtual void OnEvalEnd(const EvalStats& stats) { (void)stats; }
  virtual void OnEpochEnd(const EpochStats& stats) { (void)stats; }
  virtual void OnLoopEnd(const LoopResult& result) { (void)result; }
};

/// Appends one structured JSON record per epoch to a run-log file — the
/// first rung of the observability ladder. Each line carries the loss,
/// eval metrics (when the loop evaluates), wall-time, throughput, and the
/// run's identity (name, dataset, seed, config hash), so a full benchmark
/// sweep concatenates into one greppable, machine-parseable log.
class JsonlRunLogger : public TrainObserver {
 public:
  /// Opens `path` for appending. ok() turns false when the open, a write
  /// or a flush fails; that failure logs one warning naming the path, and
  /// from then on the logger swallows events instead of crashing the run.
  explicit JsonlRunLogger(std::string path);
  ~JsonlRunLogger() override;

  JsonlRunLogger(const JsonlRunLogger&) = delete;
  JsonlRunLogger& operator=(const JsonlRunLogger&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  void OnLoopBegin(const RunMeta& meta) override;
  void OnEpochEnd(const EpochStats& stats) override;

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  RunMeta meta_;
};

}  // namespace promptem::train

#endif  // PROMPTEM_TRAIN_OBSERVER_H_
