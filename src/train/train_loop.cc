#include "train/train_loop.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>

#include "core/status.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "core/timer.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"

namespace promptem::train {

std::vector<std::vector<float>> SnapshotModuleParams(
    const nn::Module& module) {
  std::vector<std::vector<float>> snapshot;
  for (const auto& p : module.Parameters()) {
    snapshot.emplace_back(p.data(), p.data() + p.numel());
  }
  return snapshot;
}

void RestoreModuleParams(nn::Module* module,
                         const std::vector<std::vector<float>>& snapshot) {
  auto params = module->Parameters();
  PROMPTEM_CHECK(params.size() == snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    PROMPTEM_CHECK(static_cast<size_t>(params[i].numel()) ==
                   snapshot[i].size());
    std::memcpy(params[i].data(), snapshot[i].data(),
                snapshot[i].size() * sizeof(float));
  }
}

TrainLoop::TrainLoop(nn::Module* module, LoopOptions options)
    : module_(module), options_(std::move(options)) {
  PROMPTEM_CHECK(module_ != nullptr);
  PROMPTEM_CHECK(options_.epochs >= 0);
  PROMPTEM_CHECK(options_.batch_size >= 1);
}

TrainLoop& TrainLoop::OnParallelStep(ParallelStepFn fn) {
  parallel_fn_ = std::move(fn);
  return *this;
}

TrainLoop& TrainLoop::OnSequentialStep(SequentialStepFn fn) {
  sequential_fn_ = std::move(fn);
  return *this;
}

TrainLoop& TrainLoop::OnEval(EvalFn fn) {
  eval_fn_ = std::move(fn);
  return *this;
}

TrainLoop& TrainLoop::OnEpochHook(EpochHookFn fn) {
  epoch_hook_ = std::move(fn);
  return *this;
}

std::string TrainLoop::ConfigHash() const {
  const std::string canonical = core::StrFormat(
      "epochs=%d;batch=%d;lr=%.9g;reset=%d;seed=%llu;extern_rng=%d;mode=%s",
      options_.epochs, options_.batch_size, options_.lr,
      options_.reset_order_each_epoch ? 1 : 0,
      static_cast<unsigned long long>(options_.seed),
      options_.rng != nullptr ? 1 : 0,
      sequential_fn_ ? "sequential" : "data-parallel");
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64
  for (unsigned char c : canonical) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return core::StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

double TrainLoop::RunEpochDataParallel(const std::vector<size_t>& order,
                                       core::Rng* rng, nn::AdamW* optimizer,
                                       int epoch, int64_t* processed) {
  const std::vector<tensor::Tensor> params = module_->Parameters();

  // One gradient shard per minibatch slot, reused across batches. Sample b
  // of every batch accumulates into shard b; shards merge in slot order.
  const size_t slots =
      std::min(static_cast<size_t>(options_.batch_size), order.size());
  std::vector<std::unique_ptr<tensor::GradShard>> shards;
  shards.reserve(slots);
  for (size_t s = 0; s < slots; ++s) {
    shards.push_back(std::make_unique<tensor::GradShard>(params));
  }

  double epoch_loss = 0.0;
  int64_t batch_index = 0;
  std::vector<uint64_t> seeds(slots);
  std::vector<float> losses(slots);
  for (size_t start = 0; start < order.size();
       start += static_cast<size_t>(options_.batch_size)) {
    const size_t bsz = std::min(static_cast<size_t>(options_.batch_size),
                                order.size() - start);
    // Per-sample dropout streams, drawn in batch order so the seeds (and
    // everything downstream) are independent of the pool size.
    for (size_t b = 0; b < bsz; ++b) seeds[b] = rng->NextU64();
    core::ParallelFor(0, static_cast<int64_t>(bsz), 1,
                      [&](int64_t begin, int64_t end) {
      for (int64_t b = begin; b < end; ++b) {
        const size_t slot = static_cast<size_t>(b);
        tensor::GradShard::Scope scope(shards[slot].get());
        core::Rng sample_rng(seeds[slot]);
        tensor::Tensor loss = parallel_fn_(order[start + slot], &sample_rng);
        losses[slot] = loss.item();
        loss.Backward();
      }
    });
    double batch_loss = 0.0;
    for (size_t b = 0; b < bsz; ++b) {
      // Accumulate per sample into the epoch total (not via the batch
      // subtotal) to keep the double summation order — and therefore the
      // recorded losses — bitwise identical to the historical loops.
      epoch_loss += losses[b];
      batch_loss += losses[b];
      shards[b]->MergeAndReset();
    }
    *processed += static_cast<int64_t>(bsz);
    optimizer->Step();
    optimizer->ZeroGrad();
    if (options_.observer != nullptr) {
      options_.observer->OnBatchEnd(
          {epoch, batch_index, static_cast<int64_t>(bsz), batch_loss});
    }
    ++batch_index;
  }
  return epoch_loss;
}

double TrainLoop::RunEpochSequential(const std::vector<size_t>& order,
                                     core::Rng* rng, nn::AdamW* optimizer,
                                     int epoch, int64_t* processed) {
  double epoch_loss = 0.0;
  double batch_loss = 0.0;
  int64_t batch_index = 0;
  int64_t in_batch = 0;
  const auto flush = [&]() {
    optimizer->Step();
    optimizer->ZeroGrad();
    if (options_.observer != nullptr) {
      options_.observer->OnBatchEnd({epoch, batch_index, in_batch,
                                     batch_loss});
    }
    ++batch_index;
    in_batch = 0;
    batch_loss = 0.0;
  };
  for (size_t idx : order) {
    std::optional<tensor::Tensor> loss = sequential_fn_(idx, rng);
    if (!loss.has_value()) continue;  // skipped: no loss, no gradient
    const float value = loss->item();
    epoch_loss += value;
    batch_loss += value;
    ++*processed;
    loss->Backward();
    if (++in_batch == options_.batch_size) flush();
  }
  if (in_batch > 0) flush();  // partial accumulation group at epoch end
  return epoch_loss;
}

LoopResult TrainLoop::Run(size_t dataset_size) {
  PROMPTEM_CHECK_MSG(
      (parallel_fn_ != nullptr) != (sequential_fn_ != nullptr),
      "TrainLoop needs exactly one of OnParallelStep / OnSequentialStep");

  core::Rng local_rng(options_.seed);
  core::Rng* rng = options_.rng != nullptr ? options_.rng : &local_rng;

  nn::AdamWConfig opt_config;
  opt_config.lr = options_.lr;
  nn::AdamW optimizer(module_->Parameters(), opt_config);

  LoopResult result;
  result.best_score = options_.best_score_init;

  TrainObserver* observer = options_.observer;
  if (observer != nullptr) {
    RunMeta meta;
    meta.run_name = options_.run_name;
    meta.dataset = options_.dataset_name;
    meta.seed = options_.rng != nullptr ? 0 : options_.seed;
    meta.config_hash = ConfigHash();
    meta.epochs = options_.epochs;
    meta.batch_size = options_.batch_size;
    meta.dataset_size = static_cast<int64_t>(dataset_size);
    observer->OnLoopBegin(meta);
  }

  std::vector<size_t> order(dataset_size);
  std::iota(order.begin(), order.end(), 0);
  size_t current_size = dataset_size;

  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    module_->Train();
    if (observer != nullptr) observer->OnEpochBegin(epoch);
    if (options_.reset_order_each_epoch || order.size() != current_size) {
      order.resize(current_size);
      std::iota(order.begin(), order.end(), 0);
    }
    rng->Shuffle(&order);

    core::Timer epoch_timer;
    int64_t processed = 0;
    const double epoch_loss =
        sequential_fn_
            ? RunEpochSequential(order, rng, &optimizer, epoch, &processed)
            : RunEpochDataParallel(order, rng, &optimizer, epoch,
                                   &processed);
    result.samples_processed += processed;

    EpochStats stats;
    stats.epoch = epoch;
    stats.loss_sum = epoch_loss;
    stats.samples = processed;
    stats.avg_loss =
        processed == 0
            ? 0.0f
            : static_cast<float>(epoch_loss / static_cast<double>(processed));
    result.epoch_losses.push_back(stats.avg_loss);

    // Post-epoch hook (dynamic data pruning and the like) may resize the
    // dataset; the next epoch re-indexes against the new size.
    if (epoch_hook_) current_size = epoch_hook_(epoch, rng);

    if (eval_fn_) {
      const em::Metrics metrics = eval_fn_();
      const double score = metrics.F1();
      const bool improved = score > result.best_score;
      if (improved) {
        result.best_score = score;
        result.best_eval = metrics;
        result.best_epoch = epoch;
        result.best_snapshot = SnapshotModuleParams(*module_);
      }
      if (observer != nullptr) {
        observer->OnEvalEnd({epoch, metrics, score, improved});
      }
      stats.has_eval = true;
      stats.eval = metrics;
    }

    stats.seconds = epoch_timer.ElapsedSeconds();
    stats.examples_per_sec =
        stats.seconds > 0.0
            ? static_cast<double>(processed) / stats.seconds
            : 0.0;
    if (observer != nullptr) observer->OnEpochEnd(stats);
  }

  if (options_.restore_best && !result.best_snapshot.empty()) {
    RestoreModuleParams(module_, result.best_snapshot);
  }
  if (observer != nullptr) observer->OnLoopEnd(result);
  return result;
}

}  // namespace promptem::train
