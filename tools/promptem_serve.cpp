// promptem_serve — resident entity-matching daemon over the batched
// scoring engine.
//
// Loads the LM and dataset once, trains the configured matchers once,
// then serves match requests indefinitely: concurrent queries coalesce
// through a bounded admission queue into single ScoreBatch sweeps, so
// the per-request overhead (framing, parsing, queue wakeups, per-call
// engine walks) is amortized across every request in flight. Served
// scores are bitwise identical to the promptem_cli one-shot path.
//
// Usage:
//   promptem_serve (--synthetic N | --dataset NAME | --dir PATH)
//                  [--port P | --stdio] [--matcher M]... [options]
//   --port P          TCP on 127.0.0.1:P (0 = ephemeral; the bound port
//                     is printed as "listening on 127.0.0.1:PORT")
//   --stdio           JSONL on stdin/stdout (default)
//   --matcher M       matcher to train and serve; repeatable, the first
//                     becomes the default for requests naming none
//                     (default PromptEM)
//   --rate R          low-resource label rate in (0,1]
//   --labels N        exact labeled budget (overrides --rate)
//   --seed S          RNG seed (default 42)
//   --lm PREFIX       pre-trained LM cache prefix
//   --epochs N        training epochs for every matcher (default 12)
//   --embed-cache P   persistent warm-start store: served scores (and
//                     training-time pair embeddings) live in a hash-index
//                     file at P, read in place at startup and flushed
//                     back on drain, so a restarted daemon answers
//                     previously seen pairs without touching the model
//                     or materializing the whole store (an unusable or
//                     old flat-format file is rejected and rebuilt)
//   --flush-every N   with --embed-cache: also flush every N inserts
//   --queue-depth N   admission-queue capacity; beyond it requests are
//                     shed with status "overloaded" (default 256)
//   --max-batch N     max requests coalesced per scoring sweep
//                     (default 64)
//
// Protocol: see src/serve/protocol.h. SIGINT/SIGTERM drain gracefully:
// admitted requests finish, the cache is flushed, exit status 0.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/matchers.h"
#include "core/signals.h"
#include "core/string_util.h"
#include "core/timer.h"
#include "data/benchmarks.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "lm/pretrained_lm.h"
#include "promptem/embed_cache.h"
#include "serve/server.h"
#include "serve/service.h"
#include "train/registry.h"

namespace {

using namespace promptem;

[[noreturn]] void BadOption(const std::string& flag, const char* value,
                            const char* expected) {
  std::fprintf(stderr, "bad value '%s' for %s (expected %s)\n", value,
               flag.c_str(), expected);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  core::IgnoreSigPipe();
  // Before any thread exists (training pools, daemon loops), confine
  // SIGINT/SIGTERM to the shutdown watcher installed below.
  core::BlockShutdownSignals();
  baselines::EnsureBaselineMatchersRegistered();

  std::string dataset_name;
  std::string dir;
  std::string lm_prefix = "promptem_shared_lm";
  std::vector<std::string> matcher_names;
  std::string embed_cache_path;
  long long synthetic_rows = 0;
  long long port = -1;
  bool stdio_mode = false;
  double rate = -1.0;
  int labels = -1;
  uint64_t seed = 42;
  long long epochs = 0;  // 0 = RunOptions default
  long long flush_every = 0;
  long long queue_depth = 256;
  long long max_batch = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      dataset_name = next();
    } else if (arg == "--dir") {
      dir = next();
    } else if (arg == "--synthetic") {
      const char* value = next();
      if (!core::ParseInt64(value, &synthetic_rows) || synthetic_rows < 1) {
        BadOption(arg, value, "a positive row count");
      }
    } else if (arg == "--port") {
      const char* value = next();
      if (!core::ParseInt64(value, &port) || port < 0 || port > 65535) {
        BadOption(arg, value, "a port in [0, 65535]");
      }
    } else if (arg == "--stdio") {
      stdio_mode = true;
    } else if (arg == "--matcher") {
      matcher_names.push_back(next());
    } else if (arg == "--rate") {
      const char* value = next();
      if (!core::ParseFiniteDouble(value, &rate) || rate <= 0.0 ||
          rate > 1.0) {
        BadOption(arg, value, "a rate in (0,1]");
      }
    } else if (arg == "--labels") {
      const char* value = next();
      long long parsed = 0;
      if (!core::ParseInt64(value, &parsed) || parsed < 1 ||
          parsed > std::numeric_limits<int>::max()) {
        BadOption(arg, value, "a positive label budget");
      }
      labels = static_cast<int>(parsed);
    } else if (arg == "--seed") {
      const char* value = next();
      long long parsed = 0;
      if (!core::ParseInt64(value, &parsed) || parsed < 0) {
        BadOption(arg, value, "a non-negative integer");
      }
      seed = static_cast<uint64_t>(parsed);
    } else if (arg == "--lm") {
      lm_prefix = next();
    } else if (arg == "--epochs") {
      const char* value = next();
      if (!core::ParseInt64(value, &epochs) || epochs < 1 ||
          epochs > 10000) {
        BadOption(arg, value, "a positive epoch count");
      }
    } else if (arg == "--embed-cache") {
      embed_cache_path = next();
      if (embed_cache_path.empty()) BadOption(arg, "", "a non-empty path");
    } else if (arg == "--flush-every") {
      const char* value = next();
      if (!core::ParseInt64(value, &flush_every) || flush_every < 0) {
        BadOption(arg, value, "a non-negative insert count");
      }
    } else if (arg == "--queue-depth") {
      const char* value = next();
      if (!core::ParseInt64(value, &queue_depth) || queue_depth < 1 ||
          queue_depth > (1 << 20)) {
        BadOption(arg, value, "a positive queue capacity");
      }
    } else if (arg == "--max-batch") {
      const char* value = next();
      if (!core::ParseInt64(value, &max_batch) || max_batch < 1 ||
          max_batch > (1 << 20)) {
        BadOption(arg, value, "a positive batch size");
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  if (stdio_mode && port >= 0) {
    std::fprintf(stderr, "--stdio and --port are mutually exclusive\n");
    return 2;
  }
  if (port < 0) stdio_mode = true;  // no --port: JSONL on stdio (default)
  const int sources = (synthetic_rows > 0 ? 1 : 0) +
                      (!dataset_name.empty() ? 1 : 0) + (!dir.empty() ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr,
                 "exactly one of --synthetic, --dataset, --dir is required\n");
    return 2;
  }
  if (flush_every > 0 && embed_cache_path.empty()) {
    std::fprintf(stderr, "--flush-every requires --embed-cache\n");
    return 2;
  }
  // In stdio mode stdout carries the JSONL response stream, so every
  // human-facing status line must stay off it.
  FILE* const status_out = stdio_mode ? stderr : stdout;

  if (matcher_names.empty()) matcher_names.push_back("PromptEM");
  for (const std::string& name : matcher_names) {
    if (!train::MatcherRegistry::Instance().Contains(name)) {
      std::fprintf(stderr, "unknown matcher '%s'; known matchers:\n",
                   name.c_str());
      for (const auto& known :
           train::MatcherRegistry::Instance().AllNames()) {
        std::fprintf(stderr, "  %s\n", known.c_str());
      }
      return 2;
    }
  }

  // Resolve the dataset exactly like promptem_cli (bitwise parity with
  // the one-shot path starts with identical inputs).
  data::GemDataset dataset;
  data::BenchmarkKind kind = data::BenchmarkKind::kSemiHomo;
  if (synthetic_rows > 0) {
    data::SyntheticTableOptions options;
    options.rows = static_cast<size_t>(synthetic_rows);
    options.seed = seed;
    data::SyntheticTables synthetic = data::GenerateSyntheticTables(options);
    dataset = synthetic.ToDataset(
        std::min<size_t>(static_cast<size_t>(synthetic_rows), 256),
        seed ^ 0xDA7AULL);
  } else if (!dataset_name.empty()) {
    bool found = false;
    for (auto candidate : data::AllBenchmarks()) {
      if (dataset_name == data::GetBenchmarkInfo(candidate).name) {
        kind = candidate;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown benchmark %s\n", dataset_name.c_str());
      return 2;
    }
    dataset = data::GenerateBenchmark(kind, seed);
  } else {
    auto loaded = data::LoadGemDataset(dir, "custom");
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", dir.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
    dataset.default_rate = 0.10;
  }

  // Warm-start store: previously served scores and training embeddings.
  std::shared_ptr<em::EmbeddingCache> embed_cache;
  if (!embed_cache_path.empty()) {
    embed_cache = std::make_shared<em::EmbeddingCache>();
    const core::Status loaded = embed_cache->Attach(embed_cache_path);
    if (loaded.ok()) {
      std::fprintf(status_out, "embed cache: loaded %zu entries from %s\n",
                   embed_cache->PersistedEntries(), embed_cache_path.c_str());
    } else if (loaded.code() == core::StatusCode::kNotFound) {
      std::fprintf(status_out, "embed cache: %s absent, starting empty\n",
                  embed_cache_path.c_str());
    } else {
      std::fprintf(stderr, "embed cache: rejected %s (%s); rebuilding\n",
                   embed_cache_path.c_str(), loaded.ToString().c_str());
    }
    em::SetGlobalEmbeddingCache(embed_cache);
    embed_cache->EnableAutosave(static_cast<size_t>(flush_every));
  }

  auto lm = lm::GetOrCreateSharedLM(lm_prefix, seed);
  core::Rng rng(seed);
  data::LowResourceSplit split =
      labels > 0
          ? data::MakeCountSplit(dataset, labels, &rng)
          : data::MakeLowResourceSplit(
                dataset, rate > 0.0 ? rate : dataset.default_rate, &rng);

  train::RunOptions options;
  options.seed = seed;
  if (epochs > 0) {
    options.epochs = static_cast<int>(epochs);
    options.student_epochs = static_cast<int>(epochs);
  }

  serve::MatchService::Config service_config;
  service_config.kind = kind;
  service_config.default_matcher = matcher_names.front();
  service_config.matchers = matcher_names;
  service_config.score_cache = embed_cache;
  serve::MatchService service(lm.get(), std::move(dataset), std::move(split),
                              options, service_config);

  std::fprintf(status_out, "training %zu matcher(s) on %s...\n",
               matcher_names.size(),
              service.dataset().name.c_str());
  std::fflush(status_out);
  core::Timer train_timer;
  const core::Status trained = service.TrainAll();
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.ToString().c_str());
    return 1;
  }
  std::fprintf(status_out,
               "trained in %s; tables %zu x %zu; default matcher %s\n",
              core::FormatDuration(train_timer.ElapsedSeconds()).c_str(),
              service.dataset().left_table.size(),
              service.dataset().right_table.size(),
              service.default_matcher().c_str());

  serve::ServeDaemon::Config daemon_config;
  daemon_config.port = stdio_mode ? -1 : static_cast<int>(port);
  daemon_config.queue.capacity = static_cast<size_t>(queue_depth);
  daemon_config.queue.max_batch = static_cast<size_t>(max_batch);
  serve::ServeDaemon daemon(&service, daemon_config);

  const core::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!stdio_mode) {
    std::fprintf(status_out, "promptem_serve listening on 127.0.0.1:%d\n",
                 daemon.port());
  } else {
    std::fprintf(status_out, "promptem_serve reading JSONL from stdin\n");
  }
  std::fflush(status_out);

  // First SIGINT/SIGTERM begins the graceful drain; the watcher thread
  // only pokes the daemon, the main thread below does the actual work.
  core::InstallShutdownHandler([&daemon](int) { daemon.Shutdown(); });
  daemon.Wait();

  const serve::BatchQueue::Stats queue_stats = daemon.queue_stats();
  const serve::MatchService::Stats service_stats = service.stats();
  std::fprintf(
      status_out,
      "drained: %llu requests (%llu pairs scored, %llu cache hits), "
      "%llu shed, %llu expired, %llu rejected\n",
      static_cast<unsigned long long>(service_stats.requests),
      static_cast<unsigned long long>(service_stats.pairs_scored),
      static_cast<unsigned long long>(service_stats.score_hits),
      static_cast<unsigned long long>(queue_stats.shed),
      static_cast<unsigned long long>(service_stats.expired),
      static_cast<unsigned long long>(service_stats.rejected));
  if (queue_stats.batches > 0) {
    std::fprintf(status_out,
                 "batching: %llu requests in %llu sweeps (avg width %.2f)\n",
                static_cast<unsigned long long>(queue_stats.dequeued),
                static_cast<unsigned long long>(queue_stats.batches),
                static_cast<double>(queue_stats.dequeued) /
                    static_cast<double>(queue_stats.batches));
  }
  if (embed_cache != nullptr) {
    const core::Status saved = embed_cache->Save();
    if (!saved.ok()) {
      std::fprintf(stderr, "embed cache: drain flush failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::fprintf(status_out, "embed cache: flushed %zu entries to %s\n",
                 embed_cache->PersistedEntries(), embed_cache_path.c_str());
  }
  return 0;
}
