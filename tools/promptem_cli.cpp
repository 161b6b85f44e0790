// promptem_cli — run any registered matcher on a built-in benchmark or a
// user dataset directory from the command line.
//
// Usage:
//   promptem_cli --list-matchers
//   promptem_cli --dataset SEMI-REL [--matcher PromptEM] [--rate 0.10]
//                [--labels N] [--seed 42] [--lm PREFIX]
//                [--run-log run.jsonl]
//   promptem_cli --dir path/to/dataset [--name my-data] ...
//   promptem_cli --dataset SEMI-REL --export out_dir      # dump to files
//
// Matcher dispatch goes through train::MatcherRegistry, so --list-matchers
// and the unknown-name diagnostics are derived from the registrations in
// src/baselines/matchers.cc rather than a hand-maintained switch.
//
// Dataset directories follow src/data/io.h's layout (left.csv|jsonl|txt,
// right.*, pairs_{train,valid,test}.csv).

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/matchers.h"
#include "core/mem_tracker.h"
#include "core/signals.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "core/timer.h"
#include "data/benchmarks.h"
#include "data/blocking.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "lm/pretrained_lm.h"
#include "pipeline/incremental.h"
#include "pipeline/match_pipeline.h"
#include "promptem/embed_cache.h"
#include "promptem/pseudo_labels.h"
#include "promptem/scoring.h"
#include "tensor/kernels.h"
#include "train/observer.h"
#include "train/registry.h"

namespace {

using namespace promptem;

void PrintUsage() {
  std::puts(
      "promptem_cli --list | --list-matchers\n"
      "promptem_cli (--dataset NAME | --dir PATH) [options]\n"
      "  --matcher M     matcher to run (default PromptEM);\n"
      "                  see --list-matchers\n"
      "  --rate R        low-resource label rate in (0,1] (default: the\n"
      "                  benchmark's Table-1 rate, 0.10 for --dir)\n"
      "  --labels N      exact labeled budget (overrides --rate)\n"
      "  --seed S        RNG seed (default 42)\n"
      "  --lm PREFIX     pre-trained LM cache prefix\n"
      "                  (default promptem_shared_lm)\n"
      "  --run-log PATH  append one JSON record per training epoch to PATH\n"
      "  --pseudo P      pseudo-label selection strategy: uncertainty\n"
      "                  (default, the paper's choice), confidence, or\n"
      "                  clustering (k-means on pair embeddings)\n"
      "  --embed-cache PATH  persist pair embeddings (the clustering\n"
      "                  pseudo-label strategy's EmbedBatch output) in a\n"
      "                  hash-index store at PATH, read in place at\n"
      "                  startup (an unusable or old flat-format file is\n"
      "                  rejected and rebuilt), flushed at exit and on\n"
      "                  SIGINT/SIGTERM\n"
      "  --flush-every N with --embed-cache: additionally flush the cache\n"
      "                  every N inserts (crash durability; default 0 =\n"
      "                  only at exit and on signals)\n"
      "  --export DIR    write the dataset to DIR and exit\n"
      "promptem_cli --match-tables [--synthetic N | --left STEM --right STEM]\n"
      "             [--blocker B] [--block-top-k K] [--chunk-size C]\n"
      "             [--threshold T] [--top-matches M] [training options]\n"
      "  streaming table match: block -> chunked score -> incremental\n"
      "  metrics, memory bounded by the chunk size\n"
      "  --synthetic N   seeded N-row synthetic workload with known gold\n"
      "                  (also supplies the training pairs)\n"
      "  --left STEM     load tables from STEM.csv|jsonl|txt (no gold\n"
      "  --right STEM    pairs); train on --dataset or --dir\n"
      "  with --dataset/--dir alone, matches the dataset's own tables\n"
      "  --blocker B     overlap (default), minhash, or allpairs\n"
      "  --block-top-k K candidates kept per left record (default 10)\n"
      "  --index-dir DIR minhash only: build the band tables as\n"
      "                  mmap-backed hash indexes under DIR instead of in\n"
      "                  RAM (identical candidate stream, bounded memory)\n"
      "  --chunk-size C  candidates scored per chunk (default 4096)\n"
      "  --threshold T   declare a match when P(yes) >= T (default 0.5)\n"
      "  --top-matches M strongest matches to print (default 10)\n"
      "  --incremental N after the full match, touch N records and\n"
      "                  re-match incrementally: only candidate pairs of\n"
      "                  changed records are re-scored, the rest come\n"
      "                  from the score cache (requires --match-tables)\n"
      "promptem_cli --blocking-report (--synthetic N | --dataset NAME |\n"
      "             --dir PATH) [--blocker B] [--block-top-k K]\n"
      "  stream the blocker against the gold matches and report pair\n"
      "  completeness / reduction ratio plus a memory section: process\n"
      "  peak RSS and, for minhash, per-band index bytes and bucket-cap\n"
      "  eviction counts (no training involved)\n"
      "promptem_cli --kernel-info\n"
      "  print detected ISA and active kernel variant\n"
      "  (PROMPTEM_FORCE_SCALAR=1 pins the portable kernels)");
}

/// The dispatch report the bench context stamps cross-check against:
/// which GEMM path this process would actually run.
void PrintKernelInfo() {
  namespace kernels = tensor::kernels;
  std::printf("cpu avx2+fma:    %s\n",
              kernels::CpuSupportsAvx2() ? "yes" : "no");
  std::printf("forced scalar:   %s (PROMPTEM_FORCE_SCALAR)\n",
              kernels::ScalarForced() ? "yes" : "no");
  std::printf("kernel variant:  %s\n",
              kernels::KernelVariantName(kernels::ActiveKernelVariant()));
}

std::optional<data::BenchmarkKind> KindByName(const std::string& name) {
  for (auto kind : data::AllBenchmarks()) {
    if (name == data::GetBenchmarkInfo(kind).name) return kind;
  }
  return std::nullopt;
}

[[noreturn]] void UnknownMatcher(const std::string& name) {
  std::fprintf(stderr, "unknown matcher '%s'; known matchers:\n",
               name.c_str());
  for (const auto& known : train::MatcherRegistry::Instance().AllNames()) {
    std::fprintf(stderr, "  %s\n", known.c_str());
  }
  std::exit(2);
}

// Strict numeric option parsing: a value like "0.1x" or "" would
// otherwise be silently read as 0 by atof/atoi and then abort deep inside
// the split helpers; bad flags must instead exit 2 with a message. The
// core parsers additionally reject "nan"/"inf", which strtod accepts and
// which then slip through range checks like `rate <= 0.0 || rate > 1.0`
// (every comparison against NaN is false).

bool ParseDoubleArg(const char* text, double* out) {
  return core::ParseFiniteDouble(text, out);
}

bool ParseIntArg(const char* text, long long* out) {
  return core::ParseInt64(text, out);
}

[[noreturn]] void BadOption(const std::string& flag, const char* value,
                            const char* expected) {
  std::fprintf(stderr, "bad value '%s' for %s (expected %s)\n", value,
               flag.c_str(), expected);
  std::exit(2);
}

/// Builds the requested blocker over `tables`. The returned blocker keeps
/// pointers into `tables` (MinHash), which must outlive it. A non-empty
/// `index_dir` puts the MinHash band tables on disk (mmap-backed hash
/// indexes under that directory); the candidate stream is bitwise
/// identical either way, only the backing store moves.
std::unique_ptr<data::Blocker> MakeBlocker(const std::string& name,
                                           const data::GemDataset& tables,
                                           int top_k,
                                           const std::string& index_dir) {
  if (name == "allpairs") {
    return std::make_unique<data::AllPairsBlocker>(tables.left_table.size(),
                                                   tables.right_table.size());
  }
  if (name == "overlap") {
    data::OverlapBlocker::Config config;
    config.top_k = top_k;
    return std::make_unique<data::OverlapBlocker>(tables.left_table,
                                                  tables.right_table, config);
  }
  data::MinHashBlocker::Config config;
  config.top_k = top_k;
  config.index_dir = index_dir;
  return std::make_unique<data::MinHashBlocker>(tables.left_table,
                                                tables.right_table, config);
}

/// Creates `dir` if missing and checks that the blocker can write its
/// band files there; returns an error message, or "" when it can.
std::string CheckIndexDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return std::strerror(errno);
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0) return std::strerror(errno);
  if (!S_ISDIR(st.st_mode)) return "not a directory";
  if (::access(dir.c_str(), W_OK | X_OK) != 0) return std::strerror(errno);
  return "";
}

uint64_t PackPair(int left, int right) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(left)) << 32) |
         static_cast<uint32_t>(right);
}

}  // namespace

int main(int argc, char** argv) {
  core::IgnoreSigPipe();
  baselines::EnsureBaselineMatchersRegistered();

  std::string dataset_name;
  std::string dir;
  std::string matcher_name = "PromptEM";
  std::string lm_prefix = "promptem_shared_lm";
  std::string export_dir;
  std::string run_log_path;
  std::string custom_name = "custom";
  double rate = -1.0;
  int labels = -1;
  uint64_t seed = 42;
  bool match_tables = false;
  bool blocking_report = false;
  std::string blocker_name = "overlap";
  std::string left_stem;
  std::string right_stem;
  long long synthetic_rows = 0;
  int block_top_k = 10;
  long long chunk_size = 4096;
  double threshold = 0.5;
  long long top_matches = 10;
  long long incremental_rows = 0;
  long long flush_every = 0;
  std::string embed_cache_path;
  std::string index_dir;
  std::string pseudo_strategy = "uncertainty";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      std::puts("benchmarks:");
      for (auto kind : data::AllBenchmarks()) {
        std::printf("  %s\n", data::GetBenchmarkInfo(kind).name);
      }
      std::puts("matchers:");
      for (const auto& name :
           train::MatcherRegistry::Instance().ListedNames()) {
        std::printf("  %s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--kernel-info") {
      PrintKernelInfo();
      return 0;
    } else if (arg == "--list-matchers") {
      for (const auto& name :
           train::MatcherRegistry::Instance().ListedNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--dataset") {
      dataset_name = next();
    } else if (arg == "--dir") {
      dir = next();
    } else if (arg == "--name") {
      custom_name = next();
    } else if (arg == "--matcher") {
      matcher_name = next();
    } else if (arg == "--run-log") {
      run_log_path = next();
    } else if (arg == "--rate") {
      const char* value = next();
      if (!ParseDoubleArg(value, &rate) || rate <= 0.0 || rate > 1.0) {
        BadOption(arg, value, "a rate in (0,1]");
      }
    } else if (arg == "--labels") {
      const char* value = next();
      long long parsed = 0;
      if (!ParseIntArg(value, &parsed) || parsed < 1 ||
          parsed > std::numeric_limits<int>::max()) {
        BadOption(arg, value, "a positive label budget");
      }
      labels = static_cast<int>(parsed);
    } else if (arg == "--seed") {
      const char* value = next();
      long long parsed = 0;
      if (!ParseIntArg(value, &parsed) || parsed < 0) {
        BadOption(arg, value, "a non-negative integer");
      }
      seed = static_cast<uint64_t>(parsed);
    } else if (arg == "--lm") {
      lm_prefix = next();
    } else if (arg == "--export") {
      export_dir = next();
    } else if (arg == "--match-tables") {
      match_tables = true;
    } else if (arg == "--blocking-report") {
      blocking_report = true;
    } else if (arg == "--blocker") {
      blocker_name = next();
      if (blocker_name != "overlap" && blocker_name != "minhash" &&
          blocker_name != "allpairs") {
        BadOption(arg, blocker_name.c_str(), "overlap, minhash, or allpairs");
      }
    } else if (arg == "--left") {
      left_stem = next();
    } else if (arg == "--right") {
      right_stem = next();
    } else if (arg == "--synthetic") {
      const char* value = next();
      if (!ParseIntArg(value, &synthetic_rows) || synthetic_rows < 1) {
        BadOption(arg, value, "a positive row count");
      }
    } else if (arg == "--block-top-k") {
      const char* value = next();
      long long parsed = 0;
      if (!ParseIntArg(value, &parsed) || parsed < 1 ||
          parsed > std::numeric_limits<int>::max()) {
        BadOption(arg, value, "a positive candidate count");
      }
      block_top_k = static_cast<int>(parsed);
    } else if (arg == "--chunk-size") {
      const char* value = next();
      if (!ParseIntArg(value, &chunk_size) || chunk_size < 1) {
        BadOption(arg, value, "a positive chunk size");
      }
    } else if (arg == "--threshold") {
      const char* value = next();
      if (!ParseDoubleArg(value, &threshold) || threshold < 0.0 ||
          threshold > 1.0) {
        BadOption(arg, value, "a probability in [0,1]");
      }
    } else if (arg == "--top-matches") {
      const char* value = next();
      if (!ParseIntArg(value, &top_matches) || top_matches < 0) {
        BadOption(arg, value, "a non-negative count");
      }
    } else if (arg == "--incremental") {
      const char* value = next();
      if (!ParseIntArg(value, &incremental_rows) || incremental_rows < 1) {
        BadOption(arg, value, "a positive record count");
      }
    } else if (arg == "--embed-cache") {
      embed_cache_path = next();
      if (embed_cache_path.empty()) {
        BadOption(arg, "", "a non-empty path");
      }
    } else if (arg == "--flush-every") {
      const char* value = next();
      if (!ParseIntArg(value, &flush_every) || flush_every < 0) {
        BadOption(arg, value, "a non-negative insert count");
      }
    } else if (arg == "--index-dir") {
      index_dir = next();
      if (index_dir.empty()) {
        BadOption(arg, "", "a non-empty directory path");
      }
    } else if (arg == "--pseudo") {
      pseudo_strategy = next();
      em::PseudoLabelStrategy parsed;
      if (!em::ParsePseudoLabelStrategy(pseudo_strategy, &parsed)) {
        BadOption(arg, pseudo_strategy.c_str(),
                  "uncertainty, confidence, or clustering");
      }
    } else {
      PrintUsage();
      return 2;
    }
  }

  if (incremental_rows > 0 && !match_tables) {
    std::fprintf(stderr, "--incremental requires --match-tables\n");
    return 2;
  }
  if (flush_every > 0 && embed_cache_path.empty()) {
    std::fprintf(stderr, "--flush-every requires --embed-cache\n");
    return 2;
  }
  if (!index_dir.empty() && blocker_name != "minhash") {
    std::fprintf(stderr,
                 "--index-dir applies to the minhash blocker only "
                 "(--blocker minhash)\n");
    return 2;
  }

  const bool pipeline_mode = match_tables || blocking_report;
  const bool have_user_tables = !left_stem.empty() || !right_stem.empty();
  if (have_user_tables && (left_stem.empty() || right_stem.empty())) {
    std::fprintf(stderr, "--left and --right must be given together\n");
    return 2;
  }
  if (have_user_tables && !match_tables) {
    std::fprintf(stderr, "--left/--right require --match-tables\n");
    return 2;
  }
  if (have_user_tables && synthetic_rows > 0) {
    std::fprintf(stderr,
                 "--left/--right and --synthetic are mutually exclusive\n");
    return 2;
  }
  if (blocking_report && have_user_tables) {
    std::fprintf(stderr,
                 "--blocking-report needs gold matches; --left/--right "
                 "tables carry none (use --synthetic or a dataset)\n");
    return 2;
  }
  if (!dataset_name.empty() && !dir.empty()) {
    std::fprintf(stderr, "--dataset and --dir are mutually exclusive\n");
    return 2;
  }
  if (synthetic_rows > 0 && (!dataset_name.empty() || !dir.empty())) {
    std::fprintf(stderr,
                 "--synthetic and --dataset/--dir are mutually exclusive\n");
    return 2;
  }
  if (dataset_name.empty() && dir.empty() && synthetic_rows == 0) {
    PrintUsage();
    return 2;
  }
  if (have_user_tables && dataset_name.empty() && dir.empty()) {
    std::fprintf(stderr,
                 "--left/--right tables have no training pairs; supply "
                 "training data with --dataset or --dir\n");
    return 2;
  }
  if (!index_dir.empty()) {
    const std::string error = CheckIndexDir(index_dir);
    if (!error.empty()) {
      std::fprintf(stderr, "--index-dir %s: %s\n", index_dir.c_str(),
                   error.c_str());
      return 2;
    }
  }

  // A Ctrl-C mid-run used to lose every warm embedding (the cache was
  // only saved at the end of a successful run). Install the watcher
  // before any pool thread exists — later threads inherit the blocked
  // mask, so the signal can only surface in the watcher, which flushes
  // through the same atomic tmp+rename path and exits with the
  // conventional signal status. Without --embed-cache nothing needs
  // flushing and the default die-on-signal disposition stays.
  if (!embed_cache_path.empty()) {
    core::InstallShutdownHandler([](int signum) {
      auto cache = em::GetGlobalEmbeddingCache();
      if (cache != nullptr) {
        const core::Status saved = cache->Save();
        if (!saved.ok()) {
          std::fprintf(stderr, "embed cache: signal flush failed: %s\n",
                       saved.ToString().c_str());
        }
      }
      std::_Exit(128 + signum);
    });
  }

  // Resolve the (training) dataset.
  data::GemDataset dataset;
  data::BenchmarkKind kind = data::BenchmarkKind::kSemiHomo;  // DADER source
  data::SyntheticTables synthetic;  // gold mapping when --synthetic
  if (synthetic_rows > 0) {
    data::SyntheticTableOptions options;
    options.rows = static_cast<size_t>(synthetic_rows);
    options.seed = seed;
    synthetic = data::GenerateSyntheticTables(options);
    // The tables move into the dataset; the gold mapping stays behind in
    // `synthetic` for the pipeline's oracle and the blocking report.
    dataset = synthetic.ToDataset(
        std::min<size_t>(static_cast<size_t>(synthetic_rows), 256),
        seed ^ 0xDA7AULL);
  } else if (!dataset_name.empty()) {
    auto resolved = KindByName(dataset_name);
    if (!resolved) {
      std::fprintf(stderr, "unknown benchmark %s (see --list)\n",
                   dataset_name.c_str());
      return 2;
    }
    kind = *resolved;
    dataset = data::GenerateBenchmark(kind, seed);
  } else {
    auto loaded = data::LoadGemDataset(dir, custom_name);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", dir.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
    dataset.default_rate = 0.10;
  }

  // Resolve the tables the pipeline blocks over, the gold oracle, and the
  // gold match list.
  data::GemDataset user_tables;
  const data::GemDataset* match_ds = &dataset;
  std::function<int(int, int)> gold_label;
  std::vector<data::PairExample> gold_matches;
  if (pipeline_mode) {
    if (have_user_tables) {
      auto left_loaded = data::LoadTableAuto(left_stem);
      auto right_loaded = data::LoadTableAuto(right_stem);
      if (!left_loaded.ok() || !right_loaded.ok()) {
        const auto& bad = !left_loaded.ok() ? left_loaded : right_loaded;
        std::fprintf(stderr, "failed to load tables: %s\n",
                     bad.status().ToString().c_str());
        return 1;
      }
      user_tables = em::MakeTableDataset("tables",
                                         std::move(left_loaded).value(),
                                         std::move(right_loaded).value());
      match_ds = &user_tables;
    } else if (synthetic_rows > 0) {
      gold_label = [&synthetic](int l, int r) {
        return synthetic.GoldLabel(l, r);
      };
      gold_matches = synthetic.GoldMatches();
    } else {
      // Dataset mode: the labeled pairs are the only gold we have; every
      // other candidate the blocker proposes stays kUnlabeledLabel and is
      // skipped by the incremental metrics.
      auto known = std::make_shared<std::unordered_map<uint64_t, int>>();
      for (const auto* pairs : {&dataset.train, &dataset.valid,
                                &dataset.test}) {
        for (const auto& p : *pairs) {
          (*known)[PackPair(p.left_index, p.right_index)] = p.label;
          if (p.label == 1) gold_matches.push_back(p);
        }
      }
      gold_label = [known](int l, int r) {
        const auto it = known->find(PackPair(l, r));
        return it == known->end() ? data::kUnlabeledLabel : it->second;
      };
    }
  }

  if (blocking_report) {
    auto blocker = MakeBlocker(blocker_name, *match_ds, block_top_k,
                               index_dir);
    const data::BlockingQuality quality = data::EvaluateBlockingStream(
        blocker.get(), gold_matches, static_cast<size_t>(chunk_size));
    core::TablePrinter table({"blocker", "left", "right", "candidates",
                              "completeness", "reduction"});
    table.AddRow({blocker->Name(), std::to_string(blocker->left_size()),
                  std::to_string(blocker->right_size()),
                  std::to_string(quality.num_candidates),
                  core::TablePrinter::Pct(quality.pair_completeness),
                  core::TablePrinter::Pct(quality.reduction_ratio)});
    table.Print();
    // Memory section: the process high-water mark is the number that
    // makes the in-RAM vs mmap trade visible — the mmap backend keeps
    // band bytes in the page cache (evictable, charged to the file),
    // so its RSS peak stays flat where the RAM backend's grows with
    // the corpus.
    std::printf("memory: peak RSS %s\n",
                core::FormatBytes(core::MemTracker::ProcessPeakRssBytes())
                    .c_str());
    if (const auto* minhash =
            dynamic_cast<const data::MinHashBlocker*>(blocker.get())) {
      const data::MinHashBlocker::IndexStats stats = minhash->index_stats();
      uint64_t min_band = 0;
      uint64_t max_band = 0;
      for (uint64_t bytes : stats.band_bytes) {
        min_band = min_band == 0 ? bytes : std::min(min_band, bytes);
        max_band = std::max(max_band, bytes);
      }
      std::printf(
          "minhash index: %zu bands (%s..%s per band), %s in RAM, %s on "
          "disk\n",
          stats.band_bytes.size(),
          core::FormatBytes(static_cast<size_t>(min_band)).c_str(),
          core::FormatBytes(static_cast<size_t>(max_band)).c_str(),
          core::FormatBytes(static_cast<size_t>(stats.ram_bytes)).c_str(),
          core::FormatBytes(static_cast<size_t>(stats.file_bytes)).c_str());
      std::printf(
          "minhash bucket cap: %llu buckets over cap, %llu probes "
          "skipped\n",
          static_cast<unsigned long long>(stats.buckets_over_cap),
          static_cast<unsigned long long>(stats.capped_probes));
    }
    if (!match_tables) return 0;
  }

  if (!export_dir.empty()) {
    core::Status st = data::SaveGemDataset(dataset, export_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu + %zu records, %d labeled pairs)\n",
                export_dir.c_str(), dataset.left_table.size(),
                dataset.right_table.size(), dataset.TotalLabeled());
    return 0;
  }

  std::unique_ptr<train::Matcher> matcher =
      train::MatcherRegistry::Instance().Create(matcher_name);
  if (matcher == nullptr) UnknownMatcher(matcher_name);
  if (have_user_tables && matcher_name.rfind("TDmatch", 0) == 0) {
    // The TDmatch family predicts from a graph built over its training
    // tables; candidate indices into different tables would be garbage.
    std::fprintf(stderr,
                 "%s cannot match separate --left/--right tables (its "
                 "graph is bound to the training tables)\n",
                 matcher_name.c_str());
    return 2;
  }

  std::unique_ptr<train::JsonlRunLogger> run_logger;
  if (!run_log_path.empty()) {
    run_logger = std::make_unique<train::JsonlRunLogger>(run_log_path);
    if (!run_logger->ok()) {
      std::fprintf(stderr, "cannot open run log %s\n", run_log_path.c_str());
      return 1;
    }
  }

  // The persistent embedding cache, shared by every in-process consumer
  // (the clustering pseudo-label strategy's EmbedBatch sweeps). Missing
  // file: start empty. Corrupt file: reject it loudly and rebuild from
  // scratch — a cache is always safe to discard, never safe to trust.
  std::shared_ptr<em::EmbeddingCache> embed_cache;
  if (!embed_cache_path.empty()) {
    embed_cache = std::make_shared<em::EmbeddingCache>();
    const core::Status loaded = embed_cache->Attach(embed_cache_path);
    if (loaded.ok()) {
      std::printf("embed cache: loaded %zu embeddings from %s\n",
                  embed_cache->PersistedEntries(), embed_cache_path.c_str());
    } else if (loaded.code() == core::StatusCode::kNotFound) {
      std::printf("embed cache: %s absent, starting empty\n",
                  embed_cache_path.c_str());
    } else {
      std::fprintf(stderr, "embed cache: rejected %s (%s); rebuilding\n",
                   embed_cache_path.c_str(), loaded.ToString().c_str());
    }
    // EnableAutosave before publishing: the signal watcher installed at
    // startup flushes whatever the global pointer holds.
    embed_cache->EnableAutosave(static_cast<size_t>(flush_every));
    em::SetGlobalEmbeddingCache(embed_cache);
  }

  auto lm = lm::GetOrCreateSharedLM(lm_prefix, seed);
  core::Rng rng(seed);
  data::LowResourceSplit split =
      labels > 0
          ? data::MakeCountSplit(dataset, labels, &rng)
          : data::MakeLowResourceSplit(
                dataset, rate > 0.0 ? rate : dataset.default_rate, &rng);

  std::printf("%s on %s: %zu labeled / %zu unlabeled / %zu valid / %zu "
              "test pairs\n",
              matcher_name.c_str(), dataset.name.c_str(),
              split.labeled.size(), split.unlabeled.size(),
              split.valid.size(), split.test.size());
  std::printf("kernels: %s\n", tensor::kernels::KernelVariantName(
                                   tensor::kernels::ActiveKernelVariant()));

  train::MatcherContext ctx;
  ctx.lm = lm.get();
  ctx.kind = kind;
  ctx.dataset = &dataset;
  ctx.split = &split;
  ctx.options.seed = seed;
  ctx.options.pseudo_strategy = pseudo_strategy;
  ctx.observer = run_logger.get();
  const train::MatcherResult result = train::RunMatcher(matcher.get(), ctx);

  std::printf("valid: %s\n", result.valid.ToString().c_str());
  std::printf("test:  %s\n", result.test.ToString().c_str());
  std::printf("train time %s, peak tracked memory %s\n",
              core::FormatDuration(result.train_seconds).c_str(),
              core::FormatBytes(result.peak_memory_bytes).c_str());
  if (run_logger != nullptr) {
    std::printf("run log appended to %s\n", run_logger->path().c_str());
  }

  if (match_tables) {
    auto blocker = MakeBlocker(blocker_name, *match_ds, block_top_k,
                               index_dir);
    em::MatchPipelineConfig config;
    config.chunk_size = static_cast<size_t>(chunk_size);
    config.threshold = static_cast<float>(threshold);
    config.top_k_matches = static_cast<size_t>(top_matches);
    config.gold_label = gold_label;
    train::MatcherContext match_ctx = ctx;
    match_ctx.dataset = match_ds;
    const em::MatchPipelineResult r =
        em::RunTableMatch(matcher.get(), match_ctx, blocker.get(), config);
    std::printf(
        "table match [%s]: %zu x %zu rows -> %zu candidates in %zu "
        "chunks (max chunk %zu)\n",
        blocker->Name(), blocker->left_size(), blocker->right_size(),
        r.candidates, r.chunks, r.max_chunk);
    std::printf("matches (P(yes) >= %.2f): %zu\n", threshold, r.matches);
    if (r.labeled > 0) {
      std::printf("gold-labeled candidates: %zu of %zu, %s\n", r.labeled,
                  r.candidates, r.metrics.ToString().c_str());
    }
    if (!r.top_matches.empty()) {
      core::TablePrinter table({"left", "right", "P(yes)"});
      for (const auto& m : r.top_matches) {
        char prob[32];
        std::snprintf(prob, sizeof(prob), "%.4f", m.pos_prob);
        table.AddRow({std::to_string(m.left_index),
                      std::to_string(m.right_index), prob});
      }
      table.Print();
    }

    if (incremental_rows > 0) {
      // Incremental re-matching demo: full match once (fills the score
      // cache), then touch N right records and re-match — only their
      // candidate pairs are re-scored.
      train::MatcherContext inc_ctx = match_ctx;
      em::IncrementalMatcher::Config inc_config;
      inc_config.pipeline = config;
      train::Matcher* matcher_ptr = matcher.get();
      em::IncrementalMatcher inc(
          *match_ds,
          [&inc_ctx, matcher_ptr](const data::GemDataset& ds) {
            inc_ctx.dataset = &ds;
            return em::ChunkScoreFn(
                [matcher_ptr,
                 &inc_ctx](const std::vector<data::PairExample>& chunk) {
                  return matcher_ptr->ScoreProbs(inc_ctx, chunk);
                });
          },
          [&blocker_name, block_top_k, &index_dir](
              const data::GemDataset& ds) {
            return MakeBlocker(blocker_name, ds, block_top_k, index_dir);
          },
          inc_config);
      inc.FullMatch();
      const size_t right_rows = inc.dataset().right_table.size();
      em::RecordDelta delta;
      for (long long n = 0; n < incremental_rows; ++n) {
        em::RecordUpsert up;
        up.left = false;
        up.index = static_cast<int>(static_cast<size_t>(n) % right_rows);
        up.record =
            inc.dataset().right_table[static_cast<size_t>(up.index)];
        delta.upserts.push_back(std::move(up));
      }
      const em::MatchPipelineResult ir = inc.ApplyDelta(delta);
      const em::DeltaStats& stats = inc.last_stats();
      std::printf(
          "incremental re-match: %zu changed records -> %zu candidates, "
          "%zu re-scored, %zu reused from cache (%zu matches)\n",
          stats.changed_records, stats.candidates, stats.rescored,
          stats.reused, ir.matches);
    }
  }

  if (embed_cache != nullptr) {
    const core::Status saved = embed_cache->Save();
    if (!saved.ok()) {
      std::fprintf(stderr, "embed cache: save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("embed cache: saved %zu embeddings to %s\n",
                embed_cache->PersistedEntries(), embed_cache_path.c_str());
  }
  return 0;
}
