// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// every experiment: GEMM (single-thread and pool sweep), softmax,
// layer-norm, the tokenizer, the §2.2 serializer, one transformer forward
// pass, and one TDmatch PPR sweep. Unless --benchmark_out is given, the
// results are also written to BENCH_micro.json (kernel -> ns/op, items/s).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/tdmatch.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/benchmarks.h"
#include "data/blocking.h"
#include "data/serializer.h"
#include "data/synthetic.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "pipeline/incremental.h"
#include "pipeline/match_pipeline.h"
#include "promptem/embed_cache.h"
#include "promptem/encoding.h"
#include "promptem/scoring.h"
#include "train/registry.h"
#include "train/train_loop.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "text/vocab.h"

// Build-type stamp injected by bench/CMakeLists.txt; reported via
// AddCustomContext and used to refuse recording BENCH_micro.json from a
// non-Release or sanitizer build (the system libbenchmark's own
// library_build_type field always says "debug" and cannot be trusted).
#ifndef PROMPTEM_BENCH_BUILD_TYPE
#define PROMPTEM_BENCH_BUILD_TYPE ""
#endif
#ifndef PROMPTEM_BENCH_SANITIZE
#define PROMPTEM_BENCH_SANITIZE ""
#endif

namespace {

using namespace promptem;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<size_t>(n) * n, 1.0f);
  std::vector<float> b(static_cast<size_t>(n) * n, 2.0f);
  std::vector<float> c(static_cast<size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    tensor::kernels::Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(),
                          0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// The same GEMM pinned to the portable scalar kernels — the "before"
/// half of the before/after pair BENCH_micro.json records (the dispatch
/// default is the AVX2 table wherever the CPU has it).
void BM_GemmScalar(benchmark::State& state) {
  tensor::kernels::ScopedKernelVariant scalar(
      tensor::kernels::KernelVariant::kScalar);
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<size_t>(n) * n, 1.0f);
  std::vector<float> b(static_cast<size_t>(n) * n, 2.0f);
  std::vector<float> c(static_cast<size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    tensor::kernels::Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(),
                          0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmScalar)->Arg(128)->Arg(256);

void BM_GemmTransB(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<size_t>(n) * n, 1.0f);
  std::vector<float> b(static_cast<size_t>(n) * n, 2.0f);
  std::vector<float> c(static_cast<size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    tensor::kernels::Gemm(false, true, n, n, n, 1.0f, a.data(), b.data(),
                          0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmTransB)->Arg(64);

void BM_SoftmaxRows(benchmark::State& state) {
  const int rows = 64;
  const int cols = static_cast<int>(state.range(0));
  std::vector<float> x(static_cast<size_t>(rows) * cols, 0.5f);
  std::vector<float> y(x.size());
  for (auto _ : state) {
    tensor::kernels::SoftmaxRows(x.data(), rows, cols, y.data());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(2048);

void BM_LayerNorm(benchmark::State& state) {
  const int rows = 96;
  const int cols = 32;
  std::vector<float> x(static_cast<size_t>(rows) * cols, 0.5f);
  std::vector<float> gamma(cols, 1.0f);
  std::vector<float> beta(cols, 0.0f);
  std::vector<float> out(x.size());
  std::vector<float> mean(rows);
  std::vector<float> rstd(rows);
  for (auto _ : state) {
    tensor::kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                                      beta.data(), 1e-5f, out.data(),
                                      mean.data(), rstd.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LayerNorm);

void BM_Tokenize(benchmark::State& state) {
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 42);
  const std::string text = data::SerializeRecord(ds.left_table[0]);
  for (auto _ : state) {
    auto tokens = text::WordTokenize(text);
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_Tokenize);

void BM_SerializeRecord(benchmark::State& state) {
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiRel, 42);
  for (auto _ : state) {
    std::string s = data::SerializeRecord(ds.left_table[0]);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SerializeRecord);

void BM_TransformerForward(benchmark::State& state) {
  nn::TransformerConfig config;
  config.vocab_size = 2000;
  config.max_seq_len = 96;
  config.dim = 32;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 64;
  config.dropout = 0.0f;
  core::Rng rng(1);
  nn::TransformerEncoder encoder(config, &rng);
  encoder.SetTraining(false);
  std::vector<int> ids(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = 7 + static_cast<int>(i % 1900);
  }
  for (auto _ : state) {
    auto h = encoder.Encode(ids, &rng);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_TransformerForward)->Arg(32)->Arg(96);

nn::TransformerConfig ForwardBenchConfig() {
  nn::TransformerConfig config;
  config.vocab_size = 2000;
  config.max_seq_len = 96;
  config.dim = 32;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 64;
  config.dropout = 0.0f;
  return config;
}

std::vector<int> ForwardBenchIds(int len) {
  std::vector<int> ids(static_cast<size_t>(len));
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = 7 + static_cast<int>(i % 1900);
  }
  return ids;
}

/// Training-mode forward: grad mode on, so every op attaches parents and
/// a backward closure (the graph is built, then discarded each iteration).
void BM_ForwardTrain(benchmark::State& state) {
  core::Rng rng(1);
  nn::TransformerEncoder encoder(ForwardBenchConfig(), &rng);
  encoder.Train();
  const std::vector<int> ids =
      ForwardBenchIds(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto h = encoder.Encode(ids, &rng);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardTrain)->Arg(96);

/// Inference-mode forward through the execution engine's fast path:
/// NoGradGuard (no graph) + a warmed ScratchArena (steady-state buffer
/// reuse). The headline eval-vs-train comparison for BENCH_micro.json.
void BM_ForwardEval(benchmark::State& state) {
  core::Rng rng(1);
  nn::TransformerEncoder encoder(ForwardBenchConfig(), &rng);
  encoder.Eval();
  const std::vector<int> ids =
      ForwardBenchIds(static_cast<int>(state.range(0)));
  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  for (auto _ : state) {
    auto h = encoder.Encode(ids, &rng);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["arena_fresh"] = static_cast<double>(arena.fresh_count());
}
BENCHMARK(BM_ForwardEval)->Arg(96);

/// One-row forward as the matchers run it: the last layer computes only
/// the row the head reads. Arg(1) is an MC-Dropout pass (training mode,
/// dropout 0.1, under NoGradGuard), Arg(0) the eval forward the scoring
/// sweeps run; both on a warmed ScratchArena. Their ratio is what an
/// MC-Dropout pass costs over an eval forward.
void RunRowForward(benchmark::State& state, bool mc_dropout) {
  nn::TransformerConfig config = ForwardBenchConfig();
  config.dropout = 0.1f;
  core::Rng rng(1);
  nn::TransformerEncoder encoder(config, &rng);
  encoder.SetTraining(mc_dropout);
  const std::vector<int> ids = ForwardBenchIds(85);
  const std::vector<int> row = {0};
  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  for (auto _ : state) {
    auto h = encoder.Encode(ids, &rng, &row);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ForwardEvalRow(benchmark::State& state) {
  RunRowForward(state, false);
}
BENCHMARK(BM_ForwardEvalRow);

void BM_McDropoutPass(benchmark::State& state) {
  RunRowForward(state, true);
}
BENCHMARK(BM_McDropoutPass);

/// One training step through train::TrainLoop at Arg pool lanes: a batch
/// of 8 sequences of 85 tokens, each a one-row forward (the [MASK] row
/// through the tied MLM head, as prompt-tuning reads it) and backward
/// under its own gradient shard, then the ordered shard merge and one
/// AdamW step. The loop's optimizer state is built per iteration too.
void BM_TrainStep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int saved = core::GetNumThreads();
  core::SetNumThreads(threads);
  nn::TransformerConfig config = ForwardBenchConfig();
  config.dropout = 0.1f;
  core::Rng init(1);
  nn::TransformerEncoder encoder(config, &init);
  encoder.Train();
  std::vector<std::vector<int>> batch;
  for (int i = 0; i < 8; ++i) {
    std::vector<int> ids = ForwardBenchIds(85);
    for (int& id : ids) id = 7 + (id + 97 * i) % 1900;
    batch.push_back(std::move(ids));
  }
  const std::vector<int> row = {42};
  train::LoopOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  for (auto _ : state) {
    train::TrainLoop loop(&encoder, options);
    loop.OnParallelStep([&](size_t index, core::Rng* rng) {
      const tensor::Tensor hidden = encoder.Encode(batch[index], rng, &row);
      return tensor::ops::CrossEntropyLogits(encoder.MlmLogits(hidden, {0}),
                                             {static_cast<int>(index) + 7});
    });
    benchmark::DoNotOptimize(loop.Run(batch.size()).samples_processed);
  }
  state.SetItemsProcessed(state.iterations() * 8);
  state.counters["threads"] = threads;
  core::SetNumThreads(saved);
}
BENCHMARK(BM_TrainStep)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

tensor::Tensor RandomAttnInput(int t, int d, uint64_t seed) {
  core::Rng rng(seed);
  tensor::Tensor x = tensor::Tensor::Zeros({t, d});
  for (int64_t i = 0; i < x.numel(); ++i) x.data()[i] = rng.Gaussian();
  return x;
}

/// Fused SDPA core (strided head views + streaming softmax + tiled
/// attn-times-V), graph-free with a warmed arena: the configuration every
/// eval scoring pass runs. 4 heads over packed [T, 64] Q/K/V.
void BM_AttentionFused(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const int d = 64;
  const int heads = 4;
  const float scale = 1.0f / 4.0f;  // 1/sqrt(head_dim=16)
  tensor::Tensor q = RandomAttnInput(t, d, 1);
  tensor::Tensor k = RandomAttnInput(t, d, 2);
  tensor::Tensor v = RandomAttnInput(t, d, 3);
  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  for (auto _ : state) {
    tensor::Tensor out =
        tensor::ops::FusedSdpa(q, k, v, heads, scale, 0.0f, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  // Two [T,T]x[T,hd]-shaped GEMMs per head: 4*T*T*d flops total.
  state.SetItemsProcessed(state.iterations() * 4LL * t * t * d);
  state.counters["arena_fresh"] = static_cast<double>(arena.fresh_count());
}
BENCHMARK(BM_AttentionFused)->Arg(32)->Arg(128);

/// BM_AttentionFused pinned to the scalar kernels (the strided GEMM and
/// the streaming-softmax exp both dispatch per variant).
void BM_AttentionFusedScalar(benchmark::State& state) {
  tensor::kernels::ScopedKernelVariant scalar(
      tensor::kernels::KernelVariant::kScalar);
  const int t = static_cast<int>(state.range(0));
  const int d = 64;
  const int heads = 4;
  const float scale = 1.0f / 4.0f;
  tensor::Tensor q = RandomAttnInput(t, d, 1);
  tensor::Tensor k = RandomAttnInput(t, d, 2);
  tensor::Tensor v = RandomAttnInput(t, d, 3);
  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  for (auto _ : state) {
    tensor::Tensor out =
        tensor::ops::FusedSdpa(q, k, v, heads, scale, 0.0f, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4LL * t * t * d);
}
BENCHMARK(BM_AttentionFusedScalar)->Arg(128);

/// The unfused composition over the same inputs: per-head SelectCols
/// copies, materialized score matrices, and a ConcatCols gather — what
/// MultiHeadSelfAttention ran before fusion, kept as the parity reference
/// in attention_fusion_test.
void BM_AttentionUnfused(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const int d = 64;
  const int heads = 4;
  const int hd = d / heads;
  const float scale = 1.0f / 4.0f;
  tensor::Tensor q = RandomAttnInput(t, d, 1);
  tensor::Tensor k = RandomAttnInput(t, d, 2);
  tensor::Tensor v = RandomAttnInput(t, d, 3);
  tensor::NoGradGuard no_grad;
  tensor::ScratchArena arena;
  tensor::ScratchArena::Scope scope(&arena);
  for (auto _ : state) {
    std::vector<tensor::Tensor> head_outputs;
    head_outputs.reserve(heads);
    for (int h = 0; h < heads; ++h) {
      std::vector<int> cols(hd);
      for (int c = 0; c < hd; ++c) cols[c] = h * hd + c;
      tensor::Tensor qh = tensor::ops::SelectCols(q, cols);
      tensor::Tensor kh = tensor::ops::SelectCols(k, cols);
      tensor::Tensor vh = tensor::ops::SelectCols(v, cols);
      tensor::Tensor attn = tensor::ops::Softmax(tensor::ops::Scale(
          tensor::ops::MatMul(qh, kh, false, /*trans_b=*/true), scale));
      head_outputs.push_back(tensor::ops::MatMul(attn, vh));
    }
    tensor::Tensor out = tensor::ops::ConcatCols(head_outputs);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4LL * t * t * d);
  state.counters["arena_fresh"] = static_cast<double>(arena.fresh_count());
}
BENCHMARK(BM_AttentionUnfused)->Arg(32)->Arg(128);

/// End-to-end streaming match over the seeded synthetic workload:
/// MinHash-LSH blocking -> chunked scoring -> incremental metrics, at
/// 10k / 100k / 1M left rows. Scoring is a cheap deterministic hash stub
/// — real-model chunk scoring is pinned bitwise by tests/pipeline_test.cc;
/// what this measures is the blocker + pipeline machinery, and what the
/// counters record is the sub-quadratic candidate count against the
/// all-pairs cross product, plus the gold pair completeness. Every
/// iteration rebuilds the blocker over the same tables, so at 10k rows
/// all iterations after the first find every record's band keys in the
/// process-wide memo (DESIGN.md §13): /10000 prices a warm rebuild.
/// Larger tables overflow the memo and price a cold build.
void BM_BlockScoreMatch(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  data::SyntheticTableOptions options;
  options.rows = rows;
  options.seed = 42;
  const data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  const em::ChunkScoreFn scorer =
      [](const std::vector<data::PairExample>& chunk) {
        std::vector<em::ProbPair> probs(chunk.size());
        for (size_t i = 0; i < chunk.size(); ++i) {
          const uint64_t h =
              ((static_cast<uint64_t>(static_cast<uint32_t>(
                    chunk[i].left_index))
                << 32) ^
               static_cast<uint32_t>(chunk[i].right_index)) *
              0x9E3779B97F4A7C15ULL;
          const float pos = static_cast<float>((h >> 40) & 0xFFFF) / 65535.0f;
          probs[i] = {1.0f - pos, pos};
        }
        return probs;
      };
  em::MatchPipelineResult result;
  for (auto _ : state) {
    data::MinHashBlocker blocker(tables.left, tables.right);
    em::MatchPipelineConfig config;
    config.chunk_size = 8192;
    config.gold_label = [&tables](int l, int r) {
      return tables.GoldLabel(l, r);
    };
    em::MatchPipeline pipeline(&blocker, scorer, config);
    result = pipeline.Run();
    benchmark::DoNotOptimize(result.candidates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result.candidates));
  state.counters["candidates"] = static_cast<double>(result.candidates);
  state.counters["allpairs"] = static_cast<double>(tables.left.size()) *
                               static_cast<double>(tables.right.size());
  // Gold matches retained by the blocker (scored either way) over all
  // gold matches — every left row has exactly one.
  state.counters["completeness"] =
      static_cast<double>(result.metrics.tp + result.metrics.fn) /
      static_cast<double>(rows);
  state.counters["matches"] = static_cast<double>(result.matches);
}
BENCHMARK(BM_BlockScoreMatch)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

/// The same streaming match with the MinHash band tables on disk
/// (mmap-backed core::HashIndex files): the candidate stream is pinned
/// bitwise identical to the in-RAM backend by tests/hash_index_test.cc,
/// so the delta against BM_BlockScoreMatch is the pure cost of taking
/// the index through the storage seam — build-time sealing to files plus
/// page-cache reads instead of heap reads on every probe. Its band keys
/// go through the same memo, so /10000 is a warm rebuild here too; the
/// two families compare only when recorded by the same binary.
void BM_BlockScoreMatch_Mmap(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  data::SyntheticTableOptions options;
  options.rows = rows;
  options.seed = 42;
  const data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  char dir_template[] = "/tmp/promptem_bench_phx_XXXXXX";
  const char* index_dir = mkdtemp(dir_template);
  if (index_dir == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const em::ChunkScoreFn scorer =
      [](const std::vector<data::PairExample>& chunk) {
        std::vector<em::ProbPair> probs(chunk.size());
        for (size_t i = 0; i < chunk.size(); ++i) {
          const uint64_t h =
              ((static_cast<uint64_t>(static_cast<uint32_t>(
                    chunk[i].left_index))
                << 32) ^
               static_cast<uint32_t>(chunk[i].right_index)) *
              0x9E3779B97F4A7C15ULL;
          const float pos = static_cast<float>((h >> 40) & 0xFFFF) / 65535.0f;
          probs[i] = {1.0f - pos, pos};
        }
        return probs;
      };
  em::MatchPipelineResult result;
  data::MinHashBlocker::IndexStats index_stats;
  for (auto _ : state) {
    data::MinHashBlocker::Config blocker_config;
    blocker_config.index_dir = index_dir;
    data::MinHashBlocker blocker(tables.left, tables.right, blocker_config);
    em::MatchPipelineConfig config;
    config.chunk_size = 8192;
    config.gold_label = [&tables](int l, int r) {
      return tables.GoldLabel(l, r);
    };
    em::MatchPipeline pipeline(&blocker, scorer, config);
    result = pipeline.Run();
    index_stats = blocker.index_stats();
    benchmark::DoNotOptimize(result.candidates);
  }
  std::system(("rm -rf " + std::string(index_dir)).c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result.candidates));
  state.counters["candidates"] = static_cast<double>(result.candidates);
  state.counters["index_file_bytes"] =
      static_cast<double>(index_stats.file_bytes);
  state.counters["index_ram_bytes"] =
      static_cast<double>(index_stats.ram_bytes);
  state.counters["completeness"] =
      static_cast<double>(result.metrics.tp + result.metrics.fn) /
      static_cast<double>(rows);
  state.counters["matches"] = static_cast<double>(result.matches);
}
BENCHMARK(BM_BlockScoreMatch_Mmap)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// ---------------------------------------------------------------------
// Record caches and incremental matching (DESIGN.md §13).

/// Corpus vocabulary for the cache benches, built the way PretrainedLM
/// builds its own: tokenize every serialized record.
text::Vocab BuildBenchVocab(const data::GemDataset& ds) {
  std::vector<std::vector<std::string>> docs;
  docs.reserve(ds.left_table.size() + ds.right_table.size());
  for (const auto& r : ds.left_table) {
    docs.push_back(text::WordTokenize(data::SerializeRecord(r)));
  }
  for (const auto& r : ds.right_table) {
    docs.push_back(text::WordTokenize(data::SerializeRecord(r)));
  }
  return text::BuildVocab(docs, 1, 0);
}

/// `n` distinct candidate pairs cycling both tables (duplicates would
/// let the "cold" cache configurations hit within a single sweep).
std::vector<data::PairExample> MakeBenchPairs(size_t left, size_t right,
                                              size_t n) {
  std::vector<data::PairExample> pairs;
  std::set<std::pair<int, int>> seen;
  core::Rng rng(11);
  while (pairs.size() < n) {
    const int l = static_cast<int>(rng.NextU64(left));
    const int r = static_cast<int>(rng.NextU64(right));
    if (!seen.insert({l, r}).second) continue;
    pairs.push_back({l, r, 0});
  }
  return pairs;
}

/// PairEncoder::EncodeAll across pool sizes: Args({threads, warm}).
/// warm=0 invalidates the memo every iteration (pure parallel
/// serialize+tokenize throughput); warm=1 measures the memoized
/// steady state self-training actually runs in. Output is bitwise
/// identical at every pool size and cache state (tests/cache_test.cc
/// pins that; this records the speed).
void BM_EncodeChunkParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool warm = state.range(1) != 0;
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 42);
  text::Vocab vocab = BuildBenchVocab(ds);
  em::PairEncoder encoder(&vocab, 64);
  encoder.FitSummarizer(ds);
  const std::vector<data::PairExample> pairs =
      MakeBenchPairs(ds.left_table.size(), ds.right_table.size(), 4096);
  const int saved = core::GetNumThreads();
  core::SetNumThreads(threads);
  if (warm) {
    auto warmup = encoder.EncodeAll(ds, pairs);
    benchmark::DoNotOptimize(warmup);
  }
  for (auto _ : state) {
    if (!warm) encoder.InvalidateCache();
    auto encoded = encoder.EncodeAll(ds, pairs);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
  state.counters["threads"] = threads;
  state.counters["warm"] = warm ? 1 : 0;
  core::SetNumThreads(saved);
}
BENCHMARK(BM_EncodeChunkParallel)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({4, 1});

/// EmbeddingCache probe cost on the two pure paths: Arg 1 = every probe
/// hits (shared_ptr copy out of the sharded table), Arg 0 = every probe
/// misses (a different context tag, the cross-context isolation case).
void BM_EmbedCacheHitMiss(benchmark::State& state) {
  const bool hit = state.range(0) != 0;
  constexpr size_t kEntries = 4096;
  constexpr int kDim = 64;
  em::EmbeddingCache cache(1u << 14);
  const uint64_t tag = em::EmbeddingCache::ContextTag(0x1234u, 0x5678u);
  const uint64_t other_tag =
      em::EmbeddingCache::ContextTag(0x4321u, 0x5678u);
  for (size_t i = 0; i < kEntries; ++i) {
    cache.Insert(em::EmbeddingCache::PairKey(tag, static_cast<int>(i),
                                             static_cast<int>(i)),
                 std::vector<float>(kDim, static_cast<float>(i)));
  }
  const uint64_t probe_tag = hit ? tag : other_tag;
  for (auto _ : state) {
    size_t found = 0;
    for (size_t i = 0; i < kEntries; ++i) {
      auto entry = cache.Find(em::EmbeddingCache::PairKey(
          probe_tag, static_cast<int>(i), static_cast<int>(i)));
      found += entry != nullptr;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kEntries));
  state.counters["hit"] = hit ? 1 : 0;
}
BENCHMARK(BM_EmbedCacheHitMiss)->Arg(0)->Arg(1);

/// The clustering strategy's per-iteration embedding sweep over a pool
/// that shrinks as pseudo-labels are taken — the workload --embed-cache
/// exists for. A frozen embedder (a fixed probe model, as in
/// PromptEM::Run) re-embeds the surviving pool every round; Arg 0 pays
/// the full transformer forward per pair per round, Arg 1 rides
/// EmbedBatchCached so each pair is embedded once per sweep. Keys are
/// the real restart-stable composites (DatasetFingerprint x
/// ParameterFingerprint), so this also prices key construction.
void BM_SelfTrainCached(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 42);
  text::Vocab vocab = BuildBenchVocab(ds);
  em::PairEncoder encoder(&vocab, 40);
  encoder.FitSummarizer(ds);
  const std::vector<data::PairExample> pool_pairs =
      MakeBenchPairs(ds.left_table.size(), ds.right_table.size(), 192);
  const std::vector<em::EncodedPair> xs = encoder.EncodeAll(ds, pool_pairs);

  nn::TransformerConfig config = ForwardBenchConfig();
  config.vocab_size = vocab.size();
  core::Rng init_rng(3);
  nn::TransformerEncoder embedder(config, &init_rng);
  embedder.Eval();
  const int max_len = config.max_seq_len;
  const em::PairEmbedFn embed = [&embedder, max_len](const em::EncodedPair& x,
                                                     core::Rng* rng) {
    std::vector<int> ids;
    ids.reserve(static_cast<size_t>(max_len));
    ids.push_back(text::SpecialTokens::kCls);
    for (int id : x.left_ids) {
      if (ids.size() + 2 >= static_cast<size_t>(max_len)) break;
      ids.push_back(id);
    }
    ids.push_back(text::SpecialTokens::kSep);
    for (int id : x.right_ids) {
      if (ids.size() + 1 >= static_cast<size_t>(max_len)) break;
      ids.push_back(id);
    }
    tensor::Tensor h = embedder.Encode(ids, rng);
    const int rows = h.shape()[0];
    const int dim = h.shape()[1];
    std::vector<float> pooled(static_cast<size_t>(dim), 0.0f);
    for (int t = 0; t < rows; ++t) {
      for (int d = 0; d < dim; ++d) {
        pooled[static_cast<size_t>(d)] += h.data()[t * dim + d];
      }
    }
    for (float& v : pooled) v /= static_cast<float>(rows);
    return pooled;
  };

  const uint64_t tag = em::EmbeddingCache::ContextTag(
      data::DatasetFingerprint(ds), nn::ParameterFingerprint(embedder));
  std::vector<uint64_t> all_keys;
  all_keys.reserve(pool_pairs.size());
  for (const auto& p : pool_pairs) {
    all_keys.push_back(
        em::EmbeddingCache::PairKey(tag, p.left_index, p.right_index));
  }

  int64_t embeds_requested = 0;
  size_t hits = 0;
  size_t misses = 0;
  for (auto _ : state) {
    // A fresh cache per sweep: round 1 pays every miss, later rounds hit
    // — exactly what one self-training run (or one restart with a
    // persisted file absent) experiences.
    em::EmbeddingCache cache(1u << 12);
    std::vector<em::EncodedPair> pool = xs;
    std::vector<uint64_t> keys = all_keys;
    while (pool.size() > 8) {
      auto embeddings = em::EmbedBatchCached(embed, pool, {},
                                             cached ? &cache : nullptr, keys);
      benchmark::DoNotOptimize(embeddings);
      embeds_requested += static_cast<int64_t>(pool.size());
      // Self-training takes confident pairs out of the pool each round;
      // the fixed 20% take-rate stands in for the confidence threshold.
      const size_t keep = pool.size() - pool.size() / 5;
      pool.resize(keep);
      keys.resize(keep);
    }
    hits = cache.stats().hits;
    misses = cache.stats().misses;
  }
  state.SetItemsProcessed(embeds_requested);
  state.counters["cached"] = cached ? 1 : 0;
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_misses"] = static_cast<double>(misses);
}
BENCHMARK(BM_SelfTrainCached)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1);

/// Re-match cost after a delta of Arg(0) changed records, through
/// em::IncrementalMatcher over the 10k-row synthetic workload. The
/// counters are the claim: `rescored` stays O(delta x candidates-per-
/// record) while `reused` carries the rest of the candidate set, and
/// `candidates` ~ `full_candidates` shows the blocker still streams the
/// full set (scoring, not blocking, is what the cache saves).
void BM_IncrementalMatch(benchmark::State& state) {
  const int delta_records = static_cast<int>(state.range(0));
  data::SyntheticTableOptions options;
  options.rows = 10000;
  options.seed = 42;
  const data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  data::GemDataset ds;
  ds.left_table = tables.left;
  ds.right_table = tables.right;

  // The same deterministic hash-stub scorer as BM_BlockScoreMatch: this
  // bench prices the delta machinery, not model forwards (which would
  // only widen the rescored-vs-reused gap).
  const em::IncrementalMatcher::ScorerFactory scorer_factory =
      [](const data::GemDataset&) {
        return em::ChunkScoreFn(
            [](const std::vector<data::PairExample>& chunk) {
              std::vector<em::ProbPair> probs(chunk.size());
              for (size_t i = 0; i < chunk.size(); ++i) {
                const uint64_t h =
                    ((static_cast<uint64_t>(static_cast<uint32_t>(
                          chunk[i].left_index))
                      << 32) ^
                     static_cast<uint32_t>(chunk[i].right_index)) *
                    0x9E3779B97F4A7C15ULL;
                const float pos =
                    static_cast<float>((h >> 40) & 0xFFFF) / 65535.0f;
                probs[i] = {1.0f - pos, pos};
              }
              return probs;
            });
      };
  em::IncrementalMatcher::BlockerFactory blocker_factory =
      [](const data::GemDataset& d) {
        return std::unique_ptr<data::Blocker>(
            std::make_unique<data::MinHashBlocker>(d.left_table,
                                                   d.right_table));
      };
  em::IncrementalMatcher::Config config;
  config.pipeline.chunk_size = 8192;
  em::IncrementalMatcher matcher(std::move(ds), scorer_factory,
                                 std::move(blocker_factory), config);
  const auto full = matcher.FullMatch();
  benchmark::DoNotOptimize(full.matches);
  const size_t full_candidates = matcher.last_stats().candidates;

  const auto right_rows =
      static_cast<int>(matcher.dataset().right_table.size());
  for (auto _ : state) {
    em::RecordDelta delta;
    delta.upserts.reserve(static_cast<size_t>(delta_records));
    for (int i = 0; i < delta_records; ++i) {
      em::RecordUpsert up;
      up.left = false;
      up.index = (i * 37) % right_rows;
      up.record = matcher.dataset().right_table[static_cast<size_t>(up.index)];
      delta.upserts.push_back(std::move(up));
    }
    auto result = matcher.ApplyDelta(delta);
    benchmark::DoNotOptimize(result.matches);
  }
  state.counters["delta"] = delta_records;
  state.counters["candidates"] =
      static_cast<double>(matcher.last_stats().candidates);
  state.counters["rescored"] =
      static_cast<double>(matcher.last_stats().rescored);
  state.counters["reused"] = static_cast<double>(matcher.last_stats().reused);
  state.counters["full_candidates"] = static_cast<double>(full_candidates);
}
BENCHMARK(BM_IncrementalMatch)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256);

void BM_TdMatchPpr(benchmark::State& state) {
  data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHeter, 42);
  baselines::TdMatchGraph graph(ds);
  for (auto _ : state) {
    auto ppr = graph.Ppr(graph.LeftNode(0));
    benchmark::DoNotOptimize(ppr);
  }
  state.counters["nodes"] = graph.num_nodes();
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_TdMatchPpr);

}  // namespace

/// BENCHMARK_MAIN, except that when the caller did not ask for a report
/// file the JSON goes to BENCH_micro.json in the working directory — and
/// that default recording is refused unless this binary was configured as
/// a plain Release build (tools/run_bench.sh is the supported recorder).
/// An explicit --benchmark_out is always honored. --benchmark_list_tests
/// runs nothing, so it gets no default report: libbenchmark would open
/// (and so truncate) the report file even then.
int main(int argc, char** argv) {
  const std::string build_type = PROMPTEM_BENCH_BUILD_TYPE;
  const std::string sanitize = PROMPTEM_BENCH_SANITIZE;
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool listing = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark_out", 0) == 0) has_out = true;
    if (arg.rfind("--benchmark_list_tests", 0) == 0) listing = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out && !listing) {
    if (build_type != "Release" || !sanitize.empty()) {
      std::fprintf(stderr,
                   "bench_micro_kernels: refusing to record "
                   "BENCH_micro.json from a '%s'%s%s build; use "
                   "tools/run_bench.sh, or pass --benchmark_out=... to "
                   "write elsewhere.\n",
                   build_type.c_str(),
                   sanitize.empty() ? "" : " + sanitizer=",
                   sanitize.c_str());
      return 1;
    }
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  // The system libbenchmark's library_build_type reflects how the
  // *library* was compiled; this stamp records how *this project* was.
  benchmark::AddCustomContext("promptem_build_type", build_type);
  if (!sanitize.empty()) {
    benchmark::AddCustomContext("promptem_sanitize", sanitize);
  }
  // Which GEMM path the unpinned benchmarks actually ran (the BM_*Scalar
  // twins pin kScalar regardless); see promptem_cli --kernel-info.
  benchmark::AddCustomContext(
      "promptem_kernel_variant",
      tensor::kernels::KernelVariantName(
          tensor::kernels::ActiveKernelVariant()));
  benchmark::AddCustomContext(
      "promptem_cpu_avx2",
      tensor::kernels::CpuSupportsAvx2() ? "yes" : "no");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
