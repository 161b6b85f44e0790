// Tests for the streaming candidate pipeline: the Blocker streaming
// contract (chunk-size and pool-size invariance, the unlabeled-candidate
// sentinel), the seeded synthetic table generator, MinHash-LSH blocking
// recall, and em::MatchPipeline's bitwise parity with one-shot ScoreBatch
// over the same candidates. Runs under both sanitizer wirings and the
// `pipeline` ctest label.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hashing.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/benchmarks.h"
#include "data/blocking.h"
#include "data/serializer.h"
#include "data/synthetic.h"
#include "lm/pretrained_lm.h"
#include "pipeline/match_pipeline.h"
#include "promptem/finetune_model.h"
#include "promptem/metrics.h"
#include "promptem/promptem.h"
#include "promptem/scoring.h"
#include "promptem/uncertainty.h"
#include "text/vocab.h"

namespace promptem {
namespace {

const lm::PretrainedLM& FixtureLM() {
  static const lm::PretrainedLM* kLm = [] {
    auto loaded =
        lm::PretrainedLM::Load("tests/data/promptem_integration_lm");
    if (!loaded.ok()) {
      std::fprintf(stderr,
                   "fixture LM missing (%s); tests must run from the repo "
                   "root\n",
                   loaded.status().ToString().c_str());
      std::abort();
    }
    return loaded.value().release();
  }();
  return *kLm;
}

/// Pool-size override scoped to one expression.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : saved_(core::GetNumThreads()) {
    core::SetNumThreads(n);
  }
  ~ScopedThreads() { core::SetNumThreads(saved_); }

 private:
  int saved_;
};

/// Drains `blocker` pulling `chunk` candidates at a time, checking the
/// NextChunk contract along the way.
std::vector<data::PairExample> DrainWithChunk(data::Blocker* blocker,
                                              size_t chunk) {
  blocker->Reset();
  std::vector<data::PairExample> all;
  std::vector<data::PairExample> buf;
  while (true) {
    buf.clear();
    const size_t n = blocker->NextChunk(chunk, &buf);
    EXPECT_EQ(n, buf.size());
    EXPECT_LE(n, chunk);
    if (n == 0) break;
    all.insert(all.end(), buf.begin(), buf.end());
  }
  return all;
}

bool SamePairs(const std::vector<data::PairExample>& a,
               const std::vector<data::PairExample>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].left_index != b[i].left_index ||
        a[i].right_index != b[i].right_index || a[i].label != b[i].label) {
      return false;
    }
  }
  return true;
}

std::vector<data::PairExample> GoldPositives(const data::GemDataset& ds) {
  std::vector<data::PairExample> gold;
  for (const auto* pairs : {&ds.train, &ds.valid, &ds.test}) {
    for (const auto& p : *pairs) {
      if (p.label == 1) gold.push_back(p);
    }
  }
  return gold;
}

// ---------------------------------------------------------------------------
// Blocker streaming contract
// ---------------------------------------------------------------------------

TEST(BlockerTest, AllPairsStreamsRowMajorCrossProduct) {
  data::AllPairsBlocker blocker(7, 5);
  const auto all = DrainWithChunk(&blocker, 4);
  ASSERT_EQ(all.size(), 35u);
  size_t i = 0;
  for (int l = 0; l < 7; ++l) {
    for (int r = 0; r < 5; ++r, ++i) {
      EXPECT_EQ(all[i].left_index, l);
      EXPECT_EQ(all[i].right_index, r);
      EXPECT_EQ(all[i].label, data::kUnlabeledLabel);
    }
  }
  blocker.Reset();
  EXPECT_TRUE(SamePairs(blocker.Drain(), all));
}

TEST(BlockerTest, EveryBlockerEmitsTheUnlabeledSentinel) {
  const data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 7);
  data::AllPairsBlocker allpairs(3, 3);
  data::OverlapBlocker overlap(ds.left_table, ds.right_table);
  data::MinHashBlocker minhash(ds.left_table, ds.right_table);
  for (data::Blocker* blocker :
       std::vector<data::Blocker*>{&allpairs, &overlap, &minhash}) {
    const auto candidates = DrainWithChunk(blocker, 64);
    ASSERT_FALSE(candidates.empty()) << blocker->Name();
    for (const auto& p : candidates) {
      ASSERT_EQ(p.label, data::kUnlabeledLabel) << blocker->Name();
    }
  }
}

TEST(BlockerTest, StreamIsChunkSizeInvariant) {
  const data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 7);
  data::OverlapBlocker overlap(ds.left_table, ds.right_table);
  data::MinHashBlocker minhash(ds.left_table, ds.right_table);
  for (data::Blocker* blocker :
       std::vector<data::Blocker*>{&overlap, &minhash}) {
    const auto reference = DrainWithChunk(blocker, 1u << 20);
    ASSERT_FALSE(reference.empty()) << blocker->Name();
    for (const size_t chunk : {size_t{1}, size_t{3}, size_t{17}}) {
      EXPECT_TRUE(SamePairs(DrainWithChunk(blocker, chunk), reference))
          << blocker->Name() << " chunk=" << chunk;
    }
  }
}

TEST(BlockerTest, StreamIsPoolSizeInvariant) {
  const data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 7);
  // The pool size is pinned across *construction* too: tokenization /
  // signature builds are part of the determinism contract.
  auto stream = [&ds](int threads, bool use_minhash) {
    ScopedThreads scoped(threads);
    if (use_minhash) {
      data::MinHashBlocker blocker(ds.left_table, ds.right_table);
      return blocker.Drain();
    }
    data::OverlapBlocker blocker(ds.left_table, ds.right_table);
    return blocker.Drain();
  };
  for (const bool use_minhash : {false, true}) {
    const auto serial = stream(1, use_minhash);
    ASSERT_FALSE(serial.empty());
    EXPECT_TRUE(SamePairs(stream(4, use_minhash), serial));
    EXPECT_TRUE(SamePairs(stream(3, use_minhash), serial));
  }
}

// ---------------------------------------------------------------------------
// Synthetic workload generator
// ---------------------------------------------------------------------------

TEST(SyntheticTest, GoldMappingIsConsistent) {
  data::SyntheticTableOptions options;
  options.rows = 400;
  options.seed = 11;
  const data::SyntheticTables tables =
      data::GenerateSyntheticTables(options);
  ASSERT_EQ(tables.left.size(), 400u);
  ASSERT_EQ(tables.right.size(), 440u);  // +10% distractors
  ASSERT_EQ(tables.right_of_left.size(), tables.left.size());
  ASSERT_EQ(tables.left_of_right.size(), tables.right.size());
  size_t matched_rights = 0;
  for (int l = 0; l < 400; ++l) {
    const int r = tables.right_of_left[static_cast<size_t>(l)];
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 440);
    EXPECT_EQ(tables.left_of_right[static_cast<size_t>(r)], l);
    EXPECT_EQ(tables.GoldLabel(l, r), 1);
    EXPECT_EQ(tables.GoldLabel(l, (r + 1) % 440), 0);
  }
  for (const int l : tables.left_of_right) {
    if (l >= 0) ++matched_rights;
  }
  EXPECT_EQ(matched_rights, 400u);
  EXPECT_EQ(tables.GoldMatches().size(), 400u);
}

TEST(SyntheticTest, GenerationIsSeededAndPoolSizeInvariant) {
  data::SyntheticTableOptions options;
  options.rows = 300;
  options.seed = 5;
  auto generate = [&options](int threads) {
    ScopedThreads scoped(threads);
    return data::GenerateSyntheticTables(options);
  };
  const data::SyntheticTables a = generate(1);
  const data::SyntheticTables b = generate(4);
  ASSERT_EQ(a.right_of_left, b.right_of_left);
  for (size_t i = 0; i < a.left.size(); ++i) {
    ASSERT_EQ(data::SerializeRecord(a.left[i]),
              data::SerializeRecord(b.left[i]));
  }
  for (size_t i = 0; i < a.right.size(); ++i) {
    ASSERT_EQ(data::SerializeRecord(a.right[i]),
              data::SerializeRecord(b.right[i]));
  }
  // A different seed produces different content.
  options.seed = 6;
  const data::SyntheticTables c = data::GenerateSyntheticTables(options);
  EXPECT_NE(data::SerializeRecord(a.left[0]),
            data::SerializeRecord(c.left[0]));
}

TEST(SyntheticTest, ToDatasetSamplesLabeledGoldPairs) {
  data::SyntheticTableOptions options;
  options.rows = 200;
  options.seed = 9;
  data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  const data::GemDataset ds = tables.ToDataset(/*pairs_per_split=*/50, 13);
  EXPECT_TRUE(tables.left.empty());  // tables moved into the dataset
  EXPECT_EQ(ds.left_table.size(), 200u);
  EXPECT_EQ(ds.right_table.size(), 220u);
  for (const auto* pairs : {&ds.train, &ds.valid, &ds.test}) {
    ASSERT_FALSE(pairs->empty());
    size_t positives = 0;
    for (const auto& p : *pairs) {
      ASSERT_GE(p.left_index, 0);
      ASSERT_LT(p.left_index, 200);
      ASSERT_GE(p.right_index, 0);
      ASSERT_LT(p.right_index, 220);
      // The gold mapping survives the move and agrees with the labels.
      ASSERT_EQ(p.label, tables.GoldLabel(p.left_index, p.right_index));
      positives += p.label == 1;
    }
    EXPECT_GT(positives, 0u);
    EXPECT_LT(positives, pairs->size());
  }
}

// ---------------------------------------------------------------------------
// Blocking quality
// ---------------------------------------------------------------------------

TEST(MinHashBlockerTest, RecallOnSyntheticWorkload) {
  data::SyntheticTableOptions options;
  options.rows = 2000;
  options.seed = 42;
  const data::SyntheticTables tables =
      data::GenerateSyntheticTables(options);
  data::MinHashBlocker blocker(tables.left, tables.right);
  const data::BlockingQuality quality =
      data::EvaluateBlockingStream(&blocker, tables.GoldMatches());
  EXPECT_GE(quality.pair_completeness, 0.9);
  EXPECT_GE(quality.reduction_ratio, 0.9);
  EXPECT_GT(quality.num_candidates, 0u);
}

/// FNV-1a over the (left, right) indices of a drained candidate stream.
uint64_t StreamDigest(data::Blocker* blocker) {
  uint64_t hash = core::kFnv1aOffset;
  for (const auto& p : blocker->Drain()) {
    const int32_t ids[2] = {p.left_index, p.right_index};
    hash = core::Fnv1a64(ids, sizeof(ids), hash);
  }
  return hash;
}

// Pins the generator's and both blockers' built-in constants (shingle
// length, band layout, hash seed, bucket caps, stop-token frequency,
// distractor share, perturbation rate) across commits: the backend
// parity tests compare backends that read the same constants, so only
// a golden value catches a drifted default.
TEST(BlockingGoldenTest, DefaultStreamsAreStable) {
  data::SyntheticTableOptions options;
  options.rows = 600;
  options.seed = 7;
  const data::SyntheticTables tables =
      data::GenerateSyntheticTables(options);
  data::GemDataset ds;
  ds.left_table = tables.left;
  ds.right_table = tables.right;
  EXPECT_EQ(data::DatasetFingerprint(ds), 16842860938628339710ull);

  data::MinHashBlocker minhash(tables.left, tables.right);
  EXPECT_EQ(StreamDigest(&minhash), 9038265909697079073ull);
  data::OverlapBlocker overlap(tables.left, tables.right);
  EXPECT_EQ(StreamDigest(&overlap), 5084022936426442319ull);
}

/// StreamDigest of an already drained stream.
uint64_t PairsDigest(const std::vector<data::PairExample>& stream) {
  uint64_t hash = core::kFnv1aOffset;
  for (const auto& p : stream) {
    const int32_t ids[2] = {p.left_index, p.right_index};
    hash = core::Fnv1a64(ids, sizeof(ids), hash);
  }
  return hash;
}

// The band-key memo must never serve a changed record its old keys: a
// rebuild after a few records change gives the stream pinned below
// (recorded before band keys were memoized) at every pool size, and
// recomputes the keys of the changed contents only.
TEST(MinHashBlockerTest, RebuildAfterPerturbationMatchesPinnedStream) {
  data::SyntheticTableOptions options;
  options.rows = 400;
  options.seed = 11;
  data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  {
    data::MinHashBlocker warm(tables.left, tables.right);
    warm.Drain();
    // An empty record's keys are one constant that an earlier test may
    // already have memoized; memoizing it here keeps the count below
    // independent of test order.
    const std::vector<data::Record> empty(1, data::Record::Relational({}));
    data::MinHashBlocker warm_empty(empty, empty);
  }
  constexpr size_t kPerturbed = 10;
  for (size_t i = 0; i < kPerturbed; ++i) {
    tables.right[13 + 37 * i].attrs.push_back(
        {"note", data::Value::Str("rev " + std::to_string(i))});
  }
  for (const size_t i : {size_t{7}, size_t{201}}) {
    tables.right[i] = data::Record::Relational({});
  }

  for (const int threads : {1, 3, 8}) {
    ScopedThreads scoped(threads);
    data::MinHashBlocker rebuilt(tables.left, tables.right);
    const std::vector<data::PairExample> stream = rebuilt.Drain();
    EXPECT_EQ(stream.size(), 1676u) << threads;
    EXPECT_EQ(PairsDigest(stream), 10060828686384959726ull) << threads;
    const data::MinHashBlocker::IndexStats stats = rebuilt.index_stats();
    EXPECT_EQ(stats.band_keys_computed + stats.band_keys_reused,
              tables.left.size() + tables.right.size());
    // The first rebuild computes the ten new contents (the two emptied
    // records share the memoized empty content); later ones reuse all.
    EXPECT_EQ(stats.band_keys_computed, threads == 1 ? kPerturbed : 0u)
        << threads;
  }
}

TEST(BlockingQualityTest, StreamMatchesOneShotEvaluation) {
  const data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 7);
  const auto gold = GoldPositives(ds);
  ASSERT_FALSE(gold.empty());
  data::OverlapBlocker blocker(ds.left_table, ds.right_table);
  const data::BlockingQuality one_shot = data::EvaluateBlocking(
      blocker.Drain(), gold, ds.left_table.size(), ds.right_table.size());
  const data::BlockingQuality streamed =
      data::EvaluateBlockingStream(&blocker, gold, /*chunk_size=*/13);
  EXPECT_DOUBLE_EQ(streamed.pair_completeness, one_shot.pair_completeness);
  EXPECT_DOUBLE_EQ(streamed.reduction_ratio, one_shot.reduction_ratio);
  EXPECT_EQ(streamed.num_candidates, one_shot.num_candidates);
}

// ---------------------------------------------------------------------------
// Unlabeled-candidate sentinel
// ---------------------------------------------------------------------------

TEST(SentinelTest, MetricsSkipUnlabeledGold) {
  em::Metrics m;
  m.Count(1, data::kUnlabeledLabel);
  m.Count(0, data::kUnlabeledLabel);
  m.Count(1, 1);
  m.Count(0, 1);
  m.Count(1, 0);
  m.Count(0, 0);
  EXPECT_EQ(m.TotalCounted(), 4);
  EXPECT_EQ(m.tp, 1);
  EXPECT_EQ(m.fn, 1);
  EXPECT_EQ(m.fp, 1);
  EXPECT_EQ(m.tn, 1);

  const em::Metrics computed = em::ComputeMetrics(
      {1, 1, 0}, {data::kUnlabeledLabel, 1, data::kUnlabeledLabel});
  EXPECT_EQ(computed.TotalCounted(), 1);
  EXPECT_EQ(computed.tp, 1);
}

TEST(SentinelTest, El2nPruningRejectsUnlabeledPairs) {
  core::Rng rng(1);
  em::FinetuneModel model(FixtureLM(), &rng);
  std::vector<em::EncodedPair> xs(2);
  xs[0].left_ids = {7, 8, 9};
  xs[0].right_ids = {7, 8, 9};
  xs[0].label = 1;
  xs[1] = xs[0];
  xs[1].label = data::kUnlabeledLabel;
  core::Rng mc_rng(2);
  EXPECT_DEATH(em::McEl2nScoreBatch(&model, xs, 2, &mc_rng),
               "rejects unlabeled");
}

// ---------------------------------------------------------------------------
// MatchPipeline
// ---------------------------------------------------------------------------

TEST(MatchPipelineTest, ChunkedScoringBitwiseEqualsOneShot) {
  const data::GemDataset ds =
      data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 7);
  core::Rng rng(3);
  em::FinetuneModel model(FixtureLM(), &rng);
  em::PairEncoder encoder = em::MakePairEncoder(FixtureLM(), ds);

  data::AllPairsBlocker blocker(10, 8);
  const auto candidates = DrainWithChunk(&blocker, 1u << 20);
  const std::vector<em::ProbPair> reference =
      em::ScoreBatch(&model, encoder.EncodeAll(ds, candidates));

  const em::ChunkScoreFn scorer =
      em::MakeClassifierChunkScorer(&model, &encoder, &ds);
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{128}}) {
    for (const int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      std::vector<em::ProbPair> streamed;
      em::MatchPipelineConfig config;
      config.chunk_size = chunk;
      config.on_scored = [&streamed](const data::PairExample&,
                                     em::ProbPair p) {
        streamed.push_back(p);
      };
      em::MatchPipeline pipeline(&blocker, scorer, config);
      const em::MatchPipelineResult result = pipeline.Run();
      EXPECT_EQ(result.candidates, reference.size());
      EXPECT_LE(result.max_chunk, chunk);  // the memory bound
      ASSERT_EQ(streamed.size(), reference.size())
          << "chunk=" << chunk << " threads=" << threads;
      for (size_t i = 0; i < reference.size(); ++i) {
        // Bitwise: ScoreBatch's eval forwards are per-sample
        // deterministic, so chunking cannot perturb a single bit.
        ASSERT_EQ(streamed[i][0], reference[i][0]) << i;
        ASSERT_EQ(streamed[i][1], reference[i][1]) << i;
      }
    }
  }
}

TEST(MatchPipelineTest, FoldIsChunkSizeInvariant) {
  data::SyntheticTableOptions options;
  options.rows = 300;
  options.seed = 21;
  const data::SyntheticTables tables =
      data::GenerateSyntheticTables(options);
  // Cheap deterministic stand-in for the model: probability from a hash
  // of the pair, so every chunk size sees identical per-pair scores.
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
  auto run = [&](size_t chunk) {
    data::MinHashBlocker blocker(tables.left, tables.right);
    em::MatchPipelineConfig config;
    config.chunk_size = chunk;
    config.top_k_matches = 25;
    // Label only even left rows, so the unlabeled path is exercised too.
    config.gold_label = [&tables](int l, int r) {
      return l % 2 == 0 ? tables.GoldLabel(l, r) : data::kUnlabeledLabel;
    };
    em::MatchPipeline pipeline(&blocker, scorer, config);
    return pipeline.Run();
  };
  const em::MatchPipelineResult reference = run(1u << 20);
  ASSERT_GT(reference.candidates, 0u);
  EXPECT_EQ(reference.labeled + reference.unlabeled, reference.candidates);
  EXPECT_EQ(static_cast<size_t>(reference.metrics.TotalCounted()),
            reference.labeled);
  ASSERT_EQ(reference.top_matches.size(), 25u);
  for (size_t i = 1; i < reference.top_matches.size(); ++i) {
    EXPECT_GE(reference.top_matches[i - 1].pos_prob,
              reference.top_matches[i].pos_prob);
  }
  for (const size_t chunk : {size_t{1}, size_t{17}, size_t{256}}) {
    const em::MatchPipelineResult r = run(chunk);
    EXPECT_EQ(r.candidates, reference.candidates) << chunk;
    EXPECT_EQ(r.matches, reference.matches) << chunk;
    EXPECT_EQ(r.labeled, reference.labeled) << chunk;
    EXPECT_EQ(r.metrics.tp, reference.metrics.tp) << chunk;
    EXPECT_EQ(r.metrics.fp, reference.metrics.fp) << chunk;
    EXPECT_EQ(r.metrics.tn, reference.metrics.tn) << chunk;
    EXPECT_EQ(r.metrics.fn, reference.metrics.fn) << chunk;
    ASSERT_EQ(r.top_matches.size(), reference.top_matches.size()) << chunk;
    for (size_t i = 0; i < r.top_matches.size(); ++i) {
      EXPECT_EQ(r.top_matches[i].left_index,
                reference.top_matches[i].left_index);
      EXPECT_EQ(r.top_matches[i].right_index,
                reference.top_matches[i].right_index);
      EXPECT_EQ(r.top_matches[i].pos_prob,
                reference.top_matches[i].pos_prob);
    }
  }
}

}  // namespace
}  // namespace promptem
