// Tests for the record-cache layer (DESIGN.md §13): core::ConcurrentCache
// semantics under capacity pressure and concurrent use, the PairEncoder
// memo's bitwise neutrality at every pool size / cache state / capacity,
// cached scoring and embedding sweeps' parity with their uncached twins,
// the EmbeddingCache save/load round-trip, and IncrementalMatcher's
// delta-equals-full contract with O(delta) re-scoring.
//
// The contract everywhere: a cache may only change who computes, never
// what is computed — every comparison below is exact (bitwise) equality.
// Runs under the `cache` ctest label and both sanitizer wirings.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_cache.h"
#include "core/hashing.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/benchmarks.h"
#include "data/blocking.h"
#include "data/serializer.h"
#include "data/synthetic.h"
#include "lm/pretrained_lm.h"
#include "pipeline/incremental.h"
#include "promptem/embed_cache.h"
#include "promptem/encoding.h"
#include "promptem/finetune_model.h"
#include "promptem/promptem.h"
#include "promptem/scoring.h"

namespace promptem {
namespace {

namespace fs = std::filesystem;

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

bool SameEncoded(const std::vector<em::EncodedPair>& a,
                 const std::vector<em::EncodedPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].left_ids != b[i].left_ids || a[i].right_ids != b[i].right_ids ||
        a[i].label != b[i].label) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// core::ConcurrentCache semantics.
// ---------------------------------------------------------------------------

TEST(ConcurrentCacheTest, FindMissThenInsertHit) {
  core::ConcurrentCache<int> cache(16);
  EXPECT_EQ(cache.Find(7u), nullptr);
  cache.Insert(7u, 42);
  auto hit = cache.Find(7u);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ConcurrentCacheTest, FirstInsertWinsForSameKey) {
  // Duplicate inserts keep the existing value (callers cache pure
  // functions of the key, so a racing double-compute is bitwise
  // identical; first-wins makes the race harmless and cheap).
  core::ConcurrentCache<int> cache(16);
  auto first = cache.Insert(7u, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, 1);
  auto second = cache.Insert(7u, 2);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 1);
  auto hit = cache.Find(7u);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(cache.LiveEntries(), 1u);
  // Erase + reinsert is the way to replace a value.
  cache.Erase(7u);
  cache.Insert(7u, 2);
  EXPECT_EQ(*cache.Find(7u), 2);
}

TEST(ConcurrentCacheTest, CapacityBoundHolds) {
  // One shard so the bound is exact, not per-shard.
  core::ConcurrentCache<int> cache(16, 1);
  for (uint64_t k = 0; k < 128; ++k) {
    cache.Insert(k, static_cast<int>(k));
  }
  EXPECT_LE(cache.LiveEntries(), 16u);
  EXPECT_GE(cache.stats().evictions, 128u - 16u);
  // Whatever survived must still map key -> value correctly.
  size_t found = 0;
  for (uint64_t k = 0; k < 128; ++k) {
    if (auto hit = cache.Find(k)) {
      EXPECT_EQ(*hit, static_cast<int>(k));
      ++found;
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_LE(found, 16u);
}

TEST(ConcurrentCacheTest, ClockKeepsHotEntryUnderPressure) {
  core::ConcurrentCache<int> cache(8, 1);
  const uint64_t hot = 9999u;
  cache.Insert(hot, -1);
  for (uint64_t k = 0; k < 256; ++k) {
    cache.Insert(k, static_cast<int>(k));
    // Re-reference the hot key every step: second-chance eviction must
    // pass over it while cold fillers churn.
    auto hit = cache.Find(hot);
    ASSERT_NE(hit, nullptr) << "hot entry evicted after filler " << k;
    EXPECT_EQ(*hit, -1);
  }
}

TEST(ConcurrentCacheTest, InvalidateDropsEverything) {
  core::ConcurrentCache<int> cache(32);
  for (uint64_t k = 0; k < 20; ++k) cache.Insert(k, static_cast<int>(k));
  EXPECT_GT(cache.LiveEntries(), 0u);
  cache.Invalidate();
  EXPECT_EQ(cache.LiveEntries(), 0u);
  for (uint64_t k = 0; k < 20; ++k) EXPECT_EQ(cache.Find(k), nullptr);
  // The cache stays usable after invalidation.
  cache.Insert(3u, 33);
  auto hit = cache.Find(3u);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 33);
}

TEST(ConcurrentCacheTest, EraseKeepsOtherEntriesReachable) {
  // Single shard, capacity above the insert count: every entry stays
  // resident, so this exercises backward-shift deletion's probe repair.
  core::ConcurrentCache<int> cache(64, 1);
  for (uint64_t k = 0; k < 48; ++k) cache.Insert(k, static_cast<int>(k));
  for (uint64_t k = 0; k < 48; k += 2) cache.Erase(k);
  for (uint64_t k = 0; k < 48; ++k) {
    auto hit = cache.Find(k);
    if (k % 2 == 0) {
      EXPECT_EQ(hit, nullptr) << "erased key " << k << " still found";
    } else {
      ASSERT_NE(hit, nullptr) << "key " << k << " lost after erases";
      EXPECT_EQ(*hit, static_cast<int>(k));
    }
  }
}

TEST(ConcurrentCacheTest, GetOrComputeComputesOnceThenHits) {
  core::ConcurrentCache<int> cache(16);
  int computes = 0;
  for (int round = 0; round < 3; ++round) {
    auto value = cache.GetOrCompute(5u, [&] {
      ++computes;
      return 55;
    });
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, 55);
  }
  EXPECT_EQ(computes, 1);
}

TEST(ConcurrentCacheTest, SlotsGrowWithEntries) {
  // A big, mostly empty cache provisions slots for what it holds, not
  // for its capacity (which would be 2^21 slots here).
  core::ConcurrentCache<int> big(size_t{1} << 20);
  for (uint64_t k = 0; k < 1000; ++k) big.Insert(k, static_cast<int>(k));
  EXPECT_EQ(big.stats().entries, 1000u);
  EXPECT_LE(big.stats().slots, 4096u);
  for (uint64_t k = 0; k < 1000; ++k) {
    auto hit = big.Find(k);
    ASSERT_NE(hit, nullptr) << "key " << k << " lost while growing";
    EXPECT_EQ(*hit, static_cast<int>(k));
  }

  // Filled to capacity, a shard reaches its final size — twice the
  // capacity, rounded up to a power of two — and stays there.
  core::ConcurrentCache<int> full(1000, 1);
  for (uint64_t k = 0; k < 1000; ++k) full.Insert(k, static_cast<int>(k));
  EXPECT_EQ(full.stats().slots, 2048u);
  EXPECT_EQ(full.stats().evictions, 0u);
  for (uint64_t k = 1000; k < 3000; ++k) full.Insert(k, static_cast<int>(k));
  EXPECT_EQ(full.stats().slots, 2048u);
  EXPECT_EQ(full.stats().entries, 1000u);
}

TEST(ConcurrentCacheTest, ConcurrentInsertFindTortureIsCoherent) {
  // Self-validating values (value == f(key)): whatever interleaving the
  // pool produces, a Find may only ever observe the one correct value.
  // This is the suite's TSan target.
  core::ConcurrentCache<uint64_t> cache(512);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      core::Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = rng.NextU64(1024);
        switch (rng.NextU64(8)) {
          case 0:
            cache.Erase(key);
            break;
          case 1:
            if (auto hit = cache.Find(key)) {
              ASSERT_EQ(*hit, core::Mix64(key));
            }
            break;
          case 2:
            if (t == 0 && i % 4096 == 0) {
              cache.Invalidate();
            }
            break;
          default: {
            auto value =
                cache.GetOrCompute(key, [key] { return core::Mix64(key); });
            ASSERT_NE(value, nullptr);
            ASSERT_EQ(*value, core::Mix64(key));
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (uint64_t key = 0; key < 1024; ++key) {
    if (auto hit = cache.Find(key)) {
      EXPECT_EQ(*hit, core::Mix64(key));
    }
  }
}

// ---------------------------------------------------------------------------
// PairEncoder memo: parallel EncodeAll must be bitwise neutral.
// ---------------------------------------------------------------------------

data::GemDataset EncoderDataset() {
  return data::GenerateBenchmark(data::BenchmarkKind::kSemiHomo, 42);
}

std::vector<data::PairExample> EncoderPool(const data::GemDataset& ds) {
  std::vector<data::PairExample> pool = ds.train;
  pool.insert(pool.end(), ds.valid.begin(), ds.valid.end());
  return pool;
}

TEST(PairEncoderCacheTest, EncodeAllPoolSizeInvariant) {
  const data::GemDataset ds = EncoderDataset();
  const std::vector<data::PairExample> pool = EncoderPool(ds);
  ASSERT_FALSE(pool.empty());
  std::vector<em::EncodedPair> baseline;
  {
    ScopedThreads scoped(1);
    em::PairEncoder encoder = em::MakePairEncoder(FixtureLM(), ds);
    baseline = encoder.EncodeAll(ds, pool);
  }
  for (int threads : {2, 3, 8}) {
    ScopedThreads scoped(threads);
    em::PairEncoder encoder = em::MakePairEncoder(FixtureLM(), ds);
    // Cold memo.
    EXPECT_TRUE(SameEncoded(encoder.EncodeAll(ds, pool), baseline))
        << "cold encode differs at " << threads << " threads";
    // Warm memo (every record hits).
    EXPECT_TRUE(SameEncoded(encoder.EncodeAll(ds, pool), baseline))
        << "warm encode differs at " << threads << " threads";
    EXPECT_GT(encoder.cache_stats().hits, 0u);
  }
}

TEST(PairEncoderCacheTest, TinyCapacityStillBitwiseCorrect) {
  const data::GemDataset ds = EncoderDataset();
  const std::vector<data::PairExample> pool = EncoderPool(ds);
  em::PairEncoder reference = em::MakePairEncoder(FixtureLM(), ds);
  const std::vector<em::EncodedPair> baseline =
      reference.EncodeAll(ds, pool);
  // Capacity 4 cannot hold even one chunk's records: constant eviction,
  // identical output.
  em::PairEncoder tiny(&FixtureLM().vocab(), reference.per_side_budget(), 4);
  tiny.FitSummarizer(ds);
  ScopedThreads scoped(4);
  EXPECT_TRUE(SameEncoded(tiny.EncodeAll(ds, pool), baseline));
  EXPECT_TRUE(SameEncoded(tiny.EncodeAll(ds, pool), baseline));
  EXPECT_GT(tiny.cache_stats().evictions, 0u);
}

TEST(PairEncoderCacheTest, IdentityTokenPreventsStaleServing) {
  const text::Vocab& vocab = FixtureLM().vocab();
  em::PairEncoder encoder(&vocab, 32);
  const data::PairExample pair{0, 0, 1};

  auto make_ds = [](const std::string& title) {
    data::GemDataset ds;
    ds.left_table.push_back(
        data::Record::Relational({{"title", data::Value::Str(title)}}));
    ds.right_table.push_back(
        data::Record::Relational({{"title", data::Value::Str("anchor")}}));
    return ds;
  };

  // Encode against a dataset, destroy it, then encode a different record
  // through a fresh (possibly same-address) dataset: the identity token
  // must keep the memo entries apart.
  em::EncodedPair first;
  {
    data::GemDataset ds1 = make_ds("alpha beta gamma");
    first = encoder.Encode(ds1, pair);
  }
  data::GemDataset ds2 = make_ds("delta epsilon");
  const em::EncodedPair second = encoder.Encode(ds2, pair);
  em::PairEncoder fresh(&vocab, 32);
  const em::EncodedPair expected = fresh.Encode(ds2, pair);
  EXPECT_EQ(second.left_ids, expected.left_ids);
  EXPECT_NE(second.left_ids, first.left_ids);

  // A copy shares identity (tables identical), so it hits the same
  // entries; after an in-place edit, RefreshCacheIdentity must stop the
  // stale encoding from being served.
  data::GemDataset ds3 = ds2;
  EXPECT_EQ(ds3.cache_identity, ds2.cache_identity);
  ds3.left_table[0] =
      data::Record::Relational({{"title", data::Value::Str("zeta eta")}});
  ds3.RefreshCacheIdentity();
  const em::EncodedPair edited = encoder.Encode(ds3, pair);
  em::PairEncoder fresh2(&vocab, 32);
  EXPECT_EQ(edited.left_ids, fresh2.Encode(ds3, pair).left_ids);

  // In-place mutation without a new identity: InvalidateRecord is the
  // targeted escape hatch (the incremental matcher's upsert path).
  ds3.left_table[0] =
      data::Record::Relational({{"title", data::Value::Str("theta iota")}});
  encoder.InvalidateRecord(ds3, /*left=*/true, 0);
  const em::EncodedPair mutated = encoder.Encode(ds3, pair);
  em::PairEncoder fresh3(&vocab, 32);
  EXPECT_EQ(mutated.left_ids, fresh3.Encode(ds3, pair).left_ids);
}

// ---------------------------------------------------------------------------
// Cached scoring/embedding sweeps: bitwise parity with the uncached twins.
// ---------------------------------------------------------------------------

std::vector<em::EncodedPair> ScoringFixture(const data::GemDataset& ds,
                                            size_t n) {
  em::PairEncoder encoder = em::MakePairEncoder(FixtureLM(), ds);
  std::vector<data::PairExample> pool = EncoderPool(ds);
  pool.resize(std::min(pool.size(), n));
  return encoder.EncodeAll(ds, pool);
}

TEST(CachedScoringTest, ScoreThroughCacheBitwiseParity) {
  const data::GemDataset ds = EncoderDataset();
  std::vector<data::PairExample> pairs = EncoderPool(ds);
  pairs.resize(std::min<size_t>(pairs.size(), 12));
  ASSERT_FALSE(pairs.empty());
  const em::PairEncoder encoder = em::MakePairEncoder(FixtureLM(), ds);
  core::Rng rng(5);
  em::FinetuneModel model(FixtureLM(), &rng);
  size_t scored = 0;
  const em::ChunkScoreFn score =
      [&](const std::vector<data::PairExample>& chunk) {
        scored += chunk.size();
        return em::ScoreBatch(&model, encoder.EncodeAll(ds, chunk));
      };
  std::vector<em::ProbPair> baseline;
  {
    ScopedThreads scoped(1);
    baseline = score(pairs);
  }
  const uint64_t tag = em::EmbeddingCache::ContextTag(0xABCDu, 0x1u);
  const auto stable = [tag](const data::PairExample& p) {
    em::ScoreCacheKeys keys;
    keys.ram = core::Combine64(0xABCDu, em::EmbeddingCache::PairKey(
                                            0, p.left_index, p.right_index));
    keys.store = em::EmbeddingCache::PairKey(tag, p.left_index, p.right_index);
    return keys;
  };
  // Runs one sweep; checks the result and that hits + scored == pairs.
  const auto check = [&](const std::vector<data::PairExample>& batch,
                         const em::ScoreCacheTiers& tiers, const auto& key_of,
                         const std::string& what) {
    em::ScoreCacheCounts counts;
    scored = 0;
    const std::vector<em::ProbPair> probs =
        em::ScoreThroughCache(batch, key_of, tiers, score, &counts);
    EXPECT_EQ(counts.scored, scored) << what;
    EXPECT_EQ(counts.hits + counts.scored, batch.size()) << what;
    // Every batch is a prefix of `pairs`.
    EXPECT_EQ(probs, std::vector<em::ProbPair>(
                         baseline.begin(), baseline.begin() + batch.size()))
        << what;
    return counts;
  };

  // No tier at all: exactly the uncached sweep.
  EXPECT_EQ(check(pairs, {}, stable, "no cache").scored, pairs.size());
  const std::vector<data::PairExample> half(pairs.begin(),
                                            pairs.begin() + pairs.size() / 2);
  for (int threads : {1, 3}) {
    ScopedThreads scoped(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";
    // RAM tier: cold (all miss), warm (all hit), partial (prefix filled).
    core::ConcurrentCache<em::ProbPair> ram(1u << 10);
    EXPECT_EQ(check(pairs, {&ram, nullptr}, stable, "cold" + at).hits, 0u);
    EXPECT_EQ(check(pairs, {&ram, nullptr}, stable, "warm" + at).hits,
              pairs.size());
    core::ConcurrentCache<em::ProbPair> partial(1u << 10);
    check(half, {&partial, nullptr}, stable, "prefix" + at);
    EXPECT_EQ(check(pairs, {&partial, nullptr}, stable, "partial" + at).hits,
              half.size());

    // Store tier: scores persist as 2-float entries; a store hit is
    // promoted into an empty RAM tier, which then serves alone.
    em::EmbeddingCache store(1u << 10);
    EXPECT_EQ(check(pairs, {nullptr, &store}, stable, "store cold" + at).hits,
              0u);
    EXPECT_EQ(store.LiveEntries(), pairs.size());
    core::ConcurrentCache<em::ProbPair> promoted(1u << 10);
    EXPECT_EQ(
        check(pairs, {&promoted, &store}, stable, "store warm" + at).hits,
        pairs.size());
    EXPECT_EQ(check(pairs, {&promoted, nullptr}, stable, "promoted" + at).hits,
              pairs.size());
  }
  // Pairs without a store key never touch the store.
  em::EmbeddingCache untouched(1u << 10);
  core::ConcurrentCache<em::ProbPair> ram(1u << 10);
  const auto unstable = [&stable](const data::PairExample& p) {
    em::ScoreCacheKeys keys = stable(p);
    keys.store.reset();
    return keys;
  };
  check(pairs, {&ram, &untouched}, unstable, "unstable");
  EXPECT_EQ(untouched.LiveEntries(), 0u);
  // Eviction-under-capacity: a 2-slot cache cannot hold the batch, and
  // must not change a single bit of the output.
  core::ConcurrentCache<em::ProbPair> tiny(2);
  check(pairs, {&tiny, nullptr}, stable, "tiny cold");
  check(pairs, {&tiny, nullptr}, stable, "tiny again");
  EXPECT_GT(tiny.stats().evictions, 0u);
}

TEST(CachedScoringTest, EmbedBatchCachedBitwiseParity) {
  const data::GemDataset ds = EncoderDataset();
  const std::vector<em::EncodedPair> xs = ScoringFixture(ds, 10);
  ASSERT_FALSE(xs.empty());
  core::Rng rng(6);
  em::FinetuneModel probe(FixtureLM(), &rng);
  probe.Eval();
  const em::PairEmbedFn embed = [&probe](const em::EncodedPair& x,
                                         core::Rng* r) {
    tensor::Tensor e = probe.PairEmbedding(x, r);
    return std::vector<float>(e.data(), e.data() + e.numel());
  };
  std::vector<std::vector<float>> baseline;
  {
    ScopedThreads scoped(1);
    baseline = em::EmbedBatch(embed, xs);
  }
  const uint64_t tag = em::EmbeddingCache::ContextTag(
      data::DatasetFingerprint(ds), 0x77u);
  std::vector<uint64_t> keys(xs.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = em::EmbeddingCache::PairKey(tag, static_cast<int>(i), 0);
  }
  EXPECT_EQ(em::EmbedBatchCached(embed, xs, {}, nullptr, keys), baseline);
  for (int threads : {1, 3}) {
    ScopedThreads scoped(threads);
    em::EmbeddingCache cache(1u << 10);
    EXPECT_EQ(em::EmbedBatchCached(embed, xs, {}, &cache, keys), baseline)
        << "cold at " << threads << " threads";
    EXPECT_EQ(em::EmbedBatchCached(embed, xs, {}, &cache, keys), baseline)
        << "warm at " << threads << " threads";
    EXPECT_EQ(cache.stats().hits, xs.size());
  }
  em::EmbeddingCache tiny(2);
  EXPECT_EQ(em::EmbedBatchCached(embed, xs, {}, &tiny, keys), baseline);
  EXPECT_EQ(em::EmbedBatchCached(embed, xs, {}, &tiny, keys), baseline);
  EXPECT_GT(tiny.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// EmbeddingCache persistence (the corruption sweep lives in
// fault_injection_test.cc; this is the happy path).
// ---------------------------------------------------------------------------

TEST(EmbeddingCacheTest, SaveAttachRoundTripIsBitwise) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "cache_test_roundtrip.embcache")
          .string();
  const std::string reversed_path = path + ".reversed";
  fs::remove(path);
  fs::remove(reversed_path);
  const uint64_t tag = em::EmbeddingCache::ContextTag(0x1111u, 0x2222u);
  core::Rng rng(9);
  std::vector<std::pair<uint64_t, std::vector<float>>> entries;
  for (int i = 0; i < 23; ++i) {
    std::vector<float> v(static_cast<size_t>(i % 9));  // includes dim 0
    for (auto& f : v) f = rng.Gaussian();
    entries.emplace_back(em::EmbeddingCache::PairKey(tag, i, i * 3 + 1),
                         std::move(v));
  }
  // Two writer "processes" inserting in opposite orders.
  {
    em::EmbeddingCache cache(64);
    em::EmbeddingCache reversed(64);
    ASSERT_EQ(cache.Attach(path).code(), core::StatusCode::kNotFound)
        << "cold start, binding live";
    ASSERT_EQ(reversed.Attach(reversed_path).code(),
              core::StatusCode::kNotFound);
    for (size_t i = 0; i < entries.size(); ++i) {
      cache.Insert(entries[i].first, entries[i].second);
      const auto& [key, v] = entries[entries.size() - 1 - i];
      reversed.Insert(key, v);
    }
    ASSERT_TRUE(cache.Save().ok());
    ASSERT_TRUE(reversed.Save().ok());
  }
  // Identical contents produce an identical byte image.
  std::ifstream a(path, std::ios::binary), b(reversed_path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a.substr(0, 8), "PEMHIDX1");
  EXPECT_EQ(bytes_a, bytes_b);

  // A reader "process" starts with an EMPTY in-process cache and faults
  // values in straight from the mapping.
  em::EmbeddingCache loaded(64);
  ASSERT_TRUE(loaded.Attach(path).ok());
  EXPECT_EQ(loaded.LiveEntries(), 0u);
  EXPECT_EQ(loaded.PersistedEntries(), entries.size());
  for (const auto& [key, v] : entries) {
    auto hit = loaded.Find(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, v);  // float-exact through the mapping
  }
  EXPECT_EQ(loaded.Find(em::EmbeddingCache::PairKey(tag, 999, 1000)),
            nullptr);
  fs::remove(path);
  fs::remove(reversed_path);
}

TEST(EmbeddingCacheTest, AttachMissingFileIsNotFound) {
  em::EmbeddingCache cache(16);
  core::Status st = cache.Attach(
      (fs::path(::testing::TempDir()) / "no_such.embcache").string());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), core::StatusCode::kNotFound);
  EXPECT_EQ(cache.PersistedEntries(), 0u);
}

TEST(EmbeddingCacheTest, KeysAreRestartStableComposites) {
  // Same fingerprints -> same keys (what makes persistence useful);
  // any differing component -> different keys (what makes it safe).
  const uint64_t tag = em::EmbeddingCache::ContextTag(1u, 2u);
  EXPECT_EQ(tag, em::EmbeddingCache::ContextTag(1u, 2u));
  EXPECT_NE(tag, em::EmbeddingCache::ContextTag(2u, 1u));
  EXPECT_EQ(em::EmbeddingCache::PairKey(tag, 3, 4),
            em::EmbeddingCache::PairKey(tag, 3, 4));
  EXPECT_NE(em::EmbeddingCache::PairKey(tag, 3, 4),
            em::EmbeddingCache::PairKey(tag, 4, 3));
  EXPECT_NE(em::EmbeddingCache::PairKey(tag, 3, 4),
            em::EmbeddingCache::PairKey(
                em::EmbeddingCache::ContextTag(1u, 3u), 3, 4));
}

// ---------------------------------------------------------------------------
// IncrementalMatcher: delta re-match == full re-match, at O(delta) cost.
// ---------------------------------------------------------------------------

em::ChunkScoreFn HashStubScorer() {
  return [](const std::vector<data::PairExample>& chunk) {
    std::vector<em::ProbPair> probs(chunk.size());
    for (size_t i = 0; i < chunk.size(); ++i) {
      const uint64_t h =
          ((static_cast<uint64_t>(
                static_cast<uint32_t>(chunk[i].left_index))
            << 32) ^
           static_cast<uint32_t>(chunk[i].right_index)) *
          0x9E3779B97F4A7C15ULL;
      const float pos = static_cast<float>((h >> 40) & 0xFFFF) / 65535.0f;
      probs[i] = {1.0f - pos, pos};
    }
    return probs;
  };
}

data::GemDataset SyntheticDataset() {
  data::SyntheticTableOptions options;
  options.rows = 300;
  options.seed = 42;
  data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  data::GemDataset ds;
  ds.left_table = std::move(tables.left);
  ds.right_table = std::move(tables.right);
  return ds;
}

std::unique_ptr<em::IncrementalMatcher> MakeMatcher(data::GemDataset ds) {
  const em::IncrementalMatcher::ScorerFactory scorer =
      [](const data::GemDataset&) { return HashStubScorer(); };
  em::IncrementalMatcher::BlockerFactory blocker =
      [](const data::GemDataset& d) {
        return std::unique_ptr<data::Blocker>(
            std::make_unique<data::MinHashBlocker>(d.left_table,
                                                   d.right_table));
      };
  return std::make_unique<em::IncrementalMatcher>(std::move(ds), scorer,
                                                  std::move(blocker));
}

bool SameResult(const em::MatchPipelineResult& a,
                const em::MatchPipelineResult& b) {
  if (a.candidates != b.candidates || a.matches != b.matches ||
      a.top_matches.size() != b.top_matches.size()) {
    return false;
  }
  for (size_t i = 0; i < a.top_matches.size(); ++i) {
    if (a.top_matches[i].left_index != b.top_matches[i].left_index ||
        a.top_matches[i].right_index != b.top_matches[i].right_index ||
        a.top_matches[i].pos_prob != b.top_matches[i].pos_prob) {
      return false;
    }
  }
  return true;
}

TEST(IncrementalMatcherTest, UpsertDeltaEqualsFullRematch) {
  data::GemDataset ds = SyntheticDataset();
  auto matcher = MakeMatcher(ds);  // copies ds
  matcher->FullMatch();

  // Replace three right records and one left record with other records'
  // content (a real edit), and append one new right record; mirror every
  // edit on the local copy.
  em::RecordDelta delta;
  for (int i : {5, 40, 111}) {
    em::RecordUpsert up;
    up.left = false;
    up.index = i;
    up.record = ds.right_table[static_cast<size_t>(i + 1)];
    ds.right_table[static_cast<size_t>(i)] = up.record;
    delta.upserts.push_back(std::move(up));
  }
  {
    em::RecordUpsert up;
    up.left = true;
    up.index = 17;
    up.record = ds.left_table[200];
    ds.left_table[17] = up.record;
    delta.upserts.push_back(std::move(up));
  }
  {
    em::RecordUpsert up;
    up.left = false;
    up.index = static_cast<int>(ds.right_table.size());
    up.record = ds.right_table[0];
    ds.right_table.push_back(up.record);
    delta.upserts.push_back(std::move(up));
  }

  const em::MatchPipelineResult incremental = matcher->ApplyDelta(delta);
  EXPECT_EQ(matcher->last_stats().changed_records, 5u);
  EXPECT_EQ(matcher->last_stats().reused + matcher->last_stats().rescored,
            matcher->last_stats().candidates);
  // The point of the exercise: almost everything was served from cache.
  EXPECT_LT(matcher->last_stats().rescored,
            matcher->last_stats().candidates / 4);
  EXPECT_GT(matcher->last_stats().reused, 0u);

  // A from-scratch matcher over the mutated tables must agree exactly.
  auto fresh = MakeMatcher(std::move(ds));
  const em::MatchPipelineResult full = fresh->FullMatch();
  EXPECT_TRUE(SameResult(incremental, full));
}

TEST(PairEncoderCacheTest, ConsecutiveIdentitiesShareOneEncoderSafely) {
  // Identities are small consecutive counters. Keys built from them must
  // not let one dataset's records stand in for another's at nearby
  // indexes, so two copies of one table — same records, index for index —
  // must each encode exactly as a private encoder would.
  data::GemDataset first = SyntheticDataset();
  first.RefreshCacheIdentity();
  data::GemDataset second = first;
  second.RefreshCacheIdentity();
  ASSERT_EQ(second.cache_identity, first.cache_identity + 1);
  std::vector<data::PairExample> pairs;
  for (int i = 0; i < static_cast<int>(first.left_table.size()); ++i) {
    pairs.push_back({i, static_cast<int>(first.right_table.size()) - 1 - i, 0});
  }
  const text::Vocab& vocab = FixtureLM().vocab();
  em::PairEncoder shared(&vocab, 32);
  const std::vector<em::EncodedPair> first_shared =
      shared.EncodeAll(first, pairs);
  const std::vector<em::EncodedPair> second_shared =
      shared.EncodeAll(second, pairs);
  em::PairEncoder fresh_first(&vocab, 32);
  em::PairEncoder fresh_second(&vocab, 32);
  EXPECT_TRUE(SameEncoded(first_shared, fresh_first.EncodeAll(first, pairs)));
  EXPECT_TRUE(
      SameEncoded(second_shared, fresh_second.EncodeAll(second, pairs)));
}

TEST(IncrementalMatcherTest, SharedTrainingEncoderDeltaEqualsFullMatch) {
  // The serving shape: the encoder that trained the model (its memo full
  // of the training dataset's records) also encodes the matcher's
  // candidates. The matcher's dataset takes the next identity.
  const data::GemDataset original = SyntheticDataset();
  core::Rng rng(61);
  em::FinetuneModel model(FixtureLM(), &rng);
  em::PairEncoder shared = em::MakePairEncoder(FixtureLM(), original);
  std::vector<data::PairExample> training;
  for (int i = 0; i < static_cast<int>(original.left_table.size()); ++i) {
    training.push_back({i, i, 0});
  }
  shared.EncodeAll(original, training);

  using Scored = std::vector<std::pair<std::pair<int, int>, em::ProbPair>>;
  auto make = [&](const data::GemDataset& ds, const em::PairEncoder* encoder,
                  Scored* scored) {
    em::IncrementalMatcher::Config config;
    config.encoder = encoder;
    config.pipeline.on_scored = [scored](const data::PairExample& p,
                                         em::ProbPair prob) {
      scored->push_back({{p.left_index, p.right_index}, prob});
    };
    return std::make_unique<em::IncrementalMatcher>(
        ds,
        [&model, encoder](const data::GemDataset& d) {
          return em::MakeClassifierChunkScorer(&model, encoder, &d);
        },
        [](const data::GemDataset& d) {
          return std::unique_ptr<data::Blocker>(
              std::make_unique<data::MinHashBlocker>(d.left_table,
                                                     d.right_table));
        },
        config);
  };
  Scored incremental_scores;
  auto incremental = make(original, &shared, &incremental_scores);
  ASSERT_EQ(incremental->dataset().cache_identity,
            original.cache_identity + 1);
  incremental->FullMatch();

  em::RecordDelta delta;
  for (int i : {3, 77, 150}) {
    em::RecordUpsert up;
    up.left = false;
    up.index = i;
    up.record = original.right_table[static_cast<size_t>(i + 90)];
    delta.upserts.push_back(std::move(up));
  }
  delta.deletes.push_back({/*left=*/true, 12});
  incremental_scores.clear();
  const em::MatchPipelineResult after = incremental->ApplyDelta(delta);
  EXPECT_GT(incremental->last_stats().reused, 0u);

  // The reference: a matcher with its own encoder (fit on the same
  // corpus) whose first match, on an empty score cache, scores every
  // candidate of the same final tables from scratch.
  const em::PairEncoder fresh_encoder =
      em::MakePairEncoder(FixtureLM(), original);
  Scored fresh_scores;
  auto fresh = make(original, &fresh_encoder, &fresh_scores);
  const em::MatchPipelineResult full = fresh->ApplyDelta(delta);
  EXPECT_EQ(fresh->last_stats().reused, 0u);
  EXPECT_TRUE(SameResult(after, full));
  ASSERT_EQ(incremental_scores.size(), fresh_scores.size());
  for (size_t i = 0; i < fresh_scores.size(); ++i) {
    EXPECT_EQ(incremental_scores[i].first, fresh_scores[i].first) << i;
    EXPECT_EQ(incremental_scores[i].second, fresh_scores[i].second) << i;
  }
}

TEST(IncrementalMatcherTest, SameContentUpsertRescoresExactlyTouchedPairs) {
  auto matcher = MakeMatcher(SyntheticDataset());
  const em::MatchPipelineResult before = matcher->FullMatch();
  const size_t full_candidates = matcher->last_stats().candidates;
  ASSERT_GT(full_candidates, 0u);

  // Upsert one right record with its own unchanged content: the blocker
  // stream is identical, so the re-match must re-score exactly the
  // candidates touching that record — its version changed — and reuse
  // every other score.
  const int target = 123;
  em::RecordDelta delta;
  em::RecordUpsert up;
  up.left = false;
  up.index = target;
  up.record = matcher->dataset().right_table[static_cast<size_t>(target)];
  delta.upserts.push_back(std::move(up));
  const em::MatchPipelineResult after = matcher->ApplyDelta(delta);

  EXPECT_TRUE(SameResult(after, before));
  const em::DeltaStats& stats = matcher->last_stats();
  EXPECT_EQ(stats.candidates, full_candidates);
  EXPECT_EQ(stats.reused + stats.rescored, stats.candidates);
  // O(delta · candidates-per-record): count the touched candidates with a
  // second identical delta and an observer.
  size_t touched = 0;
  em::RecordDelta again;
  again.upserts.push_back(
      {false, target,
       matcher->dataset().right_table[static_cast<size_t>(target)]});
  // Rebuild with an observing pipeline config to count pairs on target.
  // (The observer is wired through Config, so use a dedicated matcher.)
  data::GemDataset counting_ds = SyntheticDataset();
  em::IncrementalMatcher::Config config;
  config.pipeline.on_scored = [&touched, target](const data::PairExample& p,
                                                 em::ProbPair) {
    if (p.right_index == target) ++touched;
  };
  const em::IncrementalMatcher::ScorerFactory scorer =
      [](const data::GemDataset&) { return HashStubScorer(); };
  em::IncrementalMatcher counting(
      std::move(counting_ds), scorer,
      [](const data::GemDataset& d) {
        return std::unique_ptr<data::Blocker>(
            std::make_unique<data::MinHashBlocker>(d.left_table,
                                                   d.right_table));
      },
      config);
  counting.FullMatch();
  touched = 0;
  counting.ApplyDelta(again);
  EXPECT_EQ(counting.last_stats().rescored, touched);
  EXPECT_LT(counting.last_stats().rescored, full_candidates / 10);
}

TEST(IncrementalMatcherTest, PersistentStoreWarmStartsAFreshMatcher) {
  // The serving seam: a persistent cache shared across matcher lifetimes
  // (standing in for daemon restarts) must let the second matcher serve
  // every version-0 pair from the store — zero re-scoring — with results
  // bitwise equal to computing from scratch.
  const std::string path =
      (fs::path(::testing::TempDir()) / "warm_start.phx").string();
  fs::remove(path);
  const uint64_t tag = em::EmbeddingCache::ContextTag(0x55u, 0x66u);
  const em::IncrementalMatcher::ScorerFactory scorer =
      [](const data::GemDataset&) { return HashStubScorer(); };
  const em::IncrementalMatcher::BlockerFactory blocker =
      [](const data::GemDataset& d) {
        return std::unique_ptr<data::Blocker>(
            std::make_unique<data::MinHashBlocker>(d.left_table,
                                                   d.right_table));
      };

  em::MatchPipelineResult first_result;
  size_t full_candidates = 0;
  {
    auto persistent = std::make_shared<em::EmbeddingCache>(1u << 14);
    ASSERT_EQ(persistent->Attach(path).code(), core::StatusCode::kNotFound);
    em::IncrementalMatcher::Config config;
    config.persistent = persistent;
    config.persistent_tag = tag;
    em::IncrementalMatcher first(SyntheticDataset(), scorer, blocker,
                                 config);
    first_result = first.FullMatch();
    full_candidates = first.last_stats().candidates;
    ASSERT_GT(full_candidates, 0u);
    EXPECT_EQ(first.last_stats().rescored, full_candidates);
    ASSERT_TRUE(persistent->Save().ok());  // "process" exits
  }

  // Fresh matcher, fresh cache object, same store: warm start.
  auto persistent = std::make_shared<em::EmbeddingCache>(1u << 14);
  ASSERT_TRUE(persistent->Attach(path).ok());
  EXPECT_EQ(persistent->PersistedEntries(), full_candidates);
  em::IncrementalMatcher::Config config;
  config.persistent = persistent;
  config.persistent_tag = tag;
  em::IncrementalMatcher second(SyntheticDataset(), scorer, blocker,
                                config);
  const em::MatchPipelineResult warm = second.FullMatch();
  EXPECT_EQ(second.last_stats().candidates, full_candidates);
  EXPECT_EQ(second.last_stats().rescored, 0u) << "warm start re-scored";
  EXPECT_EQ(second.last_stats().reused, full_candidates);
  EXPECT_TRUE(SameResult(warm, first_result));

  // Touched records drop out of the persistent key space: an upsert must
  // re-score exactly its own candidates even with the store attached.
  em::RecordDelta delta;
  delta.upserts.push_back(
      {false, 9, second.dataset().right_table[10]});
  second.ApplyDelta(delta);
  EXPECT_GT(second.last_stats().rescored, 0u);
  EXPECT_LT(second.last_stats().rescored, full_candidates / 4);
  fs::remove(path);
}

/// A scorer whose output depends on the right record's content, not only
/// its index, so a score computed for a different record at the same
/// index shows.
em::IncrementalMatcher::ScorerFactory ContentStubScorer() {
  return [](const data::GemDataset& ds) -> em::ChunkScoreFn {
    return [&ds](const std::vector<data::PairExample>& chunk) {
      std::vector<em::ProbPair> probs(chunk.size());
      for (size_t i = 0; i < chunk.size(); ++i) {
        const uint64_t h = core::Mix64(core::Combine64(
            core::Fnv1a64(data::SerializeRecord(
                ds.right_table[static_cast<size_t>(chunk[i].right_index)])),
            static_cast<uint64_t>(chunk[i].left_index)));
        const float pos = static_cast<float>((h >> 40) & 0xFFFF) / 65535.0f;
        probs[i] = {1.0f - pos, pos};
      }
      return probs;
    };
  };
}

TEST(IncrementalMatcherTest, AppendedRecordIsNeverServedStoredScores) {
  // Two "processes" share one store and each appends a DIFFERENT record
  // at the same new index. The second must score its own record, not be
  // served the scores the first persisted for the other one.
  const std::string path =
      (fs::path(::testing::TempDir()) / "appended.phx").string();
  fs::remove(path);
  const uint64_t tag = em::EmbeddingCache::ContextTag(0x77u, 0x88u);
  const em::IncrementalMatcher::BlockerFactory blocker =
      [](const data::GemDataset& d) {
        return std::unique_ptr<data::Blocker>(
            std::make_unique<data::MinHashBlocker>(d.left_table,
                                                   d.right_table));
      };
  const data::GemDataset base = SyntheticDataset();
  const int appended_index = static_cast<int>(base.right_table.size());
  // Near-duplicates, so both draw the same candidates.
  const data::Record first_record = base.right_table[0];
  data::Record second_record = first_record;
  second_record.attrs.push_back({"note", data::Value::Str("revised")});
  const auto append = [appended_index](const data::Record& record) {
    em::RecordDelta delta;
    delta.upserts.push_back({/*left=*/false, appended_index, record});
    return delta;
  };
  {
    auto persistent = std::make_shared<em::EmbeddingCache>(1u << 14);
    ASSERT_EQ(persistent->Attach(path).code(), core::StatusCode::kNotFound);
    em::IncrementalMatcher::Config config;
    config.persistent = persistent;
    config.persistent_tag = tag;
    em::IncrementalMatcher first(base, ContentStubScorer(), blocker, config);
    first.FullMatch();
    first.ApplyDelta(append(first_record));
    ASSERT_TRUE(persistent->Save().ok());
  }

  auto persistent = std::make_shared<em::EmbeddingCache>(1u << 14);
  ASSERT_TRUE(persistent->Attach(path).ok());
  em::IncrementalMatcher::Config config;
  config.persistent = persistent;
  config.persistent_tag = tag;
  em::IncrementalMatcher second(base, ContentStubScorer(), blocker, config);
  second.FullMatch();
  EXPECT_EQ(second.last_stats().rescored, 0u) << "warm start re-scored";
  const em::MatchPipelineResult appended =
      second.ApplyDelta(append(second_record));
  EXPECT_GT(second.last_stats().rescored, 0u);

  // The reference: a store-less matcher over the same final tables.
  data::GemDataset final_tables = base;
  final_tables.right_table.push_back(second_record);
  em::IncrementalMatcher fresh(std::move(final_tables), ContentStubScorer(),
                               blocker);
  EXPECT_TRUE(SameResult(appended, fresh.FullMatch()));
  fs::remove(path);
}

TEST(IncrementalMatcherTest, DeleteThenReviveRestoresOriginalResult) {
  auto matcher = MakeMatcher(SyntheticDataset());
  const em::MatchPipelineResult original = matcher->FullMatch();
  const int victim = 77;
  const data::Record saved =
      matcher->dataset().right_table[static_cast<size_t>(victim)];

  em::RecordDelta del;
  del.deletes.push_back({false, victim});
  const em::MatchPipelineResult without = matcher->ApplyDelta(del);
  // The tombstoned record must be gone from the candidate stream.
  for (const auto& m : without.top_matches) {
    EXPECT_NE(m.right_index, victim);
  }
  EXPECT_LE(without.candidates, original.candidates);

  // Reviving it with the original content restores the original result
  // bitwise (the scorer is deterministic; only versions changed).
  em::RecordDelta revive;
  revive.upserts.push_back({false, victim, saved});
  const em::MatchPipelineResult restored = matcher->ApplyDelta(revive);
  EXPECT_TRUE(SameResult(restored, original));
}

// ROADMAP item 2's gate: after each of 200 seeded random deltas —
// upserts, appends, deletes and revivals — ApplyDelta's counts, metrics
// and top matches equal a fresh matcher's FullMatch over the same tables.
// Deletes hit the right table only: an emptied left and an emptied right
// share every band key, so a fresh matcher (which sees no tombstones)
// would pair them. Both matchers share the process-wide band-key memo,
// so a digest of every step's result, recorded before the memo existed,
// is what would catch the memo serving stale keys.
TEST(IncrementalMatcherTest, RandomDeltasEqualFullMatchAtEveryStep) {
  data::SyntheticTableOptions options;
  options.rows = 300;
  options.seed = 42;
  const data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  data::GemDataset ds;
  ds.left_table = tables.left;
  ds.right_table = tables.right;
  const em::IncrementalMatcher::ScorerFactory scorer =
      [](const data::GemDataset&) { return HashStubScorer(); };
  const em::IncrementalMatcher::BlockerFactory blocker =
      [](const data::GemDataset& d) {
        return std::unique_ptr<data::Blocker>(
            std::make_unique<data::MinHashBlocker>(d.left_table,
                                                   d.right_table));
      };
  em::IncrementalMatcher::Config config;
  config.pipeline.top_k_matches = 25;
  // Appended left records have no gold match.
  config.pipeline.gold_label = [&tables](int l, int r) {
    return static_cast<size_t>(l) < tables.left.size() ? tables.GoldLabel(l, r)
                                                        : 0;
  };
  em::IncrementalMatcher matcher(std::move(ds), scorer, blocker, config);
  matcher.FullMatch();

  std::map<int, data::Record> deleted;  // right index -> content before
  size_t applied[4] = {0, 0, 0, 0};     // per kind of change below
  uint64_t digest = core::kFnv1aOffset;
  core::Rng rng(2024);
  for (int step = 0; step < 200; ++step) {
    const data::GemDataset& current = matcher.dataset();
    em::RecordDelta delta;
    std::set<std::pair<bool, int>> touched;
    size_t appended[2] = {0, 0};
    const size_t ops = 1 + rng.NextU64(3);
    for (size_t op = 0; op < ops; ++op) {
      const bool left = rng.NextU64(2) == 0;
      const auto& table = left ? current.left_table : current.right_table;
      // Another record's content, sometimes with a note no record had.
      data::Record record = table[rng.NextU64(table.size())];
      if (rng.NextU64(2) == 0) {
        record.attrs.push_back(
            {"note", data::Value::Str("step " + std::to_string(step))});
      }
      const int index = static_cast<int>(rng.NextU64(table.size()));
      const size_t kind = rng.NextU64(4);
      switch (kind) {
        case 0:  // upsert (revives the record if it was deleted)
          if (!touched.insert({left, index}).second) continue;
          if (!left) deleted.erase(index);
          delta.upserts.push_back({left, index, std::move(record)});
          break;
        case 1:  // append
          delta.upserts.push_back(
              {left, static_cast<int>(table.size() + appended[left]++),
               std::move(record)});
          break;
        case 2:  // delete
          if (deleted.count(index) != 0 ||
              !touched.insert({false, index}).second) {
            continue;
          }
          deleted.emplace(index,
                          current.right_table[static_cast<size_t>(index)]);
          delta.deletes.push_back({false, index});
          break;
        default: {  // revive with the content it had
          if (deleted.empty()) continue;
          auto it = deleted.begin();
          std::advance(it,
                       static_cast<ptrdiff_t>(rng.NextU64(deleted.size())));
          if (!touched.insert({false, it->first}).second) continue;
          delta.upserts.push_back({false, it->first, it->second});
          deleted.erase(it);
        }
      }
      ++applied[kind];
    }

    const em::MatchPipelineResult incremental = matcher.ApplyDelta(delta);
    const em::DeltaStats& stats = matcher.last_stats();
    ASSERT_EQ(stats.changed_records,
              delta.upserts.size() + delta.deletes.size());
    ASSERT_EQ(stats.candidates, incremental.candidates) << "step " << step;
    ASSERT_EQ(stats.reused + stats.rescored, stats.candidates);

    em::IncrementalMatcher fresh(matcher.dataset(), scorer, blocker, config);
    const em::MatchPipelineResult full = fresh.FullMatch();
    ASSERT_EQ(incremental.candidates, full.candidates) << "step " << step;
    ASSERT_EQ(incremental.matches, full.matches) << "step " << step;
    ASSERT_EQ(incremental.labeled, full.labeled) << "step " << step;
    ASSERT_EQ(incremental.unlabeled, full.unlabeled) << "step " << step;
    ASSERT_EQ(incremental.metrics.tp, full.metrics.tp) << "step " << step;
    ASSERT_EQ(incremental.metrics.fp, full.metrics.fp) << "step " << step;
    ASSERT_EQ(incremental.metrics.tn, full.metrics.tn) << "step " << step;
    ASSERT_EQ(incremental.metrics.fn, full.metrics.fn) << "step " << step;
    ASSERT_TRUE(SameResult(incremental, full)) << "step " << step;

    const int64_t counts[] = {
        static_cast<int64_t>(incremental.candidates),
        static_cast<int64_t>(incremental.matches),
        static_cast<int64_t>(incremental.labeled),
        incremental.metrics.tp, incremental.metrics.fp,
        incremental.metrics.tn, incremental.metrics.fn};
    digest = core::Fnv1a64(counts, sizeof(counts), digest);
    for (const em::ScoredMatch& m : incremental.top_matches) {
      digest = core::Fnv1a64(&m.left_index, sizeof(m.left_index), digest);
      digest = core::Fnv1a64(&m.right_index, sizeof(m.right_index), digest);
      digest = core::Fnv1a64(&m.pos_prob, sizeof(m.pos_prob), digest);
    }
  }
  for (const size_t count : applied) EXPECT_GT(count, 10u);
  EXPECT_EQ(digest, 559267426539809268ull);
}

}  // namespace
}  // namespace promptem
