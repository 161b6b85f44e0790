// Tests for core::HashIndex and the layers refactored onto it: sealed
// images must be pure functions of content (pool-size / insertion-order
// invariant), the mmap file must round-trip and grow atomically, and the
// MinHash candidate stream must be bitwise identical across the RAM and
// mmap backends at every chunk size and pool size, and equal to a pinned
// digest.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/hash_index.h"
#include "core/hashing.h"
#include "core/thread_pool.h"
#include "data/blocking.h"
#include "data/synthetic.h"

namespace promptem {
namespace {

using core::HashIndex;

/// Fresh per-test scratch directory under the build tree's temp space.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    char tmpl[256];
    std::snprintf(tmpl, sizeof(tmpl), "/tmp/promptem_%s_XXXXXX", tag.c_str());
    path_ = mkdtemp(tmpl);
  }
  ~ScratchDir() {
    // Best-effort cleanup of the flat files the tests create.
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
    }
  }
  std::string File(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

std::vector<uint8_t> SpanBytes(HashIndex::Span span) {
  return std::vector<uint8_t>(span.data, span.data + span.size);
}

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : saved_(core::GetNumThreads()) {
    core::SetNumThreads(n);
  }
  ~ScopedThreads() { core::SetNumThreads(saved_); }

 private:
  int saved_;
};

TEST(HashIndexTest, AddSealFindRoundTrip) {
  HashIndex index(HashIndex::Options{});
  // Before the first seal everything misses.
  EXPECT_TRUE(index.snapshot().Find(7).empty());
  EXPECT_EQ(index.key_count(), 0u);

  const std::vector<float> embedding = {1.5f, -2.25f, 3.0f};
  index.Add(7, 0, embedding.data(), embedding.size() * sizeof(float));
  index.Add(0, 0, "zero", 4);  // key 0 is a valid key, not a sentinel
  index.Add(UINT64_MAX, 0, nullptr, 0);  // zero-size payloads are legal
  ASSERT_TRUE(index.Seal().ok());

  EXPECT_EQ(index.key_count(), 3u);
  const HashIndex::Snapshot snap = index.snapshot();
  const HashIndex::Span got = snap.Find(7);
  ASSERT_EQ(got.size, embedding.size() * sizeof(float));
  EXPECT_EQ(0, std::memcmp(got.data, embedding.data(), got.size));
  ASSERT_EQ(snap.Find(0).size, 4u);
  EXPECT_EQ(0, std::memcmp(snap.Find(0).data, "zero", 4));
  EXPECT_TRUE(snap.Find(UINT64_MAX).empty());   // present, zero bytes
  EXPECT_TRUE(snap.Find(12345).empty());        // absent
}

TEST(HashIndexTest, PostingsSortAscendingRegardlessOfInsertOrder) {
  HashIndex index(HashIndex::Options{});
  const std::vector<int32_t> values = {900, 3, 77, 0, 41};
  for (int32_t v : values) index.AddPosting(42, v);
  index.AddPosting(99, 5);
  ASSERT_TRUE(index.Seal().ok());

  const int32_t* postings = nullptr;
  size_t count = 0;
  ASSERT_TRUE(index.snapshot().FindPostings(42, &postings, &count));
  const std::vector<int32_t> got(postings, postings + count);
  EXPECT_EQ(got, (std::vector<int32_t>{0, 3, 41, 77, 900}));
  ASSERT_TRUE(index.snapshot().FindPostings(99, &postings, &count));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(postings[0], 5);
  EXPECT_FALSE(index.snapshot().FindPostings(7, &postings, &count));
}

TEST(HashIndexTest, ReSealMergesStagedKeysOverSealedOnes) {
  HashIndex index(HashIndex::Options{});
  index.Add(1, 0, "old-one", 7);
  index.Add(2, 0, "two", 3);
  ASSERT_TRUE(index.Seal().ok());

  index.Add(1, 0, "new", 3);  // replaces key 1 wholesale
  index.Add(3, 0, "three", 5);
  ASSERT_TRUE(index.Seal().ok());

  const HashIndex::Snapshot snap = index.snapshot();
  EXPECT_EQ(snap.key_count(), 3u);
  EXPECT_EQ(SpanBytes(snap.Find(1)),
            std::vector<uint8_t>({'n', 'e', 'w'}));
  EXPECT_EQ(SpanBytes(snap.Find(2)), std::vector<uint8_t>({'t', 'w', 'o'}));
  EXPECT_EQ(snap.Find(3).size, 5u);
}

TEST(HashIndexTest, ForEachVisitsKeysAscending) {
  HashIndex index(HashIndex::Options{});
  for (uint64_t key : {9u, 2u, 77u, 5u, 0u}) {
    index.Add(key, 0, &key, sizeof(key));
  }
  ASSERT_TRUE(index.Seal().ok());
  std::vector<uint64_t> seen;
  index.snapshot().ForEach(
      [&](uint64_t key, HashIndex::Span) { seen.push_back(key); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 2, 5, 9, 77}));
}

TEST(HashIndexTest, MmapBackendMatchesRamBackend) {
  ScratchDir dir("hidx");
  HashIndex ram(HashIndex::Options{});
  HashIndex::Options mmap_options;
  mmap_options.backend = HashIndex::Backend::kMmap;
  mmap_options.path = dir.File("table.phx");
  HashIndex mapped(mmap_options);

  for (uint64_t key = 0; key < 500; ++key) {
    for (int32_t v = 0; v <= static_cast<int32_t>(key % 5); ++v) {
      ram.AddPosting(key * 17, v * 100);
      mapped.AddPosting(key * 17, v * 100);
    }
  }
  ASSERT_TRUE(ram.Seal().ok());
  ASSERT_TRUE(mapped.Seal().ok());
  EXPECT_EQ(ram.key_count(), mapped.key_count());
  EXPECT_GT(ram.ram_bytes(), 0u);
  EXPECT_EQ(ram.file_bytes(), 0u);
  EXPECT_EQ(mapped.ram_bytes(), 0u);
  EXPECT_GT(mapped.file_bytes(), 0u);

  // Entry-for-entry identical, and a fresh Open sees the same table.
  auto reopened = HashIndex::Open(mmap_options.path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const HashIndex::Snapshot a = ram.snapshot();
  const HashIndex::Snapshot b = mapped.snapshot();
  const HashIndex::Snapshot c = reopened.value()->snapshot();
  size_t visited = 0;
  a.ForEach([&](uint64_t key, HashIndex::Span payload) {
    ++visited;
    EXPECT_EQ(SpanBytes(payload), SpanBytes(b.Find(key)));
    EXPECT_EQ(SpanBytes(payload), SpanBytes(c.Find(key)));
  });
  EXPECT_EQ(visited, ram.key_count());
}

TEST(HashIndexTest, FileImageIsPoolSizeAndInsertOrderInvariant) {
  ScratchDir dir("hidx");
  auto build = [&](const std::string& name, int pool,
                   bool reversed) {
    ScopedThreads threads(pool);
    HashIndex::Options options;
    options.backend = HashIndex::Backend::kMmap;
    options.path = dir.File(name);
    HashIndex index(options);
    constexpr int64_t kN = 20000;
    core::ParallelFor(0, kN, 64, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const int64_t j = reversed ? kN - 1 - i : i;
        index.AddPosting(static_cast<uint64_t>(j % 997),
                         static_cast<int32_t>(j));
      }
    });
    EXPECT_TRUE(index.Seal().ok());
    return ReadFileBytes(options.path);
  };
  const std::vector<uint8_t> reference = build("a.phx", 1, false);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, build("b.phx", 4, false));
  EXPECT_EQ(reference, build("c.phx", 8, true));
}

TEST(HashIndexTest, ReSealGrowsTheFileAtomically) {
  ScratchDir dir("hidx");
  HashIndex::Options options;
  options.backend = HashIndex::Backend::kMmap;
  options.path = dir.File("grow.phx");
  HashIndex index(options);
  index.AddPosting(1, 10);
  ASSERT_TRUE(index.Seal().ok());
  const uint64_t first_size = index.file_bytes();

  index.AddPosting(1, 11);  // replaces key 1's postings list
  index.AddPosting(2, 20);
  ASSERT_TRUE(index.Seal().ok());
  EXPECT_GT(index.file_bytes(), 0u);
  EXPECT_NE(index.file_bytes(), 0u);
  (void)first_size;

  auto reopened = HashIndex::Open(options.path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const HashIndex::Snapshot snap = reopened.value()->snapshot();
  EXPECT_EQ(snap.key_count(), 2u);
  const int32_t* postings = nullptr;
  size_t count = 0;
  ASSERT_TRUE(snap.FindPostings(1, &postings, &count));
  ASSERT_EQ(count, 1u);
  EXPECT_EQ(postings[0], 11);
  ASSERT_TRUE(snap.FindPostings(2, &postings, &count));
  EXPECT_EQ(postings[0], 20);
}

TEST(HashIndexTest, SnapshotsPinTheirGenerationAcrossReSeal) {
  ScratchDir dir("hidx");
  HashIndex::Options options;
  options.backend = HashIndex::Backend::kMmap;
  options.path = dir.File("pin.phx");
  HashIndex index(options);
  index.Add(5, 0, "generation-1", 12);
  ASSERT_TRUE(index.Seal().ok());

  const HashIndex::Snapshot pinned = index.snapshot();
  const HashIndex::Span before = pinned.Find(5);

  // Readers race re-seals: spans from a pinned snapshot must stay valid
  // and probes must never observe a half-published generation.
  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&index, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const HashIndex::Snapshot snap = index.snapshot();
        const HashIndex::Span span = snap.Find(5);
        ASSERT_EQ(span.size, 12u);
        ASSERT_EQ(0, std::memcmp(span.data, "generation-", 11));
      }
    });
  }
  for (int gen = 2; gen <= 6; ++gen) {
    const std::string payload = "generation-" + std::to_string(gen);
    index.Add(5, 0, payload.data(), payload.size());
    ASSERT_TRUE(index.Seal().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  // The pinned snapshot still reads generation 1's bytes in place.
  ASSERT_EQ(before.size, 12u);
  EXPECT_EQ(0, std::memcmp(before.data, "generation-1", 12));
  EXPECT_EQ(0, std::memcmp(pinned.Find(5).data, "generation-1", 12));
  const HashIndex::Span after = index.snapshot().Find(5);
  EXPECT_EQ(0, std::memcmp(after.data, "generation-6", 12));
}

TEST(HashIndexTest, ParallelInsertIsDeterministicUnderSharding) {
  auto build_count = [&](int pool) {
    ScopedThreads threads(pool);
    HashIndex index(HashIndex::Options{});
    core::ParallelFor(0, 50000, 128, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        index.AddPosting(static_cast<uint64_t>(i % 313),
                         static_cast<int32_t>(i));
      }
    });
    EXPECT_TRUE(index.Seal().ok());
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> image;
    index.snapshot().ForEach([&](uint64_t key, HashIndex::Span payload) {
      image.emplace_back(key, SpanBytes(payload));
    });
    return image;
  };
  const auto reference = build_count(1);
  EXPECT_EQ(reference.size(), 313u);
  EXPECT_EQ(reference, build_count(3));
  EXPECT_EQ(reference, build_count(8));
}

// ---------------------------------------------------------------------------
// MinHashBlocker backend parity
// ---------------------------------------------------------------------------

std::vector<data::PairExample> DrainWithChunk(data::Blocker* blocker,
                                              size_t chunk) {
  blocker->Reset();
  std::vector<data::PairExample> all;
  std::vector<data::PairExample> buf;
  while (true) {
    buf.clear();
    const size_t n = blocker->NextChunk(chunk, &buf);
    EXPECT_EQ(n, buf.size());
    if (n == 0) break;
    all.insert(all.end(), buf.begin(), buf.end());
  }
  return all;
}

/// FNV-1a over the (left, right, label) triples of a candidate stream.
uint64_t PairsDigest(const std::vector<data::PairExample>& pairs) {
  uint64_t hash = core::kFnv1aOffset;
  for (const auto& p : pairs) {
    const int32_t ids[3] = {p.left_index, p.right_index, p.label};
    hash = core::Fnv1a64(ids, sizeof(ids), hash);
  }
  return hash;
}

/// One configuration per index backend: RAM, then mmap files in `dir`.
std::vector<data::MinHashBlocker::Config> BackendConfigs(
    const std::string& dir) {
  std::vector<data::MinHashBlocker::Config> configs(2);
  configs[1].index_dir = dir;
  return configs;
}

/// Drains a fresh blocker per backend, pool size and chunk size, and
/// expects every stream to hash to `digest` and every blocker to count
/// `buckets_over_cap` and `capped_probes_per_drain` on each drain.
void ExpectStreamOnEveryBackend(const data::SyntheticTables& tables,
                                uint64_t digest, size_t pairs,
                                uint64_t buckets_over_cap,
                                uint64_t capped_probes_per_drain) {
  ScratchDir dir("bands");
  const size_t chunks[] = {1, 7, 256, 100000};
  const auto configs = BackendConfigs(dir.path());
  for (size_t backend = 0; backend < configs.size(); ++backend) {
    for (const int pool : {1, 3, 8}) {
      ScopedThreads threads(pool);
      data::MinHashBlocker blocker(tables.left, tables.right,
                                   configs[backend]);
      for (const size_t chunk : chunks) {
        const auto stream = DrainWithChunk(&blocker, chunk);
        EXPECT_EQ(stream.size(), pairs);
        EXPECT_EQ(PairsDigest(stream), digest)
            << "backend=" << backend << " pool=" << pool
            << " chunk=" << chunk;
      }
      const auto stats = blocker.index_stats();
      EXPECT_EQ(stats.buckets_over_cap, buckets_over_cap)
          << "backend=" << backend << " pool=" << pool;
      EXPECT_EQ(stats.capped_probes,
                capped_probes_per_drain * std::size(chunks))
          << "backend=" << backend << " pool=" << pool;
    }
  }
}

// The digest and counters are pinned values, so the stream stays fixed
// across commits and does not depend on any one backend being kept.
TEST(MinHashBackendParityTest, StreamsBitwiseEqualAcrossBackends) {
  data::SyntheticTableOptions options;
  options.rows = 400;
  options.seed = 20260809;
  const data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  ExpectStreamOnEveryBackend(tables, 16110616007198366391ull, 1570u, 0u, 0u);
}

// The default tables never fill a bucket past the cap (16 rights here).
// Twenty copies of one right record share all of its band keys, so each
// of its 16 buckets overflows, and a probe that lands in one is skipped.
TEST(MinHashBackendParityTest, BucketCapFiresIdenticallyAcrossBackends) {
  data::SyntheticTableOptions options;
  options.rows = 300;
  data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  const data::Record duplicate = tables.right[0];
  for (int i = 0; i < 20; ++i) tables.right.push_back(duplicate);
  ExpectStreamOnEveryBackend(tables, 4330944935603720547ull, 1002u, 16u,
                             2u);
}

TEST(MinHashBackendParityTest, IndexStatsSeeTheBackingStore) {
  data::SyntheticTableOptions options;
  options.rows = 300;
  const data::SyntheticTables tables = data::GenerateSyntheticTables(options);
  ScratchDir dir("bands");

  data::MinHashBlocker ram(tables.left, tables.right);
  (void)ram.Drain();
  const auto ram_stats = ram.index_stats();
  EXPECT_EQ(ram_stats.band_bytes.size(),
            static_cast<size_t>(data::MinHashBlocker::kNumBands));
  EXPECT_GT(ram_stats.ram_bytes, 0u);
  EXPECT_EQ(ram_stats.file_bytes, 0u);

  data::MinHashBlocker::Config mmap_config;
  mmap_config.index_dir = dir.path();
  data::MinHashBlocker mapped(tables.left, tables.right, mmap_config);
  (void)mapped.Drain();
  const auto mmap_stats = mapped.index_stats();
  EXPECT_EQ(mmap_stats.ram_bytes, 0u);
  EXPECT_GT(mmap_stats.file_bytes, 0u);
}

}  // namespace
}  // namespace promptem
