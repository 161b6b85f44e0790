// Deterministic fault-injection suite for every artifact the library
// loads from disk: binary checkpoints, CSV tables, pair CSVs, JSONL
// tables, and the pre-trained LM's vocab/config/checkpoint triple.
//
// The contract under test: a corrupted or truncated artifact must surface
// as a non-OK core::Status with a useful message — never a crash, abort,
// hang, unbounded allocation, or silent success. The corruptor below
// flips and truncates bytes systematically (not randomly), so a failure
// reproduces from the test name alone.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hash_index.h"
#include "core/hashing.h"
#include "data/io.h"
#include "lm/pretrained_lm.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "promptem/embed_cache.h"
#include "text/vocab.h"

namespace promptem {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Byte-corruptor helpers.
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "fixture missing: " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write fixture: " << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out);
}

std::string FlipByte(std::string bytes, size_t offset, unsigned char mask) {
  bytes[offset] = static_cast<char>(
      static_cast<unsigned char>(bytes[offset]) ^ mask);
  return bytes;
}

/// A per-test scratch directory under the gtest temp root, wiped on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Checkpoints: every single-byte flip and every truncation must fail.
// The v2 checksum makes this exhaustive — corruption in the float payload
// is just as detectable as corruption in the structure.
// ---------------------------------------------------------------------------

std::string SaveReferenceCheckpoint(const ScratchDir& dir) {
  core::Rng rng(7);
  nn::Mlp module({3, 4, 2}, &rng);
  const std::string path = dir.File("ref.ckpt");
  EXPECT_TRUE(nn::SaveCheckpoint(module, path).ok());
  return path;
}

core::Status LoadIntoFreshMlp(const std::string& path) {
  core::Rng rng(8);
  nn::Mlp module({3, 4, 2}, &rng);
  return nn::LoadCheckpoint(&module, path);
}

TEST(CheckpointFaultTest, EveryByteFlipIsDetected) {
  ScratchDir dir("promptem_fault_ckpt_flip");
  const std::string good = ReadFileBytes(SaveReferenceCheckpoint(dir));
  const std::string victim = dir.File("flipped.ckpt");
  for (size_t i = 0; i < good.size(); ++i) {
    for (unsigned char mask : {0x01, 0xFF}) {
      WriteFileBytes(victim, FlipByte(good, i, mask));
      core::Status st = LoadIntoFreshMlp(victim);
      EXPECT_FALSE(st.ok()) << "flip at byte " << i << " mask "
                            << static_cast<int>(mask) << " went undetected";
      EXPECT_FALSE(st.message().empty());
    }
  }
}

TEST(CheckpointFaultTest, EveryTruncationIsDetected) {
  ScratchDir dir("promptem_fault_ckpt_trunc");
  const std::string good = ReadFileBytes(SaveReferenceCheckpoint(dir));
  const std::string victim = dir.File("truncated.ckpt");
  for (size_t len = 0; len < good.size(); ++len) {
    WriteFileBytes(victim, good.substr(0, len));
    core::Status st = LoadIntoFreshMlp(victim);
    EXPECT_FALSE(st.ok()) << "truncation to " << len
                          << " bytes went undetected";
  }
}

TEST(CheckpointFaultTest, TrailingGarbageIsDetected) {
  ScratchDir dir("promptem_fault_ckpt_trail");
  const std::string good = ReadFileBytes(SaveReferenceCheckpoint(dir));
  const std::string victim = dir.File("trailing.ckpt");
  WriteFileBytes(victim, good + std::string(13, '\x5A'));
  EXPECT_FALSE(LoadIntoFreshMlp(victim).ok());
}

std::string U32Bytes(uint32_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A v2 envelope around `body` (entry count + entries) with a CORRECT
/// checksum, so any rejection comes from the structure checks — not the
/// hash.
std::string V2Checkpoint(const std::string& body) {
  std::string hashed = U32Bytes(0x01020304u) + body;
  const uint64_t hash = core::Fnv1a64(hashed.data(), hashed.size());
  return "PEMCKPT2" + hashed +
         std::string(reinterpret_cast<const char*>(&hash), sizeof(hash));
}

// Dims chosen so the naive `n *= dim` would wrap around 2^64 to a tiny
// number, or would pass the multiply but demand a multi-gigabyte buffer.
// Both must be rejected by the remaining-bytes bound before any
// allocation happens.
TEST(CheckpointFaultTest, OversizedDimsRejectedWithoutAllocation) {
  ScratchDir dir("promptem_fault_ckpt_dims");
  for (std::vector<uint32_t> dims :
       std::vector<std::vector<uint32_t>>{{0xFFFFFFFFu, 0xFFFFFFFFu,
                                           0xFFFFFFFFu, 0xFFFFFFFFu},
                                          {0x40000000u, 4u}}) {
    std::string body = U32Bytes(1);  // one entry
    const std::string name = "hidden0.weight";
    body += U32Bytes(static_cast<uint32_t>(name.size())) + name;
    body += U32Bytes(static_cast<uint32_t>(dims.size()));
    for (uint32_t d : dims) body += U32Bytes(d);
    // No payload: the declared element count alone must kill the load.
    const std::string victim = dir.File("huge.ckpt");
    WriteFileBytes(victim, V2Checkpoint(body));
    core::Status st = LoadIntoFreshMlp(victim);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), core::StatusCode::kInvalidArgument)
        << st.ToString();
    EXPECT_EQ(st.message().find("checksum"), std::string::npos)
        << st.ToString();
  }
}

TEST(CheckpointFaultTest, DuplicateEntryNamesRejected) {
  ScratchDir dir("promptem_fault_ckpt_dup");
  // The same zero-dim scalar entry twice.
  std::string entry;
  const std::string name = "w";
  entry += U32Bytes(static_cast<uint32_t>(name.size())) + name;
  entry += U32Bytes(0);  // ndim 0 => one scalar element
  const float value = 1.5f;
  entry += std::string(reinterpret_cast<const char*>(&value), sizeof(value));
  const std::string victim = dir.File("dup.ckpt");
  WriteFileBytes(victim, V2Checkpoint(U32Bytes(2) + entry + entry));
  core::Rng rng(9);
  nn::Mlp module({3, 4, 2}, &rng);
  core::Status st = nn::LoadCheckpoint(&module, victim, /*strict=*/false);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate"), std::string::npos)
      << st.ToString();
}

TEST(CheckpointFaultTest, EndiannessMismatchRejected) {
  ScratchDir dir("promptem_fault_ckpt_endian");
  const std::string good = ReadFileBytes(SaveReferenceCheckpoint(dir));
  // Reverse the endian tag (bytes 8..11) as a foreign-endian writer would.
  std::string swapped = good;
  std::swap(swapped[8], swapped[11]);
  std::swap(swapped[9], swapped[10]);
  const std::string victim = dir.File("endian.ckpt");
  WriteFileBytes(victim, swapped);
  core::Status st = LoadIntoFreshMlp(victim);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("endian"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------------
// Atomic save: a failed save never touches the target path.
// ---------------------------------------------------------------------------

TEST(CheckpointFaultTest, SaveToUnreachablePathLeavesNothingBehind) {
  core::Rng rng(7);
  nn::Mlp module({3, 4, 2}, &rng);
  const std::string target =
      (fs::path(::testing::TempDir()) / "promptem_no_such_dir" / "x.ckpt")
          .string();
  core::Status st = nn::SaveCheckpoint(module, target);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST(CheckpointFaultTest, FailedSaveNeverClobbersGoodCheckpoint) {
  ScratchDir dir("promptem_fault_ckpt_atomic");
  const std::string path = SaveReferenceCheckpoint(dir);
  const std::string good = ReadFileBytes(path);
  // Block the temp file with a directory: the save must fail before it
  // writes a single byte anywhere near the target.
  fs::create_directory(path + ".tmp");
  core::Rng rng(10);
  nn::Mlp other(std::vector<int>{3, 4, 2}, &rng);
  core::Status st = nn::SaveCheckpoint(other, path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(ReadFileBytes(path), good) << "target was modified";
  fs::remove_all(path + ".tmp");
}

TEST(CheckpointFaultTest, SuccessfulSaveLeavesNoTempFile) {
  ScratchDir dir("promptem_fault_ckpt_clean");
  const std::string path = SaveReferenceCheckpoint(dir);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Embedding-cache stores (the --embed-cache artifact, a "PEMHIDX1" hash
// index — its byte sweeps are HashIndexFaultTest below): flushes are
// atomic, a failed flush never touches the good file, and a rejected
// attach leaves the in-process entries exactly as they were.
// ---------------------------------------------------------------------------

/// Five dim-8 embeddings under one context tag — the reference contents.
void FillReferenceEmbedCache(em::EmbeddingCache* cache) {
  const uint64_t tag = em::EmbeddingCache::ContextTag(0xABu, 0xCDu);
  for (int i = 0; i < 5; ++i) {
    cache->Insert(em::EmbeddingCache::PairKey(tag, i, i + 1),
                  std::vector<float>(8, 0.5f * static_cast<float>(i) - 1.0f));
  }
}

std::string SaveReferenceEmbedCache(const ScratchDir& dir) {
  em::EmbeddingCache cache(64);
  const std::string path = dir.File("ref.embcache");
  EXPECT_EQ(cache.Attach(path).code(), core::StatusCode::kNotFound);
  FillReferenceEmbedCache(&cache);
  EXPECT_TRUE(cache.Save().ok());
  return path;
}

TEST(EmbedCacheFaultTest, RejectedAttachLeavesCacheUnchanged) {
  ScratchDir dir("promptem_fault_emb_keep");
  const std::string good = ReadFileBytes(SaveReferenceEmbedCache(dir));
  const std::string victim = dir.File("corrupt.embcache");
  WriteFileBytes(victim, FlipByte(good, good.size() / 2, 0xFF));
  // A cache that already holds entries must keep serving them bitwise
  // intact after rejecting a corrupt store.
  em::EmbeddingCache cache(64);
  const uint64_t key = em::EmbeddingCache::PairKey(
      em::EmbeddingCache::ContextTag(0x11u, 0x22u), 3, 4);
  const std::vector<float> value = {1.0f, 2.0f, 3.0f};
  cache.Insert(key, value);
  const core::Status st = cache.Attach(victim);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find(victim), std::string::npos)
      << "no path in: " << st.ToString();
  EXPECT_NE(st.message().find("at offset"), std::string::npos)
      << "no offset in: " << st.ToString();
  EXPECT_EQ(cache.LiveEntries(), 1u);
  EXPECT_EQ(cache.PersistedEntries(), 0u);
  auto entry = cache.Find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(*entry, value);
  // And the survivor cache rebuilds the store in place.
  EXPECT_TRUE(cache.Save().ok());
  em::EmbeddingCache reloaded(64);
  EXPECT_TRUE(reloaded.Attach(victim).ok());
  EXPECT_EQ(reloaded.PersistedEntries(), 1u);
  auto reloaded_entry = reloaded.Find(key);
  ASSERT_NE(reloaded_entry, nullptr);
  EXPECT_EQ(*reloaded_entry, value);
}

TEST(EmbedCacheFaultTest, SaveToUnreachablePathLeavesNothingBehind) {
  em::EmbeddingCache cache(64);
  const std::string target =
      (fs::path(::testing::TempDir()) / "promptem_no_such_dir" /
       "x.embcache")
          .string();
  EXPECT_EQ(cache.Attach(target).code(), core::StatusCode::kNotFound);
  FillReferenceEmbedCache(&cache);
  core::Status st = cache.Save();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST(EmbedCacheFaultTest, SaveWithoutAttachedStoreFails) {
  em::EmbeddingCache cache(64);
  FillReferenceEmbedCache(&cache);
  EXPECT_EQ(cache.Save().code(), core::StatusCode::kFailedPrecondition);
}

TEST(EmbedCacheFaultTest, FailedSaveNeverClobbersGoodFile) {
  ScratchDir dir("promptem_fault_emb_atomic");
  const std::string path = SaveReferenceEmbedCache(dir);
  const std::string good = ReadFileBytes(path);
  // Block the temp file with a directory: the flush must fail without
  // touching the target.
  fs::create_directory(path + ".tmp");
  em::EmbeddingCache other(64);
  ASSERT_TRUE(other.Attach(path).ok());
  other.Insert(7u, {9.0f});
  EXPECT_FALSE(other.Save().ok());
  EXPECT_EQ(ReadFileBytes(path), good) << "target was modified";
  fs::remove_all(path + ".tmp");
}

TEST(EmbedCacheFaultTest, SuccessfulSaveLeavesNoTempFile) {
  ScratchDir dir("promptem_fault_emb_clean");
  const std::string path = SaveReferenceEmbedCache(dir);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(EmbedCacheFaultTest, SigkillDuringAutosaveLeavesOldOrNewFileOnly) {
  // The autosave crash contract: a process killed at ANY instant while
  // inserting with periodic flushes enabled leaves either a previous
  // complete store or the new one on disk — never a torn write. Each
  // cached value is a pure function of its key, so the parent can verify
  // whatever generation survived, not just that Attach succeeds.
  ScratchDir dir("promptem_fault_emb_kill");
  const std::string path = dir.File("autosaved.embcache");
  const auto value_for = [](uint64_t key) {
    return std::vector<float>{static_cast<float>(key),
                              static_cast<float>(key) * 0.25f};
  };
  for (const int delay_us : {0, 500, 1500, 4000, 9000, 20000}) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Flush on every insert: the kill window is almost always inside
      // an open tmp-file write.
      em::EmbeddingCache cache(1u << 14);
      cache.Attach(path);
      cache.EnableAutosave(1);
      for (uint64_t key = 1;; ++key) {
        cache.Insert(key, value_for(key));
      }
    }
    ::usleep(static_cast<useconds_t>(delay_us));
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));

    em::EmbeddingCache survivor(1u << 14);
    const core::Status st = survivor.Attach(path);
    if (st.code() == core::StatusCode::kNotFound) {
      continue;  // killed before the first rename landed — fine
    }
    ASSERT_TRUE(st.ok()) << "torn autosave after " << delay_us
                         << "us: " << st.ToString();
    const size_t persisted = survivor.PersistedEntries();
    EXPECT_GT(persisted, 0u);
    for (uint64_t key = 1; key <= persisted; ++key) {
      auto entry = survivor.Find(key);
      ASSERT_NE(entry, nullptr) << "missing key " << key << " in a "
                                << persisted << "-entry store";
      EXPECT_EQ(*entry, value_for(key)) << "key " << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Mmap-backed hash index files ("PEMHIDX1", the band-table / embed-cache
// backing store): the same exhaustive sweep. Because readers map the file
// and dereference slots in place, wholesale up-front rejection is the
// only thing standing between a bad byte and a wild pointer — every flip
// and truncation must fail Open before any entry is visible, and the
// message must carry path, offset, and the failed check.
// ---------------------------------------------------------------------------

std::vector<uint8_t> IndexValueFor(uint64_t key) {
  uint64_t v = key * 0x9E3779B97F4A7C15ULL;
  std::vector<uint8_t> bytes(sizeof(v));
  std::memcpy(bytes.data(), &v, sizeof(v));
  return bytes;
}

std::string SaveReferenceHashIndex(const ScratchDir& dir) {
  core::HashIndex::Options options;
  options.backend = core::HashIndex::Backend::kMmap;
  options.path = dir.File("ref.phx");
  core::HashIndex index(options);
  for (uint64_t key = 1; key <= 21; ++key) {
    const auto value = IndexValueFor(key);
    index.Add(key, 0, value.data(), value.size());
  }
  EXPECT_TRUE(index.Seal().ok());
  return options.path;
}

TEST(HashIndexFaultTest, EveryByteFlipIsDetected) {
  ScratchDir dir("promptem_fault_phx_flip");
  const std::string good = ReadFileBytes(SaveReferenceHashIndex(dir));
  const std::string victim = dir.File("flipped.phx");
  for (size_t i = 0; i < good.size(); ++i) {
    for (unsigned char mask : {0x01, 0xFF}) {
      WriteFileBytes(victim, FlipByte(good, i, mask));
      auto opened = core::HashIndex::Open(victim);
      EXPECT_FALSE(opened.ok()) << "flip at byte " << i << " mask "
                                << static_cast<int>(mask)
                                << " went undetected";
      if (!opened.ok()) {
        EXPECT_NE(opened.status().message().find(victim), std::string::npos)
            << "no path in: " << opened.status().ToString();
        EXPECT_NE(opened.status().message().find("at offset"),
                  std::string::npos)
            << "no offset in: " << opened.status().ToString();
      }
    }
  }
}

TEST(HashIndexFaultTest, EveryTruncationIsDetected) {
  ScratchDir dir("promptem_fault_phx_trunc");
  const std::string good = ReadFileBytes(SaveReferenceHashIndex(dir));
  const std::string victim = dir.File("truncated.phx");
  for (size_t len = 0; len < good.size(); ++len) {
    WriteFileBytes(victim, good.substr(0, len));
    EXPECT_FALSE(core::HashIndex::Open(victim).ok())
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST(HashIndexFaultTest, TrailingGarbageIsDetected) {
  ScratchDir dir("promptem_fault_phx_trail");
  const std::string good = ReadFileBytes(SaveReferenceHashIndex(dir));
  const std::string victim = dir.File("trailing.phx");
  WriteFileBytes(victim, good + std::string(13, '\x5A'));
  auto opened = core::HashIndex::Open(victim);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("size"), std::string::npos)
      << opened.status().ToString();
}

TEST(HashIndexFaultTest, CorruptAttachedStoreIsRejectedWholesale) {
  // The embed-cache seam over the same files: Attach must reject a bad
  // store entirely (never a partial view) while keeping the binding
  // live, so the rebuild's next flush replaces the bad file. An old
  // "PEMEMBC1" flat cache file is just one more unusable store.
  ScratchDir dir("promptem_fault_phx_attach");
  const std::string good = ReadFileBytes(SaveReferenceHashIndex(dir));
  std::string flat = "PEMEMBC1" + U32Bytes(0x01020304u) + U32Bytes(1);
  const uint64_t flat_key = 42u;
  const float flat_value = 0.5f;
  flat += std::string(reinterpret_cast<const char*>(&flat_key),
                      sizeof(flat_key)) +
          U32Bytes(1) +
          std::string(reinterpret_cast<const char*>(&flat_value),
                      sizeof(flat_value));
  const uint64_t flat_hash = core::Fnv1a64(flat.data(), flat.size());
  flat += std::string(reinterpret_cast<const char*>(&flat_hash),
                      sizeof(flat_hash));
  const std::vector<std::pair<const char*, std::string>> stores = {
      {"flipped index", FlipByte(good, good.size() / 2, 0xFF)},
      {"old PEMEMBC1 flat file", flat},
  };
  for (const auto& [what, bytes] : stores) {
    const std::string victim = dir.File("store.phx");
    WriteFileBytes(victim, bytes);
    em::EmbeddingCache cache(64);
    const core::Status st = cache.Attach(victim);
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_NE(st.code(), core::StatusCode::kNotFound) << what;
    EXPECT_EQ(cache.PersistedEntries(), 0u)
        << what << ": partial load leaked through";
    EXPECT_EQ(cache.LiveEntries(), 0u) << what;
    EXPECT_EQ(cache.Find(flat_key), nullptr) << what;
    cache.Insert(43u, {1.0f, 2.0f});
    ASSERT_TRUE(cache.Save().ok()) << what;
    auto reopened = core::HashIndex::Open(victim);
    ASSERT_TRUE(reopened.ok()) << what << ": "
                               << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->key_count(), 1u) << what;
  }
}

TEST(HashIndexFaultTest, SigkillDuringGrowthLeavesOldOrNewGenerationOnly) {
  // The re-seal crash contract (mirrors the autosave sweep above): a
  // process killed at any instant while growing the index leaves either
  // the previous complete generation or the new one — never a torn file.
  // Every payload is a pure function of its key, so the parent verifies
  // whichever generation survived in full.
  ScratchDir dir("promptem_fault_phx_kill");
  const std::string path = dir.File("grown.phx");
  constexpr uint64_t kGen1Keys = 200;
  constexpr uint64_t kGen2Keys = 400;
  for (const int delay_us : {0, 500, 1500, 4000, 9000, 20000}) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      core::HashIndex::Options options;
      options.backend = core::HashIndex::Backend::kMmap;
      options.path = path;
      core::HashIndex index(options);
      for (uint64_t key = 1; key <= kGen1Keys; ++key) {
        const auto value = IndexValueFor(key);
        index.Add(key, 0, value.data(), value.size());
      }
      if (!index.Seal().ok()) std::_Exit(3);
      // Keep re-sealing growing generations until killed; the parent's
      // delay lands the SIGKILL inside a tmp-file write or rename.
      for (uint64_t next = kGen1Keys + 1;; next += kGen1Keys) {
        for (uint64_t key = next; key < next + kGen1Keys; ++key) {
          const auto value = IndexValueFor(key);
          index.Add(key, 0, value.data(), value.size());
        }
        if (!index.Seal().ok()) std::_Exit(3);
        if (next >= kGen2Keys) std::_Exit(0);  // bounded for delay > work
      }
    }
    ::usleep(static_cast<useconds_t>(delay_us));
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

    auto survivor = core::HashIndex::Open(path);
    if (!survivor.ok()) {
      // Killed before the first rename landed — acceptable only as "no
      // complete file yet", never as a torn one.
      EXPECT_EQ(survivor.status().code(), core::StatusCode::kNotFound)
          << "torn growth after " << delay_us
          << "us: " << survivor.status().ToString();
      continue;
    }
    const auto snapshot = survivor.value()->snapshot();
    const uint64_t keys = snapshot.key_count();
    EXPECT_EQ(keys % kGen1Keys, 0u)
        << "file holds a fractional generation (" << keys << " keys)";
    EXPECT_GE(keys, kGen1Keys);
    for (uint64_t key = 1; key <= keys; ++key) {
      const auto span = snapshot.Find(key);
      ASSERT_NE(span.data, nullptr) << "missing key " << key << " in a "
                                    << keys << "-key file";
      const auto expect = IndexValueFor(key);
      ASSERT_EQ(span.size, expect.size());
      EXPECT_EQ(std::memcmp(span.data, expect.data(), expect.size()), 0)
          << "key " << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Pair CSVs: structurally broken rows must fail with a line number.
// ---------------------------------------------------------------------------

TEST(PairsCsvFaultTest, StructurallyBrokenRowsRejected) {
  ScratchDir dir("promptem_fault_pairs");
  const std::string path = dir.File("pairs.csv");
  const std::vector<std::string> broken = {
      "0,1,1\n1,0",        // truncated row: 2 fields
      "0,1,1\n1,0,",       // empty label field
      "0,1,x\n",           // non-integer label
      "0;1;1\n",           // wrong separator: 1 field
      "0,1,2\n",           // label outside {0,1}
      "0,1,-1\n",          // unlabeled marker must not pass the loader
      "9,0,1\n",           // left index out of range
      "0,9,1\n",           // right index out of range
      "-1,0,1\n",          // negative index
      "0,1,1,0\n",         // extra field
      "a,b,c\n",           // letters everywhere
      "0, 1x, 1\n",        // garbage with embedded spaces
      "4294967296,0,1\n",  // overflows int
  };
  for (const auto& content : broken) {
    WriteFileBytes(path, content);
    auto pairs = data::LoadPairsCsv(path, 2, 2);
    EXPECT_FALSE(pairs.ok()) << "accepted: " << content;
    EXPECT_FALSE(pairs.status().message().empty());
  }
}

TEST(PairsCsvFaultTest, TruncationSweepNeverCrashesOrInventsPairs) {
  ScratchDir dir("promptem_fault_pairs_trunc");
  const std::string path = dir.File("pairs.csv");
  const std::string good = "0,1,1\n1,0,0\n1,1,1\n";
  auto reference = [&]() {
    WriteFileBytes(path, good);
    auto r = data::LoadPairsCsv(path, 2, 2);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }();
  for (size_t len = 0; len < good.size(); ++len) {
    WriteFileBytes(path, good.substr(0, len));
    auto result = data::LoadPairsCsv(path, 2, 2);
    if (!result.ok()) continue;  // detected, good
    // Line-oriented CSV cannot distinguish a file truncated exactly at a
    // row boundary from a shorter dataset; what it must never do is
    // return rows that differ from a prefix of the original.
    const auto& pairs = result.value();
    ASSERT_LE(pairs.size(), reference.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].left_index, reference[i].left_index);
      EXPECT_EQ(pairs[i].right_index, reference[i].right_index);
      EXPECT_EQ(pairs[i].label, reference[i].label);
    }
  }
}

// ---------------------------------------------------------------------------
// Relational CSV tables.
// ---------------------------------------------------------------------------

TEST(CsvTableFaultTest, BrokenTablesRejected) {
  ScratchDir dir("promptem_fault_csv");
  const std::string path = dir.File("table.csv");
  const std::vector<std::string> broken = {
      "",                        // no header at all
      "a,b\n1\n",                // row narrower than header
      "a,b\n1,2,3\n",            // row wider than header
  };
  for (const auto& content : broken) {
    WriteFileBytes(path, content);
    auto table = data::LoadCsvTable(path);
    EXPECT_FALSE(table.ok()) << "accepted: " << content;
  }
}

// ---------------------------------------------------------------------------
// JSONL tables: any mid-object truncation or structural break must fail
// with the line number attached.
// ---------------------------------------------------------------------------

TEST(JsonlFaultTest, TruncationSweepRejectsEveryPartialObject) {
  ScratchDir dir("promptem_fault_jsonl");
  const std::string path = dir.File("table.jsonl");
  const std::string line = R"({"title":"sams teach","pages":288})";
  for (size_t len = 1; len < line.size(); ++len) {
    WriteFileBytes(path, line.substr(0, len) + "\n");
    auto table = data::LoadJsonlTable(path);
    EXPECT_FALSE(table.ok()) << "accepted prefix of length " << len;
    EXPECT_NE(table.status().message().find("line 1"), std::string::npos)
        << table.status().ToString();
  }
}

TEST(JsonlFaultTest, StructuralBreaksRejected) {
  ScratchDir dir("promptem_fault_jsonl2");
  const std::string path = dir.File("table.jsonl");
  const std::vector<std::string> broken = {
      "[1,2,3]\n",                    // record must be an object
      "{\"a\":1} trailing\n",         // garbage after the object
      "{\"a\":\"\\uD83D\"}\n",        // unpaired high surrogate
      "{\"a\":\"\\uDC00\"}\n",        // lone low surrogate
      "{\"a\":\"\\uZZZZ\"}\n",        // bad escape digits
      "{\"a\":1,}\n",                 // trailing comma
      "{\"a\" 1}\n",                  // missing colon
      "{\"a\":1}\n{\"b\":\n",         // second line truncated
  };
  for (const auto& content : broken) {
    WriteFileBytes(path, content);
    auto table = data::LoadJsonlTable(path);
    EXPECT_FALSE(table.ok()) << "accepted: " << content;
  }
}

// ---------------------------------------------------------------------------
// Pre-trained LM artifacts (vocab + config + checkpoint), exercised
// through PretrainedLM::Load so corruption in any of the three files
// propagates as a Status out of the single entry point.
// ---------------------------------------------------------------------------

class LmArtifactFault : public ::testing::Test {
 protected:
  LmArtifactFault() : dir_("promptem_fault_lm") {}

  /// Fabricates a consistent (vocab, config, ckpt) triple for a tiny
  /// untrained encoder — Load never checks training quality, only
  /// structural integrity, so no pre-training is needed.
  void SetUp() override {
    text::Vocab vocab;
    for (const char* tok : {"alpha", "beta", "gamma"}) vocab.AddToken(tok);
    nn::TransformerConfig config;
    config.vocab_size = vocab.size();
    config.max_seq_len = 16;
    config.dim = 8;
    config.num_layers = 1;
    config.num_heads = 2;
    config.ffn_dim = 16;
    config.dropout = 0.1f;
    core::Rng rng(3);
    nn::TransformerEncoder encoder(config, &rng);
    ASSERT_TRUE(nn::SaveCheckpoint(encoder, Prefix() + ".ckpt").ok());
    std::string vocab_lines;
    for (int i = 0; i < vocab.size(); ++i) {
      vocab_lines += vocab.ToToken(i) + "\n";
    }
    WriteFileBytes(Prefix() + ".vocab", vocab_lines);
    WriteFileBytes(Prefix() + ".config", "10 16 8 1 2 16 0.1\n");
  }

  std::string Prefix() const { return dir_.File("lm"); }

  core::Status LoadStatus() const {
    auto lm = lm::PretrainedLM::Load(Prefix());
    return lm.ok() ? core::Status::OK() : lm.status();
  }

  ScratchDir dir_;
};

TEST_F(LmArtifactFault, IntactTripleLoads) {
  EXPECT_TRUE(LoadStatus().ok());
}

TEST_F(LmArtifactFault, VocabCorruptionRejected) {
  const std::string good = ReadFileBytes(Prefix() + ".vocab");
  const std::vector<std::string> broken = {
      "",                                      // empty file
      good + "alpha\n",                        // duplicate token
      good + "\n",                             // empty token line
      "[BAD]\n" + good.substr(good.find('\n') + 1),  // corrupt special
      good.substr(0, good.find("alpha")),      // truncated: size mismatch
  };
  for (const auto& content : broken) {
    WriteFileBytes(Prefix() + ".vocab", content);
    core::Status st = LoadStatus();
    EXPECT_FALSE(st.ok()) << "accepted vocab: " << content;
    EXPECT_FALSE(st.message().empty());
  }
}

TEST_F(LmArtifactFault, ConfigCorruptionRejected) {
  const std::vector<std::string> broken = {
      "",                          // empty
      "10 16 8 1 2 16\n",          // truncated field list
      "10 16 8 1 2 16 abc\n",      // non-numeric dropout
      "10 16 0 1 2 16 0.1\n",      // zero dim
      "10 16 8 1 3 16 0.1\n",      // heads do not divide dim
      "10 16 8 -1 2 16 0.1\n",     // negative layer count
      "10 16 999999999 1 2 16 0.1\n",  // absurd dim: bounded alloc guard
      "10 16 8 1 2 16 1.5\n",      // dropout outside [0,1)
      "99 16 8 1 2 16 0.1\n",      // vocab size disagrees with .vocab
  };
  for (const auto& content : broken) {
    WriteFileBytes(Prefix() + ".config", content);
    core::Status st = LoadStatus();
    EXPECT_FALSE(st.ok()) << "accepted config: " << content;
  }
}

TEST_F(LmArtifactFault, CheckpointCorruptionPropagates) {
  const std::string ckpt = Prefix() + ".ckpt";
  std::string bytes = ReadFileBytes(ckpt);
  WriteFileBytes(ckpt, FlipByte(bytes, bytes.size() / 2, 0xFF));
  EXPECT_FALSE(LoadStatus().ok());
  WriteFileBytes(ckpt, bytes.substr(0, bytes.size() - 5));
  EXPECT_FALSE(LoadStatus().ok());
  // The same tensors in the retired v1 layout (no endian tag, no
  // checksum), as a stale shared-LM cache would hold them: rejected, so
  // GetOrCreateSharedLM falls back to pre-training.
  WriteFileBytes(ckpt, "PEMCKPT1" + bytes.substr(12, bytes.size() - 20));
  const core::Status v1 = LoadStatus();
  EXPECT_FALSE(v1.ok());
  EXPECT_NE(v1.message().find("magic"), std::string::npos) << v1.ToString();
}

// ---------------------------------------------------------------------------
// Whole-dataset directory: a broken member file fails the load cleanly.
// ---------------------------------------------------------------------------

TEST(GemDatasetFaultTest, CorruptMemberFileFailsDirectoryLoad) {
  ScratchDir dir("promptem_fault_gem");
  WriteFileBytes(dir.File("left.csv"), "name,price\nwidget,3\ngadget,5\n");
  WriteFileBytes(dir.File("right.csv"), "name,price\nwidget,3\nsprocket,9\n");
  WriteFileBytes(dir.File("pairs_train.csv"), "0,0,1\n1,1,0\n");
  WriteFileBytes(dir.File("pairs_valid.csv"), "0,1,0\n");
  WriteFileBytes(dir.File("pairs_test.csv"), "1,0,0\n");
  ASSERT_TRUE(data::LoadGemDataset(dir.path().string(), "t").ok());

  WriteFileBytes(dir.File("pairs_train.csv"), "0,0,1\n5,5,1\n");
  auto bad_pairs = data::LoadGemDataset(dir.path().string(), "t");
  EXPECT_FALSE(bad_pairs.ok());

  WriteFileBytes(dir.File("pairs_train.csv"), "0,0,1\n1,1,0\n");
  WriteFileBytes(dir.File("left.csv"), "name,price\nwidget\n");
  auto bad_table = data::LoadGemDataset(dir.path().string(), "t");
  EXPECT_FALSE(bad_table.ok());
}

}  // namespace
}  // namespace promptem
