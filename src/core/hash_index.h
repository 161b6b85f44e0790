#ifndef PROMPTEM_CORE_HASH_INDEX_H_
#define PROMPTEM_CORE_HASH_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace promptem::core {

/// A u64-keyed open-addressing index with two interchangeable backing
/// stores: an in-RAM arena and an mmap-backed file, so the same index
/// API serves tables that fit in memory and tables that do not. This is
/// the storage layer ROADMAP item 2 calls for: the MinHash band tables,
/// the persisted embedding cache, and the serving warm-start path all
/// key u64 -> bytes, and previously each grew its own ad-hoc store.
///
/// Shape:
///  - Multi-value keys: Add(key, rank, bytes) stages one value; at Seal
///    every value staged under a key is concatenated in (rank asc,
///    payload asc) order into one packed payload — a postings list when
///    the values are int32 rights (AddPosting), an embedding blob when
///    the value is a float vector.
///  - Build is sharded-lock parallel: Add takes one of kNumShards
///    mutexes keyed by Mix64(key), so index construction can run under
///    core::ParallelFor. Determinism does NOT come from insertion order
///    (which is pool-dependent) but from Seal's global sort: the sealed
///    image is a pure function of the staged (key, rank, payload)
///    multiset, so any pool size and any insertion order produce a
///    byte-identical table — including the mmap file image.
///  - Reads are wait-free probes over an immutable sealed snapshot
///    (linear probing from Mix64(key), table kept at most half full).
///    Pinning a snapshot copies one shared_ptr under a short mutex;
///    probes through it take no lock. A Snapshot pins one sealed
///    generation: spans returned by
///    Snapshot::Find stay valid for the snapshot's lifetime even while
///    a concurrent Seal publishes a new generation.
///  - Re-Seal merges: values staged since the last Seal replace that
///    key's sealed payload; untouched sealed keys carry over (in the
///    mmap backend they stream file -> file without a RAM round trip).
///
/// Mmap file format "PEMHIDX1" (checkpoint-v2 envelope discipline):
///   header  : magic[8] | u32 endian tag | u32 version | u64 key_count
///             | u64 slot_count | u64 payload_bytes
///             | u64 FNV-1a(header bytes so far)
///   slots   : slot_count x {u64 key, u64 offset, u64 size}
///             (offset == UINT64_MAX marks an empty slot)
///   payload : payload_bytes of packed values
///   trailer : u64 FNV-1a over every preceding byte of the file
/// Growth is atomic: the merged image is written to "<path>.tmp" and
/// renamed over the live file, so a crash at any instant leaves either
/// the old complete file or the new complete one. Open treats the file
/// as adversarial input — structure checks are bounds-checked against
/// the real file size and the full-file checksum must match before a
/// single entry is trusted; corruption is rejected wholesale.
class HashIndex {
 public:
  enum class Backend { kRam, kMmap };

  struct Options {
    Backend backend = Backend::kRam;
    /// Index file for Backend::kMmap (ignored for kRam). The file is
    /// only created/updated by Seal; a missing file is an empty index.
    std::string path;
  };

  /// A borrowed view of one key's packed payload.
  struct Span {
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    bool empty() const { return size == 0; }
  };

  struct SealedState;  // opaque; owned via shared_ptr by snapshots

  /// One pinned sealed generation. Probing is wait-free and the spans
  /// it returns stay valid as long as the snapshot is alive, even if
  /// the index re-Seals concurrently.
  class Snapshot {
   public:
    Snapshot() = default;

    /// Packed payload of `key`; empty span when absent.
    Span Find(uint64_t key) const;
    /// Postings-list view: Find reinterpreted as int32 values (ascending
    /// when staged via AddPosting). Returns false when absent.
    bool FindPostings(uint64_t key, const int32_t** values,
                      size_t* count) const;

    size_t key_count() const;
    uint64_t payload_bytes() const;
    /// Sealed bytes resident on the heap (slots + payload for kRam;
    /// zero for kMmap, whose sealed bytes live in the file/page cache).
    uint64_t ram_bytes() const;
    /// Bytes of the backing file (zero for kRam).
    uint64_t file_bytes() const;

    /// Visits every sealed (key, payload) in ascending key order —
    /// pool-size invariant by construction. Builds an O(key_count)
    /// temporary ordering, so this is for seal/merge/stats paths, not
    /// per-probe use.
    void ForEach(
        const std::function<void(uint64_t key, Span payload)>& fn) const;

   private:
    friend class HashIndex;
    explicit Snapshot(std::shared_ptr<const SealedState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<const SealedState> state_;
  };

  /// An empty index over the given backing store. For kMmap the file is
  /// not touched until the first Seal.
  explicit HashIndex(Options options);
  ~HashIndex();

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// Opens an existing mmap-backed index file read-validated; the
  /// returned index can keep growing via Add + Seal. Any structural or
  /// checksum failure rejects the file wholesale with a Status naming
  /// the path, offset, and failed check.
  static Result<std::unique_ptr<HashIndex>> Open(const std::string& path);

  /// Stages one value under `key`. Thread-safe (sharded locks); the
  /// sealed result is independent of call order. `size` may be zero.
  void Add(uint64_t key, uint64_t rank, const void* data, size_t size);

  /// Stages one int32 posting; rank = value, so a key's sealed postings
  /// list is ascending regardless of insertion order.
  void AddPosting(uint64_t key, int32_t value);

  /// Publishes every staged value into a new immutable sealed
  /// generation, merging with the previous one (staged keys replace,
  /// untouched keys carry over). kMmap writes the merged image through
  /// the atomic tmp+rename path and remaps. Existing snapshots keep
  /// reading the old generation. On error nothing is published and the
  /// staged values remain staged.
  Status Seal();

  /// Pins the current sealed generation (empty before the first Seal
  /// of a kRam index / of a kMmap index with no file).
  Snapshot snapshot() const;

  Backend backend() const { return options_.backend; }
  const std::string& path() const { return options_.path; }

  // Convenience forwards to the current snapshot.
  size_t key_count() const { return snapshot().key_count(); }
  uint64_t payload_bytes() const { return snapshot().payload_bytes(); }
  uint64_t ram_bytes() const { return snapshot().ram_bytes(); }
  uint64_t file_bytes() const { return snapshot().file_bytes(); }

 private:
  static constexpr size_t kNumShards = 64;

  struct PendingEntry {
    uint64_t key;
    uint64_t rank;
    uint64_t offset;  // into the shard arena
    uint32_t size;
  };
  struct Shard {
    std::mutex mu;
    std::vector<PendingEntry> entries;
    std::vector<uint8_t> arena;
  };

  HashIndex(Options options, std::shared_ptr<const SealedState> sealed);

  /// Swaps `state` in as the current sealed generation.
  void Publish(std::shared_ptr<const SealedState> state);

  Options options_;
  std::unique_ptr<Shard[]> shards_;
  /// Seal() publishes here; snapshot() copies. Immutable after publish.
  /// A plain shared_ptr under a mutex rather than
  /// std::atomic<std::shared_ptr>, whose libstdc++ lock TSan cannot see.
  std::shared_ptr<const SealedState> sealed_;
  mutable std::mutex sealed_mu_;
  /// Serializes Seal against itself (reads never take it).
  std::mutex seal_mu_;
};

}  // namespace promptem::core

#endif  // PROMPTEM_CORE_HASH_INDEX_H_
