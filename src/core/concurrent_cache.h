#ifndef PROMPTEM_CORE_CONCURRENT_CACHE_H_
#define PROMPTEM_CORE_CONCURRENT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/hashing.h"
#include "core/status.h"

namespace promptem::core {

/// A bounded-capacity concurrent cache: 64-bit keys -> shared immutable
/// values. The per-record building block behind the token-encoding memo
/// (em::PairEncoder), the embedding cache (em::EmbeddingCache), and the
/// incremental matcher's score reuse.
///
/// Design (the openaddr/cachechain shape, simplified to the cache
/// contract where losing an entry is always legal):
///  - Sharded: the mixed key selects one of `shards` independent tables,
///    so concurrent inserts/finds contend only per shard. Each shard is
///    guarded by its own mutex — entries move between threads only via
///    the shard lock, which keeps every interleaving TSan-clean.
///  - Open addressing inside a shard: power-of-two slot array, linear
///    probing, backward-shift deletion (no tombstones, probe chains stay
///    short under churn). The array starts at kMinShardSlots and doubles
///    (rehashed under the shard lock) whenever an insert would pass half
///    full, up to the size that holds the shard's capacity at half load,
///    so a big, mostly empty cache costs what it holds.
///  - Fixed capacity with CLOCK / second-chance eviction: a hit sets the
///    slot's reference bit; when a full shard inserts, a clock hand
///    sweeps the slots, clearing reference bits until it finds a cold
///    entry to evict. Hot entries survive scan pressure.
///  - Generation-counter invalidation: entries are stamped with the cache
///    generation at insert; Invalidate() bumps the counter and every
///    older entry becomes a miss (and is reclaimed lazily when next
///    touched or swept).
///
/// Values are handed out as shared_ptr<const V>: eviction can race with a
/// reader holding the value, and immutability is what makes a racy
/// double-compute of the same key harmless — both threads insert
/// bitwise-identical values (callers must only cache pure functions of
/// the key).
///
/// Determinism: the cache never changes *what* a caller computes, only
/// whether it recomputes it. Callers that fill output slot i from
/// Find-or-compute therefore stay bitwise identical at any pool size.
template <typename V>
class ConcurrentCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;  ///< live entries (any generation)
    uint64_t slots = 0;    ///< slots provisioned across all shards
  };

  /// `capacity` bounds the total live entries (>= 1). `shards` must be a
  /// power of two; 0 picks a default that keeps per-shard contention low
  /// without shattering tiny caches.
  explicit ConcurrentCache(size_t capacity, size_t shards = 0) {
    PROMPTEM_CHECK(capacity >= 1);
    if (shards == 0) {
      shards = 1;
      while (shards < 16 && shards * kMinShardSlots <= capacity) shards *= 2;
    }
    PROMPTEM_CHECK((shards & (shards - 1)) == 0);
    shard_mask_ = shards - 1;
    const size_t per_shard = (capacity + shards - 1) / shards;
    size_t max_slots = 1;
    // Final slot count sized so the capacity cap (not the load factor) is
    // what triggers eviction: probe chains stay short at full capacity.
    while (max_slots < per_shard * 2) max_slots *= 2;
    shards_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(per_shard, max_slots));
    }
    capacity_ = per_shard * shards;
  }

  /// Looks up `key`; null on miss (absent or stale generation). A hit
  /// sets the entry's reference bit (second chance).
  std::shared_ptr<const V> Find(uint64_t key) {
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t idx = shard.Locate(key);
    if (idx == kNotFound) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    Slot& slot = shard.slots[idx];
    if (slot.generation != gen) {
      // Stale: reclaim the slot now so dead generations don't squat on
      // capacity until the clock hand reaches them.
      shard.EraseAt(idx);
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    slot.referenced = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return slot.value;
  }

  /// Inserts `value` under `key`, evicting one cold entry if the shard is
  /// at capacity. If the key is already present (another thread computed
  /// it first), the existing value wins and is returned — callers cache
  /// pure functions, so both are identical anyway.
  std::shared_ptr<const V> Insert(uint64_t key, V value) {
    auto shared = std::make_shared<const V>(std::move(value));
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t existing = shard.Locate(key);
    if (existing != kNotFound) {
      Slot& slot = shard.slots[existing];
      if (slot.generation == gen) return slot.value;
      // Same key from a dead generation: replace in place.
      slot.generation = gen;
      slot.value = std::move(shared);
      slot.referenced = true;
      return slot.value;
    }
    if (shard.size >= shard.cap) {
      shard.EvictOne(gen);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return shard.InsertNew(key, gen, std::move(shared));
  }

  /// Find-or-compute: `fn()` runs without any lock held (it is expensive
  /// — that is why it is being cached), so two threads may compute the
  /// same key concurrently; the first insert wins.
  template <typename Fn>
  std::shared_ptr<const V> GetOrCompute(uint64_t key, Fn&& fn) {
    if (auto hit = Find(key)) return hit;
    return Insert(key, fn());
  }

  /// Removes one key (no-op when absent). Precise invalidation for
  /// callers that know exactly which entry went stale (record upserts).
  void Erase(uint64_t key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t idx = shard.Locate(key);
    if (idx != kNotFound) shard.EraseAt(idx);
  }

  /// Bumps the generation: every current entry becomes a miss. O(1); the
  /// slots are reclaimed lazily (stale Find, clock sweep) rather than
  /// eagerly scanned.
  void Invalidate() { generation_.fetch_add(1, std::memory_order_acq_rel); }

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Total capacity actually provisioned (>= the constructor request,
  /// rounded up to whole shards).
  size_t capacity() const { return capacity_; }

  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      s.entries += shard->size;
      s.slots += shard->slots.size();
    }
    return s;
  }

  /// Visits every current-generation entry as fn(key, value). Shards are
  /// locked one at a time; `fn` must not call back into the cache.
  /// Visit order is unspecified — persistence sorts by key for a stable
  /// file image.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const Slot& slot : shard->slots) {
        if (slot.used && slot.generation == gen) fn(slot.key, slot.value);
      }
    }
  }

  /// Live entries whose generation is current (walks every shard).
  size_t LiveEntries() const {
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    size_t n = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const Slot& slot : shard->slots) {
        if (slot.used && slot.generation == gen) ++n;
      }
    }
    return n;
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  static constexpr size_t kMinShardSlots = 64;

  struct Slot {
    uint64_t key = 0;
    uint64_t generation = 0;
    std::shared_ptr<const V> value;
    bool used = false;
    bool referenced = false;
  };

  struct Shard {
    Shard(size_t cap_in, size_t max_slots_in)
        : cap(cap_in),
          max_slots(max_slots_in),
          slots(std::min(kMinShardSlots, max_slots_in)) {
      PROMPTEM_CHECK(cap >= 1 && cap < max_slots);
    }

    size_t Mask() const { return slots.size() - 1; }

    /// Slot index of `key`, or kNotFound. Caller holds mu.
    size_t Locate(uint64_t key) const {
      size_t i = static_cast<size_t>(Mix64(key)) & Mask();
      while (slots[i].used) {
        if (slots[i].key == key) return i;
        i = (i + 1) & Mask();
      }
      return kNotFound;
    }

    /// First free slot on `key`'s probe path. Caller holds mu.
    Slot& FreeSlotFor(uint64_t key) {
      size_t i = static_cast<size_t>(Mix64(key)) & Mask();
      while (slots[i].used) i = (i + 1) & Mask();
      return slots[i];
    }

    std::shared_ptr<const V> InsertNew(uint64_t key, uint64_t gen,
                                       std::shared_ptr<const V> value) {
      if ((size + 1) * 2 > slots.size() && slots.size() < max_slots) Grow();
      Slot& slot = FreeSlotFor(key);
      slot.key = key;
      slot.generation = gen;
      slot.value = std::move(value);
      slot.used = true;
      slot.referenced = true;
      ++size;
      return slot.value;
    }

    /// Doubles the slot array and rehashes every entry into it, stale
    /// generations included (Find and the clock hand reclaim those).
    /// Caller holds mu.
    void Grow() {
      std::vector<Slot> old(slots.size() * 2);
      old.swap(slots);
      for (Slot& entry : old) {
        if (entry.used) FreeSlotFor(entry.key) = std::move(entry);
      }
      hand = 0;
    }

    /// Backward-shift deletion: closes the probe chain so no tombstones
    /// are needed. Caller holds mu.
    void EraseAt(size_t idx) {
      slots[idx].value.reset();
      slots[idx].used = false;
      --size;
      size_t hole = idx;
      size_t i = (idx + 1) & Mask();
      while (slots[i].used) {
        const size_t home = static_cast<size_t>(Mix64(slots[i].key)) & Mask();
        // Move slot i back into the hole iff the hole lies on i's probe
        // path (cyclic interval test home..i covers hole).
        const bool moves = ((i - home) & Mask()) >= ((i - hole) & Mask());
        if (moves) {
          slots[hole] = std::move(slots[i]);
          slots[i].value.reset();
          slots[i].used = false;
          hole = i;
        }
        i = (i + 1) & Mask();
      }
    }

    /// CLOCK second chance: sweep from the hand, clearing reference bits;
    /// evict the first unreferenced entry. Stale-generation entries are
    /// evicted on sight (no second chance for dead data). Terminates: the
    /// sweep clears bits as it goes, so the second lap finds a victim.
    void EvictOne(uint64_t gen) {
      for (;;) {
        hand = (hand + 1) & Mask();
        Slot& slot = slots[hand];
        if (!slot.used) continue;
        if (slot.generation != gen || !slot.referenced) {
          EraseAt(hand);
          // EraseAt may shift a later entry into `hand`; stepping the
          // hand forward next sweep is still fair enough for CLOCK.
          return;
        }
        slot.referenced = false;
      }
    }

    mutable std::mutex mu;
    size_t cap;
    size_t max_slots;  ///< final slot count, reached before `cap` entries
    size_t size = 0;
    size_t hand = 0;
    std::vector<Slot> slots;
  };

  Shard& ShardFor(uint64_t key) {
    return *shards_[static_cast<size_t>(Mix64(key ^ kShardSalt)) &
                    shard_mask_];
  }

  /// Shard selection is salted so it never correlates with the in-shard
  /// probe position (both are Mix64 of the key).
  static constexpr uint64_t kShardSalt = 0xA5A5A5A55A5A5A5Aull;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  size_t capacity_ = 0;
  std::atomic<uint64_t> generation_{1};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace promptem::core

#endif  // PROMPTEM_CORE_CONCURRENT_CACHE_H_
