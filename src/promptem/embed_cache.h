#ifndef PROMPTEM_PROMPTEM_EMBED_CACHE_H_
#define PROMPTEM_PROMPTEM_EMBED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/concurrent_cache.h"
#include "core/hash_index.h"
#include "core/status.h"

namespace promptem::em {

/// Persistent cache of per-pair embeddings (the EmbedBatch output the
/// clustering pseudo-label strategy recomputes every self-training
/// iteration, and a restart recomputes for the whole corpus).
///
/// Keys are 64-bit composites the caller builds with ContextTag/PairKey
/// from content fingerprints — data::DatasetFingerprint for the tables,
/// nn::ParameterFingerprint for the model that embeds them — plus the
/// pair's table indexes. Content fingerprints survive process restarts
/// (unlike in-process identity counters), which is what makes the
/// persisted file useful: after a reload, the same dataset + the same
/// deterministically-initialized model rebuild the same keys and hit.
/// A different dataset, a different model, or an updated weight simply
/// never hits — no explicit invalidation protocol is needed.
///
/// Only deterministic embeddings may be cached: the value must be a pure
/// function of the key. MC-Dropout outputs are stochastic by design and
/// must never go through this cache.
class EmbeddingCache {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 18;

  explicit EmbeddingCache(size_t capacity = kDefaultCapacity);

  std::shared_ptr<const std::vector<float>> Find(uint64_t key);
  void Insert(uint64_t key, std::vector<float> embedding);

  core::ConcurrentCache<std::vector<float>>::Stats stats() const {
    return cache_.stats();
  }
  size_t LiveEntries() const { return cache_.LiveEntries(); }

  /// Binds this cache to a persistent core::HashIndex store ("PEMHIDX1")
  /// at `path`. Entries are read in place from the mapping on first
  /// touch, so a restart warm-starts without round-tripping the whole
  /// store through RAM. Returns NotFound when no file exists yet (the
  /// store is still attached — a cold start). Any unusable file —
  /// corrupt, truncated, or in another format — is rejected wholesale:
  /// nothing of it is trusted, the in-process entries are untouched, and
  /// the binding stays live so the next Save replaces the file. Call
  /// before the cache is shared across threads.
  core::Status Attach(const std::string& path);

  /// Keys in the attached store (0 when unattached).
  size_t PersistedEntries() const {
    return base_ ? base_->key_count() : 0;
  }

  /// Flushes to the attached store: only the in-process entries are
  /// staged, and everything already persisted streams file -> file
  /// inside the index's atomic tmp+rename grow, so a crash at any
  /// instant leaves the old complete file or the new one — never a torn
  /// write. Serialized against autosave, so it is also the signal
  /// handlers' flush. FailedPrecondition when unattached.
  core::Status Save();

  /// Crash-durable persistence: after every `every_n_inserts` Inserts the
  /// inserting thread Saves. Without it a cache is only persisted by an
  /// explicit end-of-run Save, so a crash or Ctrl-C loses every warm
  /// entry; with it at most every_n_inserts-1 entries are ever at risk
  /// (fault_injection_test kills mid-flush to pin this). Concurrent
  /// triggers collapse into one flush; a flush already in progress is
  /// skipped, not queued. Pass 0 to disable again.
  void EnableAutosave(size_t every_n_inserts);

  /// Autosave flushes completed so far (observability / tests).
  uint64_t autosave_flushes() const {
    return autosave_flushes_.load(std::memory_order_relaxed);
  }

  /// Tag identifying one (dataset, model) embedding context from
  /// restart-stable content fingerprints.
  static uint64_t ContextTag(uint64_t dataset_fingerprint,
                             uint64_t model_fingerprint);

  /// Key of one pair's embedding within a context.
  static uint64_t PairKey(uint64_t context_tag, int left_index,
                          int right_index);

 private:
  core::Status SaveUnlocked() const;
  /// Flush if no other flush is running (never blocks the inserter).
  void MaybeAutosave();

  core::ConcurrentCache<std::vector<float>> cache_;

  // The attached store. Written only by Attach (before the cache is
  // shared); the index itself is internally thread-safe (snapshot
  // reads, seals serialized under save_mu_).
  std::shared_ptr<core::HashIndex> base_;

  // `save_mu_` serializes every flush (autosave or Save) so two threads
  // can never interleave writes to the store's tmp file.
  std::mutex save_mu_;
  std::atomic<size_t> autosave_every_{0};
  std::atomic<uint64_t> insert_count_{0};
  std::atomic<uint64_t> autosave_flushes_{0};
};

/// Process-global embedding cache, installed by the CLI when the user
/// passes --embed-cache (null when absent). Returned as shared_ptr so a
/// concurrent re-install can never free a cache under a user.
std::shared_ptr<EmbeddingCache> GetGlobalEmbeddingCache();
void SetGlobalEmbeddingCache(std::shared_ptr<EmbeddingCache> cache);

}  // namespace promptem::em

#endif  // PROMPTEM_PROMPTEM_EMBED_CACHE_H_
