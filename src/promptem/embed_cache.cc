#include "promptem/embed_cache.h"

#include <cstring>
#include <utility>

#include "core/hashing.h"
#include "core/log.h"

namespace promptem::em {

EmbeddingCache::EmbeddingCache(size_t capacity) : cache_(capacity) {}

uint64_t EmbeddingCache::ContextTag(uint64_t dataset_fingerprint,
                                    uint64_t model_fingerprint) {
  return core::Combine64(dataset_fingerprint, model_fingerprint);
}

uint64_t EmbeddingCache::PairKey(uint64_t context_tag, int left_index,
                                 int right_index) {
  const uint64_t pair =
      (static_cast<uint64_t>(static_cast<uint32_t>(left_index)) << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(right_index));
  return core::Combine64(context_tag, pair);
}

std::shared_ptr<const std::vector<float>> EmbeddingCache::Find(uint64_t key) {
  if (auto hit = cache_.Find(key)) return hit;
  if (!base_) return nullptr;
  // Fall through to the mapped store: the entry is copied out of the
  // mapping on first touch only — a restart never materializes the
  // untouched remainder of the file.
  const core::HashIndex::Span span = base_->snapshot().Find(key);
  if (span.data == nullptr || span.size % sizeof(float) != 0) return nullptr;
  auto value = std::make_shared<std::vector<float>>(span.size / sizeof(float));
  std::memcpy(value->data(), span.data, static_cast<size_t>(span.size));
  // Read-through into the overlay so repeat touches stay in-process.
  // Straight into cache_ (not Insert) so warm reads never trip autosave.
  cache_.Insert(key, *value);
  return value;
}

core::Status EmbeddingCache::Attach(const std::string& path) {
  auto opened = core::HashIndex::Open(path);
  if (opened.ok()) {
    base_ = std::move(opened).value();
    return core::Status::OK();
  }
  // No store yet, or an unusable one: bind an empty index at `path` so
  // the first flush creates (or replaces) the file, and report why.
  core::HashIndex::Options options;
  options.backend = core::HashIndex::Backend::kMmap;
  options.path = path;
  base_ = std::make_shared<core::HashIndex>(options);
  return opened.status();
}

void EmbeddingCache::Insert(uint64_t key, std::vector<float> embedding) {
  cache_.Insert(key, std::move(embedding));
  const size_t every = autosave_every_.load(std::memory_order_relaxed);
  if (every == 0) return;
  const uint64_t n = insert_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % every == 0) MaybeAutosave();
}

void EmbeddingCache::EnableAutosave(size_t every_n_inserts) {
  autosave_every_.store(every_n_inserts, std::memory_order_relaxed);
}

void EmbeddingCache::MaybeAutosave() {
  // try_lock: if a flush is already running, this insert's trigger is
  // covered by it (the running flush snapshots the cache after our
  // insert or the next trigger fires soon) — never stall the inserter
  // behind disk I/O twice.
  std::unique_lock<std::mutex> lock(save_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  const core::Status saved = SaveUnlocked();
  if (saved.ok()) {
    autosave_flushes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    PROMPTEM_LOG(Warn) << "embedding cache autosave failed: "
                       << saved.ToString();
  }
}

core::Status EmbeddingCache::Save() {
  std::lock_guard<std::mutex> lock(save_mu_);
  return SaveUnlocked();
}

core::Status EmbeddingCache::SaveUnlocked() const {
  if (!base_) {
    return core::Status::FailedPrecondition(
        "embedding cache has no attached store");
  }
  // Re-staging an unchanged entry replaces it with identical bytes, so
  // repeated flushes converge on the same image.
  cache_.ForEachLive(
      [&](uint64_t key, const std::shared_ptr<const std::vector<float>>& v) {
        base_->Add(key, 0, v->data(), v->size() * sizeof(float));
      });
  return base_->Seal();
}

namespace {
std::mutex g_embed_cache_mu;
std::shared_ptr<EmbeddingCache> g_embed_cache;
}  // namespace

std::shared_ptr<EmbeddingCache> GetGlobalEmbeddingCache() {
  std::lock_guard<std::mutex> lock(g_embed_cache_mu);
  return g_embed_cache;
}

void SetGlobalEmbeddingCache(std::shared_ptr<EmbeddingCache> cache) {
  std::lock_guard<std::mutex> lock(g_embed_cache_mu);
  g_embed_cache = std::move(cache);
}

}  // namespace promptem::em
