#include "pipeline/incremental.h"

#include <utility>

#include "core/hashing.h"

namespace promptem::em {

namespace {

/// Bound on cached pair scores.
constexpr size_t kScoreCacheCapacity = size_t{1} << 20;

/// Drops candidates touching tombstoned records from an inner blocker's
/// stream. Passing chunks through a filter preserves the stream's
/// deterministic order (it only removes elements), so the pipeline's
/// chunk-size/pool-size invariance is untouched.
class TombstoneFilterBlocker : public data::Blocker {
 public:
  TombstoneFilterBlocker(std::unique_ptr<data::Blocker> inner,
                         const std::vector<bool>* left_deleted,
                         const std::vector<bool>* right_deleted)
      : inner_(std::move(inner)),
        left_deleted_(left_deleted),
        right_deleted_(right_deleted) {}

  const char* Name() const override { return inner_->Name(); }
  size_t left_size() const override { return inner_->left_size(); }
  size_t right_size() const override { return inner_->right_size(); }
  void Reset() override { inner_->Reset(); }

  size_t NextChunk(size_t max_pairs,
                   std::vector<data::PairExample>* out) override {
    size_t appended = 0;
    // A chunk of pure tombstones must not read as exhaustion: keep
    // pulling until something survives or the inner stream truly ends.
    while (appended == 0) {
      scratch_.clear();
      if (inner_->NextChunk(max_pairs, &scratch_) == 0) break;
      for (const auto& p : scratch_) {
        if ((*left_deleted_)[static_cast<size_t>(p.left_index)] ||
            (*right_deleted_)[static_cast<size_t>(p.right_index)]) {
          continue;
        }
        out->push_back(p);
        ++appended;
      }
    }
    return appended;
  }

 private:
  std::unique_ptr<data::Blocker> inner_;
  const std::vector<bool>* left_deleted_;
  const std::vector<bool>* right_deleted_;
  std::vector<data::PairExample> scratch_;
};

}  // namespace

IncrementalMatcher::IncrementalMatcher(data::GemDataset dataset,
                                       const ScorerFactory& scorer,
                                       BlockerFactory blocker_factory,
                                       Config config)
    : dataset_(std::move(dataset)),
      config_(std::move(config)),
      blocker_factory_(std::move(blocker_factory)),
      left_version_(dataset_.left_table.size(), 0),
      right_version_(dataset_.right_table.size(), 0),
      left_deleted_(dataset_.left_table.size(), false),
      right_deleted_(dataset_.right_table.size(), false),
      score_cache_(kScoreCacheCapacity) {
  PROMPTEM_CHECK(scorer != nullptr);
  PROMPTEM_CHECK(blocker_factory_ != nullptr);
  // The matcher mutates its tables in place; a private identity keeps its
  // encoder memo entries distinct from any the caller made against the
  // pre-move dataset object.
  dataset_.RefreshCacheIdentity();
  scorer_ = scorer(dataset_);
  PROMPTEM_CHECK(scorer_ != nullptr);
}

IncrementalMatcher::IncrementalMatcher(data::GemDataset dataset,
                                       const ScorerFactory& scorer,
                                       BlockerFactory blocker_factory)
    : IncrementalMatcher(std::move(dataset), scorer,
                         std::move(blocker_factory), Config{}) {}

uint64_t IncrementalMatcher::PairScoreKey(int left_index,
                                          int right_index) const {
  const auto l = static_cast<size_t>(left_index);
  const auto r = static_cast<size_t>(right_index);
  // Folding both version counters into the key makes every cached score
  // self-invalidating: changing a record bumps its version and exactly
  // the candidates touching it stop hitting.
  return core::Combine64(
      core::Combine64(static_cast<uint64_t>(l) << 1, left_version_[l]),
      core::Combine64((static_cast<uint64_t>(r) << 1) | 1,
                      right_version_[r]));
}

void IncrementalMatcher::TouchRecord(bool left, int index) {
  auto& version = left ? left_version_ : right_version_;
  version[static_cast<size_t>(index)] += 1;
  if (config_.encoder != nullptr) {
    config_.encoder->InvalidateRecord(dataset_, left, index);
  }
}

MatchPipelineResult IncrementalMatcher::Match() {
  std::unique_ptr<data::Blocker> inner = blocker_factory_(dataset_);
  PROMPTEM_CHECK(inner != nullptr);
  TombstoneFilterBlocker blocker(std::move(inner), &left_deleted_,
                                 &right_deleted_);

  // Hits are served from the version-keyed RAM tier, or — for pairs
  // whose records are both still at version 0, i.e. bitwise the
  // constructed tables — from the restart-stable store, whose key is a
  // pure function of table indexes + content fingerprints.
  const ScoreCacheTiers tiers{&score_cache_, config_.persistent.get()};
  const auto key_of = [this, &tiers](const data::PairExample& p) {
    ScoreCacheKeys keys;
    keys.ram = PairScoreKey(p.left_index, p.right_index);
    if (tiers.store != nullptr &&
        left_version_[static_cast<size_t>(p.left_index)] == 0 &&
        right_version_[static_cast<size_t>(p.right_index)] == 0) {
      keys.store = EmbeddingCache::PairKey(config_.persistent_tag,
                                           p.left_index, p.right_index);
    }
    return keys;
  };
  ScoreCacheCounts counts;
  MatchPipeline pipeline(
      &blocker,
      [&](const std::vector<data::PairExample>& chunk) {
        return ScoreThroughCache(chunk, key_of, tiers, scorer_, &counts);
      },
      config_.pipeline);
  MatchPipelineResult result = pipeline.Run();
  // changed_records was already set by the caller.
  last_stats_.candidates = counts.hits + counts.scored;
  last_stats_.reused = counts.hits;
  last_stats_.rescored = counts.scored;
  return result;
}

MatchPipelineResult IncrementalMatcher::FullMatch() {
  last_stats_ = DeltaStats{};
  return Match();
}

MatchPipelineResult IncrementalMatcher::ApplyDelta(const RecordDelta& delta) {
  for (const auto& up : delta.upserts) {
    auto& table = up.left ? dataset_.left_table : dataset_.right_table;
    auto& version = up.left ? left_version_ : right_version_;
    auto& deleted = up.left ? left_deleted_ : right_deleted_;
    PROMPTEM_CHECK(up.index >= 0 &&
                   static_cast<size_t>(up.index) <= table.size());
    if (static_cast<size_t>(up.index) == table.size()) {
      table.push_back(up.record);
      // Version 0 means "as constructed", the store's restart-stability
      // test; an appended record never was, so another process may have
      // stored a different record's scores under this index.
      version.push_back(1);
      deleted.push_back(false);
    } else {
      table[static_cast<size_t>(up.index)] = up.record;
      deleted[static_cast<size_t>(up.index)] = false;  // upsert revives
      TouchRecord(up.left, up.index);
    }
  }
  for (const auto& del : delta.deletes) {
    auto& table = del.left ? dataset_.left_table : dataset_.right_table;
    auto& deleted = del.left ? left_deleted_ : right_deleted_;
    PROMPTEM_CHECK(del.index >= 0 &&
                   static_cast<size_t>(del.index) < table.size());
    // Tombstone: empty the record (indexes stay stable, the blocker sees
    // nothing to match) and flag it out of the candidate stream.
    table[static_cast<size_t>(del.index)] = data::Record::Relational({});
    deleted[static_cast<size_t>(del.index)] = true;
    TouchRecord(del.left, del.index);
  }
  last_stats_ = DeltaStats{};
  last_stats_.changed_records = delta.upserts.size() + delta.deletes.size();
  return Match();
}

}  // namespace promptem::em
