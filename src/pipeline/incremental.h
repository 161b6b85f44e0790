#ifndef PROMPTEM_PIPELINE_INCREMENTAL_H_
#define PROMPTEM_PIPELINE_INCREMENTAL_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/concurrent_cache.h"
#include "pipeline/match_pipeline.h"
#include "promptem/embed_cache.h"

namespace promptem::em {

/// Incremental re-matching: the serving-shaped layer over MatchPipeline.
/// An IncrementalMatcher owns a pair of tables, matches them once, then
/// accepts record upsert/delete deltas and re-matches by re-scoring ONLY
/// the candidate pairs that touch a changed record — every other
/// candidate's probability is served from a version-keyed score cache, so
/// one changed record costs O(its candidates), not O(all candidates).
///
/// Mechanics:
///  - Every record carries a version counter; an upsert or delete bumps
///    it. A candidate's score-cache key folds both records' versions, so
///    a change makes exactly the touching pairs miss — no scan, no
///    explicit invalidation of the candidate set.
///  - Deletes are tombstones: the record stays in the table (emptied) so
///    indexes stay stable, and a filter around the blocker drops any
///    candidate touching a deleted record.
///  - Each match rebuilds the blocker over the current tables. With
///    data::MinHashBlocker the rebuild recomputes band keys only for
///    records whose content it has not seen (its process-wide memo),
///    but it still re-packs every band table and re-probes every left:
///    the rebuild stays O(table), the re-scoring O(delta).
///
/// Determinism: the scorer is the deterministic eval engine, so a cached
/// probability is bitwise the probability a fresh match would compute.
/// ApplyDelta's result equals a from-scratch FullMatch over the same
/// final tables (cache_test pins this).

/// Replaces (or appends, when `index == table size`) one record.
struct RecordUpsert {
  bool left = true;  ///< which table
  int index = 0;
  data::Record record;
};

/// Tombstones one record: it leaves the candidate stream permanently.
struct RecordDelete {
  bool left = true;
  int index = 0;
};

/// One batch of changes applied atomically before re-matching.
struct RecordDelta {
  std::vector<RecordUpsert> upserts;
  std::vector<RecordDelete> deletes;
};

/// What one re-match actually paid.
struct DeltaStats {
  size_t changed_records = 0;  ///< upserts + deletes applied
  size_t candidates = 0;       ///< candidate pairs in the re-match
  size_t rescored = 0;         ///< pairs scored by the model
  size_t reused = 0;           ///< pairs served from the score cache
};

class IncrementalMatcher {
 public:
  /// Builds the chunk scorer over the matcher's owned dataset (called
  /// once, at construction — the reference stays valid for the matcher's
  /// lifetime).
  using ScorerFactory =
      std::function<ChunkScoreFn(const data::GemDataset& dataset)>;
  /// Builds a fresh blocker over the current tables (called per match).
  using BlockerFactory = std::function<std::unique_ptr<data::Blocker>(
      const data::GemDataset& dataset)>;

  struct Config {
    MatchPipelineConfig pipeline;
    /// When set, upserts/deletes also drop the encoder's token memo for
    /// the changed record (pass the encoder the scorer uses).
    const PairEncoder* encoder = nullptr;
    /// Restart-stable persistence seam. The in-process score cache is
    /// version-keyed with in-process counters, so it cannot survive a
    /// restart; pairs whose records are both still at version 0 (i.e.
    /// bitwise the constructed tables; appended records start at 1)
    /// additionally consult/populate this shared EmbeddingCache under
    /// `persistent_tag` through ScoreThroughCache, so a fresh matcher
    /// over the same corpus re-scores nothing a previous process
    /// already scored — read in place from the store's mapping, the
    /// warm start never materializes the full store.
    std::shared_ptr<EmbeddingCache> persistent;
    /// Content-fingerprint tag (EmbeddingCache::ContextTag) scoping the
    /// persistent keys to this dataset + scorer.
    uint64_t persistent_tag = 0;
  };

  IncrementalMatcher(data::GemDataset dataset, const ScorerFactory& scorer,
                     BlockerFactory blocker_factory, Config config);
  /// Default configuration (defined out of line: nested-class member
  /// initializers are unusable in default arguments here).
  IncrementalMatcher(data::GemDataset dataset, const ScorerFactory& scorer,
                     BlockerFactory blocker_factory);

  /// Matches the current tables from scratch, filling the score cache.
  MatchPipelineResult FullMatch();

  /// Applies `delta` to the tables, then re-matches. Only candidates
  /// touching changed records are re-scored (see last_stats()).
  MatchPipelineResult ApplyDelta(const RecordDelta& delta);

  const data::GemDataset& dataset() const { return dataset_; }
  const DeltaStats& last_stats() const { return last_stats_; }
  core::ConcurrentCache<ProbPair>::Stats cache_stats() const {
    return score_cache_.stats();
  }

 private:
  MatchPipelineResult Match();
  uint64_t PairScoreKey(int left_index, int right_index) const;
  void TouchRecord(bool left, int index);

  data::GemDataset dataset_;
  Config config_;
  ChunkScoreFn scorer_;
  BlockerFactory blocker_factory_;
  /// Version per record, bumped on every change; deleted records keep
  /// a tombstone flag so the blocker filter can drop them.
  std::vector<uint64_t> left_version_;
  std::vector<uint64_t> right_version_;
  std::vector<bool> left_deleted_;
  std::vector<bool> right_deleted_;
  /// Holds up to 2^20 pair scores; eviction only costs re-scoring.
  core::ConcurrentCache<ProbPair> score_cache_;
  DeltaStats last_stats_;
};

}  // namespace promptem::em

#endif  // PROMPTEM_PIPELINE_INCREMENTAL_H_
