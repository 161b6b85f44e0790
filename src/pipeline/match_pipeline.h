#ifndef PROMPTEM_PIPELINE_MATCH_PIPELINE_H_
#define PROMPTEM_PIPELINE_MATCH_PIPELINE_H_

#include <functional>
#include <vector>

#include "data/blocking.h"
#include "promptem/encoding.h"
#include "promptem/metrics.h"
#include "promptem/promptem.h"
#include "promptem/scoring.h"
#include "train/registry.h"

namespace promptem::em {

/// The streaming end of the classic block -> score -> match workflow:
/// MatchPipeline pulls bounded candidate chunks from a data::Blocker,
/// scores each chunk through the batched engine, and folds the
/// predictions into incremental metrics and a bounded top-k match list.
/// Nothing proportional to the candidate count is ever materialized —
/// peak memory is O(chunk_size) plus the blocker's index — which is what
/// makes all-pairs-scale tables (ROADMAP item 2) feasible.
///
/// Determinism: the blocker's candidate stream is chunk-size invariant
/// and every chunk is scored by ScoreBatch, whose per-sample eval
/// forwards are independent and seed-fixed. The per-candidate
/// probabilities are therefore bitwise identical to one one-shot
/// ScoreBatch call over the drained candidate list, for any chunk size
/// and any PROMPTEM_NUM_THREADS (pipeline_test pins this).

/// One retained match: a candidate whose P(yes) cleared the threshold.
struct ScoredMatch {
  int left_index = 0;
  int right_index = 0;
  float pos_prob = 0.0f;
};

struct MatchPipelineConfig {
  /// Max candidates pulled and scored per chunk — the memory bound.
  size_t chunk_size = 4096;
  /// P(yes) >= threshold declares a match.
  float threshold = 0.5f;
  /// Highest-P(yes) matches retained (0 disables tracking). Selection is
  /// by (pos_prob desc, left asc, right asc) — a total order, so the
  /// retained set is chunk-size invariant.
  size_t top_k_matches = 10;
  /// Optional gold oracle (left, right) -> {0, 1, data::kUnlabeledLabel}.
  /// When set, each candidate is labeled before scoring and labeled
  /// candidates fold into MatchPipelineResult::metrics.
  std::function<int(int, int)> gold_label;
  /// Optional per-candidate observer, invoked in stream order with the
  /// candidate (gold label attached when gold_label is set) and its
  /// probabilities. Parity tests and exporters hook in here.
  std::function<void(const data::PairExample&, ProbPair)> on_scored;
};

struct MatchPipelineResult {
  size_t candidates = 0;  ///< total candidates scored
  size_t chunks = 0;      ///< chunks pulled from the blocker
  size_t matches = 0;     ///< predictions above threshold
  size_t labeled = 0;     ///< candidates with a gold label (gold_label set)
  size_t unlabeled = 0;   ///< candidates without one
  size_t max_chunk = 0;   ///< largest chunk actually scored (bound check)
  /// Incremental metrics over the labeled candidates only.
  Metrics metrics;
  /// Retained matches, sorted (pos_prob desc, left asc, right asc).
  std::vector<ScoredMatch> top_matches;
};

class MatchPipeline {
 public:
  /// `blocker` is Reset() on construction and must outlive the pipeline.
  MatchPipeline(data::Blocker* blocker, ChunkScoreFn scorer,
                MatchPipelineConfig config = {});

  /// Pulls and scores one chunk; false when the stream is exhausted.
  bool Step();

  /// Steps to exhaustion and returns the final fold.
  MatchPipelineResult Run();

  /// The fold so far (top_matches unsorted until the stream ends).
  const MatchPipelineResult& result() const { return result_; }

 private:
  void FoldChunk(const std::vector<data::PairExample>& chunk,
                 const std::vector<ProbPair>& probs);

  data::Blocker* blocker_;
  ChunkScoreFn scorer_;
  MatchPipelineConfig config_;
  MatchPipelineResult result_;
  std::vector<data::PairExample> chunk_;  // reused across Steps
  bool finalized_ = false;
};

/// The standard scorer: encodes each chunk against `dataset`'s tables via
/// `encoder` (whose per-record memo makes re-touched records free) and
/// runs the batched ScoreBatch engine. All three pointers must outlive
/// the returned function.
ChunkScoreFn MakeClassifierChunkScorer(PairClassifier* model,
                                       const PairEncoder* encoder,
                                       const data::GemDataset* dataset);

/// Wraps two raw tables in a pair-less GemDataset — the CLI's table-match
/// mode input shape (no gold pairs, just tables to block and score).
data::GemDataset MakeTableDataset(std::string name,
                                  std::vector<data::Record> left,
                                  std::vector<data::Record> right);

/// Table-match through the MatcherRegistry face: streams blocker chunks
/// through Matcher::ScoreProbs (ctx.dataset must hold the tables the
/// blocker indexes). Classifier-backed matchers yield calibrated P(yes),
/// so top_matches ranks by real confidence; matchers without a
/// probabilistic head degrade to {1,0}/{0,1} one-hots (candidate-order
/// ranking).
MatchPipelineResult RunTableMatch(train::Matcher* matcher,
                                  const train::MatcherContext& ctx,
                                  data::Blocker* blocker,
                                  const MatchPipelineConfig& config = {});

}  // namespace promptem::em

#endif  // PROMPTEM_PIPELINE_MATCH_PIPELINE_H_
