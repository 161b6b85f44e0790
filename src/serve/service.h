#ifndef PROMPTEM_SERVE_SERVICE_H_
#define PROMPTEM_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/dataset.h"
#include "promptem/embed_cache.h"
#include "serve/batch_queue.h"
#include "serve/protocol.h"
#include "train/registry.h"

namespace promptem::serve {

/// The resident scoring core of promptem_serve: owns the loaded tables,
/// the trained matchers, and the per-matcher score cache; turns batches
/// of admitted requests into coalesced Matcher::ScoreProbs sweeps.
///
/// Trained once, scored many: TrainAll pays the full training cost at
/// daemon startup (models load/pre-train through the shared LM exactly
/// like the CLI), after which every request is a graph-free batched
/// engine sweep. Because each pair's eval score is a pure function of
/// the pair — independent of batch composition, pool size, and cache
/// state — coalescing concurrent requests into one sweep, slicing the
/// results back out, and caching them per (dataset, matcher, options)
/// are all bitwise-invisible: a served score is identical to the CLI
/// one-shot path (serve_test pins this).
///
/// Thread model: Score/HandleBatch must be called from one scorer thread
/// at a time (matcher models are not concurrently re-entrant); stats,
/// InfoJson and the score cache are safe to read from anywhere.
class MatchService {
 public:
  struct Config {
    /// Benchmark family of the loaded dataset (MatcherContext::kind).
    data::BenchmarkKind kind = data::BenchmarkKind::kRelHeter;
    /// Served when a request names no matcher.
    std::string default_matcher = "PromptEM";
    /// Additional matchers to train at startup. Requests naming anything
    /// else are answered `unknown_matcher` — a resident server never
    /// hides a multi-minute training stall behind a match request.
    std::vector<std::string> matchers;
    /// Optional persistent score store. Served {P(no), P(yes)} results
    /// are cached as dim-2 embeddings under restart-stable keys
    /// (dataset fingerprint x matcher name x run options), so a daemon
    /// restarted over the same tables and seed warm-starts: previously
    /// served pairs hit without touching the model. Also installable as
    /// the global embedding cache so startup training's clustering
    /// sweeps share the file. The warm start reads the attached store in
    /// place from its mapping — a daemon restart over a beyond-RAM
    /// corpus never materializes the full cache (InfoJson reports the
    /// mapped entry count as `score_cache_persisted`).
    std::shared_ptr<em::EmbeddingCache> score_cache;
  };

  struct Stats {
    uint64_t requests = 0;       ///< match requests resolved
    uint64_t pairs_scored = 0;   ///< pairs through ScoreProbs (misses)
    uint64_t score_hits = 0;     ///< pairs served from the score cache
    uint64_t expired = 0;        ///< resolved deadline_exceeded
    uint64_t rejected = 0;       ///< bad_request / unknown_matcher
    uint64_t sweeps = 0;         ///< coalesced ScoreProbs calls
  };

  /// Takes ownership of the dataset and split (they must outlive every
  /// matcher, and matchers hold encoder state pointing at them).
  MatchService(const lm::PretrainedLM* lm, data::GemDataset dataset,
               data::LowResourceSplit split, train::RunOptions options,
               Config config);

  /// Creates and trains every configured matcher (the startup cost).
  /// Fails fast on an unknown name — before training anything.
  core::Status TrainAll(train::TrainObserver* observer = nullptr);

  /// Resolves one request synchronously as a one-request HandleBatch, so
  /// batch_size is this request's own pair count.
  MatchResponse Score(const MatchRequest& request);

  /// Resolves a coalesced batch: expired requests complete with
  /// deadline_exceeded (unscored), the rest group by matcher, each group
  /// rides one ScoreProbs sweep, and every PendingRequest::complete is
  /// invoked exactly once.
  void HandleBatch(std::vector<PendingRequest> batch);

  /// Pre-serialized JSON object for `{"op": "info"}` requests.
  std::string InfoJson() const;

  bool HasMatcher(const std::string& name) const;
  const data::GemDataset& dataset() const { return dataset_; }
  const std::string& default_matcher() const {
    return config_.default_matcher;
  }
  Stats stats() const;

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<train::Matcher> matcher;
    uint64_t context_tag = 0;  ///< score-cache key namespace
  };

  Entry* FindEntry(const std::string& name);
  const Entry* FindEntry(const std::string& name) const;

  /// ScoreProbs through em::ScoreThroughCache over the score cache:
  /// hits are copied out, misses ride one sweep and are inserted for
  /// next time. Bitwise equal to the uncached sweep.
  std::vector<std::array<float, 2>> ScoreCached(
      Entry* entry, const std::vector<data::PairExample>& pairs);

  /// Validates a match request against the loaded tables; fills and
  /// returns false via `error` on rejection.
  bool ValidateRequest(const MatchRequest& request, Entry** entry,
                       MatchResponse* error);

  const lm::PretrainedLM* lm_;
  data::GemDataset dataset_;
  data::LowResourceSplit split_;
  train::MatcherContext ctx_;
  Config config_;
  std::vector<Entry> entries_;
  bool trained_ = false;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pairs_scored_{0};
  std::atomic<uint64_t> score_hits_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> sweeps_{0};
};

}  // namespace promptem::serve

#endif  // PROMPTEM_SERVE_SERVICE_H_
