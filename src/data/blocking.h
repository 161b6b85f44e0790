#ifndef PROMPTEM_DATA_BLOCKING_H_
#define PROMPTEM_DATA_BLOCKING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hash_index.h"
#include "data/dataset.h"

namespace promptem::data {

/// Blocking — the first stage of the classic EM workflow (paper §2.1):
/// cheaply prunes the quadratic candidate space before the matcher runs.
/// The paper focuses on matching and assumes candidates exist; this
/// module supplies that substrate so the library covers the full
/// workflow on user data.
///
/// Blocker is the streaming face of that substrate. Candidates are pulled
/// in bounded chunks rather than materialized all at once, so the
/// downstream chunked scorer (em::MatchPipeline) runs all-pairs-scale
/// tables in memory bounded by the chunk size, not the candidate count.
///
/// Contract:
///  - NextChunk appends at most `max_pairs` candidates and returns the
///    number appended; 0 means the stream is exhausted.
///  - Every emitted pair carries label == kUnlabeledLabel (the blocker
///    proposes; it never labels).
///  - The candidate sequence is deterministic: the concatenation of all
///    chunks is a fixed function of the construction inputs, independent
///    of chunk sizes and of PROMPTEM_NUM_THREADS. Downstream scoring
///    order (and thus any order-sensitive reduction) is therefore bitwise
///    reproducible.
///  - Reset rewinds the stream to the beginning.
class Blocker {
 public:
  virtual ~Blocker() = default;

  virtual const char* Name() const = 0;
  virtual size_t left_size() const = 0;
  virtual size_t right_size() const = 0;

  /// Appends up to `max_pairs` next candidates to *out (which is not
  /// cleared). Returns the count appended; 0 = exhausted.
  virtual size_t NextChunk(size_t max_pairs, std::vector<PairExample>* out) = 0;

  /// Rewinds the stream to its first candidate.
  virtual void Reset() = 0;

  /// Drains the remaining stream into one vector (tests, small tables,
  /// the blocking-quality report). Defeats the bounded-memory point at
  /// million-record scale — production paths should chunk instead.
  std::vector<PairExample> Drain();
};

/// Shared skeleton for blockers that generate candidates one left record
/// at a time (overlap, MinHash): NextChunk refills an internal buffer by
/// running CandidatesForLeft over a fixed-size batch of left records on
/// the thread pool. The batch size and the per-left output order are
/// fixed, and per-left buffers are concatenated in left order, so the
/// stream is bitwise independent of the pool size.
class LeftStreamBlocker : public Blocker {
 public:
  size_t NextChunk(size_t max_pairs, std::vector<PairExample>* out) final;
  void Reset() override;

 protected:
  /// Appends the candidates of one left record in the blocker's
  /// deterministic per-left order. Must be safe to call concurrently for
  /// distinct left indices.
  virtual void CandidatesForLeft(int left_index,
                                 std::vector<PairExample>* out) const = 0;

 private:
  void Refill();

  size_t next_left_ = 0;     // first left record not yet generated
  std::vector<PairExample> pending_;
  size_t pending_pos_ = 0;
};

/// The no-blocking reference: streams every (left, right) pair in
/// row-major order without ever materializing the cross product. Gives
/// the quadratic candidate-count baseline the benches compare against,
/// and turns the pipeline into an exhaustive matcher on small tables.
class AllPairsBlocker : public Blocker {
 public:
  AllPairsBlocker(size_t left_size, size_t right_size)
      : left_size_(left_size), right_size_(right_size) {}

  const char* Name() const override { return "allpairs"; }
  size_t left_size() const override { return left_size_; }
  size_t right_size() const override { return right_size_; }
  size_t NextChunk(size_t max_pairs, std::vector<PairExample>* out) override;
  void Reset() override { next_left_ = 0; next_right_ = 0; }

 private:
  size_t left_size_;
  size_t right_size_;
  size_t next_left_ = 0;
  size_t next_right_ = 0;
};

/// Token-overlap blocker with IDF weighting: records sharing informative
/// tokens become candidates, ranked by the summed IDF of their shared
/// tokens, keeping the top-k rights per left record. Index construction
/// (tokenization) and candidate generation are parallelized over records
/// via core::ParallelFor; token ids, IDF, and the candidate stream are
/// bitwise independent of the pool size.
class OverlapBlocker : public LeftStreamBlocker {
 public:
  struct Config {
    int top_k = 10;  ///< candidates kept per left record
  };

  OverlapBlocker(const std::vector<Record>& left_table,
                 const std::vector<Record>& right_table,
                 const Config& config);
  /// Default configuration (defined out of line: nested-class member
  /// initializers are unusable in default arguments here).
  OverlapBlocker(const std::vector<Record>& left_table,
                 const std::vector<Record>& right_table);

  const char* Name() const override { return "overlap"; }
  size_t left_size() const override { return left_tokens_.size(); }
  size_t right_size() const override { return right_tokens_.size(); }

  /// Blocking score of one pair: summed IDF of shared tokens.
  double PairScore(int left_index, int right_index) const;

 protected:
  void CandidatesForLeft(int left_index,
                         std::vector<PairExample>* out) const override;

 private:
  Config config_;
  std::vector<std::vector<int>> left_tokens_;   // token ids per record
  std::vector<std::vector<int>> right_tokens_;  // token ids per record
  std::vector<std::vector<int>> right_index_;   // token id -> right records
  std::vector<double> idf_;
  int num_tokens_ = 0;
};

/// MinHash-LSH blocker: each record's serialization is shingled into
/// character n-grams, min-hashed into a fixed-length signature, and the
/// signature split into bands; records sharing any band key become
/// candidates. Banding makes the candidate probability a steep function
/// of Jaccard similarity, so candidate counts stay near-linear in the
/// table size while near-duplicates are retained with high probability.
///
/// Per left record, bucket hits are ranked by the number of matching
/// bands (ties broken by right index) and the top-k kept — the same
/// shape OverlapBlocker emits. Signature computation runs over
/// core::ParallelFor; only per-band keys are stored, one core::HashIndex
/// of key -> ascending rights per band, so the index is
/// O(kNumBands * right) with no per-record signature retained.
///
/// Band keys are a pure function of a record's lowercased shingle text,
/// so they are memoized process-wide by that text (a bounded
/// core::ConcurrentCache, built on first use): a rebuild over tables
/// that changed in a few records recomputes only those records' keys.
/// Tables larger than the memo evict their own keys; its heap stays
/// bounded either way.
class MinHashBlocker : public LeftStreamBlocker {
 public:
  /// Signature bands (2 rows of the 32-hash signature each); one index
  /// table per band.
  static constexpr int kNumBands = 16;

  struct Config {
    int top_k = 10;  ///< candidates kept per left record
    /// Empty: the band tables live in RAM. Set: they are mmap-backed
    /// files ("band_<b>.phx") in this directory, created if missing. Both
    /// give bitwise-identical candidate streams (pinned by
    /// hash_index_test). The files outlive the blocker — they ARE the
    /// beyond-RAM index.
    std::string index_dir;
  };

  using BandKeyArray = std::array<uint64_t, kNumBands>;

  /// Memory observability for --blocking-report: where the band tables
  /// live (heap vs file), how often the bucket cap fires, and how many
  /// records' band keys the memo served.
  struct IndexStats {
    std::vector<uint64_t> band_bytes;  ///< sealed index bytes per band
    uint64_t ram_bytes = 0;            ///< sealed heap bytes, all bands
    uint64_t file_bytes = 0;           ///< on-disk bytes, all bands
    /// Buckets larger than the cap (dead weight the cap disables).
    uint64_t buckets_over_cap = 0;
    /// Probes that hit such a bucket and were skipped so far.
    uint64_t capped_probes = 0;
    /// Records whose band keys were computed / served by the memo so
    /// far; their sum is the right rows built plus the left rows
    /// generated.
    uint64_t band_keys_computed = 0;
    uint64_t band_keys_reused = 0;
  };

  MinHashBlocker(const std::vector<Record>& left_table,
                 const std::vector<Record>& right_table,
                 const Config& config);
  /// Default configuration.
  MinHashBlocker(const std::vector<Record>& left_table,
                 const std::vector<Record>& right_table);

  const char* Name() const override { return "minhash"; }
  size_t left_size() const override { return left_table_->size(); }
  size_t right_size() const override { return right_size_; }

  /// Index memory/eviction counters (capped_probes and the band-key
  /// counters accumulate as the stream is drained). Counting the
  /// over-cap buckets walks every band table.
  IndexStats index_stats() const;

 protected:
  void CandidatesForLeft(int left_index,
                         std::vector<PairExample>* out) const override;

 private:
  /// Band keys of one record, through the process-wide memo.
  BandKeyArray BandKeys(const Record& record) const;

  Config config_;
  const std::vector<Record>* left_table_;  // not owned; must outlive this
  size_t right_size_ = 0;
  size_t bucket_cap_ = 0;
  /// Per band: key -> ascending rights postings.
  /// Snapshots are pinned once at build, so probes are wait-free.
  std::vector<std::unique_ptr<core::HashIndex>> band_index_;
  std::vector<core::HashIndex::Snapshot> band_snap_;
  mutable std::atomic<uint64_t> capped_probes_{0};
  mutable std::atomic<uint64_t> band_keys_computed_{0};
  mutable std::atomic<uint64_t> band_keys_reused_{0};
};

/// Blocking quality: pair completeness = fraction of gold matches kept;
/// reduction ratio = 1 - |candidates| / (|left| * |right|).
struct BlockingQuality {
  double pair_completeness = 0.0;
  double reduction_ratio = 0.0;
  size_t num_candidates = 0;
};

/// Evaluates candidates against gold matched pairs.
BlockingQuality EvaluateBlocking(
    const std::vector<PairExample>& candidates,
    const std::vector<PairExample>& gold_matches, size_t left_size,
    size_t right_size);

/// Streaming variant: folds the blocker's chunks without materializing
/// the candidate list (memory bounded by `chunk_size` + the gold set).
/// Resets the blocker first and leaves it exhausted.
BlockingQuality EvaluateBlockingStream(
    Blocker* blocker, const std::vector<PairExample>& gold_matches,
    size_t chunk_size = 65536);

}  // namespace promptem::data

#endif  // PROMPTEM_DATA_BLOCKING_H_
