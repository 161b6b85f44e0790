#include "data/blocking.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_set>

#include "core/concurrent_cache.h"
#include "core/hashing.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "data/serializer.h"
#include "text/tokenizer.h"

namespace promptem::data {

namespace {

/// Left records generated per streaming refill. Fixed (never derived from
/// the pool size) so the candidate stream is bitwise independent of
/// PROMPTEM_NUM_THREADS; large enough that one refill amortizes the
/// ParallelFor dispatch over real per-record work.
constexpr size_t kRefillBatch = 256;

/// Per-left-record grain for the parallel generation sweeps.
constexpr int64_t kLeftGrain = 16;

}  // namespace

// ---------------------------------------------------------------------------
// Blocker / LeftStreamBlocker
// ---------------------------------------------------------------------------

std::vector<PairExample> Blocker::Drain() {
  std::vector<PairExample> all;
  while (NextChunk(static_cast<size_t>(1) << 16, &all) > 0) {
  }
  return all;
}

size_t LeftStreamBlocker::NextChunk(size_t max_pairs,
                                    std::vector<PairExample>* out) {
  PROMPTEM_CHECK(out != nullptr);
  size_t appended = 0;
  while (appended < max_pairs) {
    if (pending_pos_ == pending_.size()) {
      if (next_left_ >= left_size()) break;
      Refill();
      continue;
    }
    const size_t take =
        std::min(max_pairs - appended, pending_.size() - pending_pos_);
    out->insert(out->end(), pending_.begin() + static_cast<ptrdiff_t>(pending_pos_),
                pending_.begin() + static_cast<ptrdiff_t>(pending_pos_ + take));
    pending_pos_ += take;
    appended += take;
  }
  return appended;
}

void LeftStreamBlocker::Reset() {
  next_left_ = 0;
  pending_.clear();
  pending_pos_ = 0;
}

void LeftStreamBlocker::Refill() {
  const size_t batch = std::min(kRefillBatch, left_size() - next_left_);
  std::vector<std::vector<PairExample>> per_left(batch);
  const size_t base = next_left_;
  // Per-left buffers merged in left order: the stream never depends on
  // which lane generated which record.
  core::ParallelFor(0, static_cast<int64_t>(batch), kLeftGrain,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t b = begin; b < end; ++b) {
                        CandidatesForLeft(static_cast<int>(base + static_cast<size_t>(b)),
                                          &per_left[static_cast<size_t>(b)]);
                      }
                    });
  pending_.clear();
  pending_pos_ = 0;
  for (const auto& buf : per_left) {
    pending_.insert(pending_.end(), buf.begin(), buf.end());
  }
  next_left_ += batch;
}

// ---------------------------------------------------------------------------
// AllPairsBlocker
// ---------------------------------------------------------------------------

size_t AllPairsBlocker::NextChunk(size_t max_pairs,
                                  std::vector<PairExample>* out) {
  PROMPTEM_CHECK(out != nullptr);
  size_t appended = 0;
  if (right_size_ == 0) return 0;
  while (appended < max_pairs && next_left_ < left_size_) {
    out->push_back({static_cast<int>(next_left_),
                    static_cast<int>(next_right_), kUnlabeledLabel});
    ++appended;
    if (++next_right_ == right_size_) {
      next_right_ = 0;
      ++next_left_;
    }
  }
  return appended;
}

// ---------------------------------------------------------------------------
// OverlapBlocker
// ---------------------------------------------------------------------------

namespace {

/// Tokens appearing in more than this fraction of records carry no
/// blocking signal and are dropped from the index.
constexpr double kMaxTokenFrequency = 0.3;

}  // namespace

OverlapBlocker::OverlapBlocker(const std::vector<Record>& left_table,
                               const std::vector<Record>& right_table)
    : OverlapBlocker(left_table, right_table, Config()) {}

OverlapBlocker::OverlapBlocker(const std::vector<Record>& left_table,
                               const std::vector<Record>& right_table,
                               const Config& config)
    : config_(config) {
  // Tokenization (serialize + word-split) dominates index build, and is
  // per-record independent: run it across the pool into per-record string
  // lists, then assign token ids sequentially in record order so the id
  // space (and everything derived from it) is pool-size invariant.
  const size_t n_left = left_table.size();
  const size_t n_right = right_table.size();
  std::vector<std::vector<std::string>> words(n_left + n_right);
  core::ParallelFor(0, static_cast<int64_t>(n_left + n_right), kLeftGrain,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        const size_t idx = static_cast<size_t>(i);
                        const Record& r = idx < n_left
                                              ? left_table[idx]
                                              : right_table[idx - n_left];
                        words[idx] = text::WordTokenize(SerializeRecord(r));
                      }
                    });

  std::map<std::string, int> token_ids;
  auto encode = [&](const std::vector<std::string>& toks) {
    std::vector<int> ids;
    std::set<int> seen;
    for (const auto& tok : toks) {
      auto [it, inserted] =
          token_ids.emplace(tok, static_cast<int>(token_ids.size()));
      if (seen.insert(it->second).second) ids.push_back(it->second);
    }
    return ids;
  };
  left_tokens_.reserve(n_left);
  for (size_t i = 0; i < n_left; ++i) left_tokens_.push_back(encode(words[i]));
  right_tokens_.reserve(n_right);
  for (size_t j = 0; j < n_right; ++j) {
    right_tokens_.push_back(encode(words[n_left + j]));
  }
  num_tokens_ = static_cast<int>(token_ids.size());

  // Document frequencies over both tables.
  std::vector<int> df(static_cast<size_t>(num_tokens_), 0);
  for (const auto& ids : left_tokens_) {
    for (int t : ids) ++df[static_cast<size_t>(t)];
  }
  for (const auto& ids : right_tokens_) {
    for (int t : ids) ++df[static_cast<size_t>(t)];
  }
  const double n_docs =
      static_cast<double>(left_tokens_.size() + right_tokens_.size());
  idf_.resize(static_cast<size_t>(num_tokens_));
  for (int t = 0; t < num_tokens_; ++t) {
    idf_[static_cast<size_t>(t)] =
        std::log((1.0 + n_docs) / (1.0 + df[static_cast<size_t>(t)])) + 1.0;
  }

  // Inverted index over the right table.
  right_index_.resize(static_cast<size_t>(num_tokens_));
  for (size_t j = 0; j < right_tokens_.size(); ++j) {
    for (int t : right_tokens_[j]) {
      right_index_[static_cast<size_t>(t)].push_back(static_cast<int>(j));
    }
  }
}

double OverlapBlocker::PairScore(int left_index, int right_index) const {
  const auto& li = left_tokens_[static_cast<size_t>(left_index)];
  const auto& ri = right_tokens_[static_cast<size_t>(right_index)];
  std::set<int> right_set(ri.begin(), ri.end());
  double score = 0.0;
  for (int t : li) {
    if (right_set.count(t)) score += idf_[static_cast<size_t>(t)];
  }
  return score;
}

void OverlapBlocker::CandidatesForLeft(int left_index,
                                       std::vector<PairExample>* out) const {
  const double n_docs =
      static_cast<double>(left_tokens_.size() + right_tokens_.size());
  const size_t stop_threshold = static_cast<size_t>(
      std::max(1.0, kMaxTokenFrequency * n_docs));

  // Sparse accumulation: only rights actually touched by a posting list
  // are tracked, so one left record costs O(candidate postings), not
  // O(right table) — the difference between 1M-row streaming and a dense
  // per-left scan.
  std::map<int, double> hits;  // right -> summed IDF of shared tokens
  for (int t : left_tokens_[static_cast<size_t>(left_index)]) {
    const auto& postings = right_index_[static_cast<size_t>(t)];
    if (postings.size() > stop_threshold) continue;  // stop token
    for (int j : postings) hits[j] += idf_[static_cast<size_t>(t)];
  }
  std::vector<int> order;
  order.reserve(hits.size());
  for (const auto& [j, score] : hits) {
    if (score > 0.0) order.push_back(j);
  }
  // `hits` iterates right-index ascending, so the stable sort reproduces
  // the original dense scan's order exactly: score descending, right
  // index ascending on ties.
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return hits.find(a)->second > hits.find(b)->second;
  });
  if (static_cast<int>(order.size()) > config_.top_k) {
    order.resize(static_cast<size_t>(config_.top_k));
  }
  for (int j : order) {
    out->push_back({left_index, j, kUnlabeledLabel});
  }
}

// ---------------------------------------------------------------------------
// MinHashBlocker
// ---------------------------------------------------------------------------

namespace {

/// Signature length: kNumBands bands of kRowsPerBand rows each.
constexpr int kNumHashes = 32;
static_assert(kNumHashes % MinHashBlocker::kNumBands == 0,
              "kNumHashes must be a multiple of kNumBands");
constexpr int kRowsPerBand = kNumHashes / MinHashBlocker::kNumBands;
/// Character shingle length (lowercased).
constexpr size_t kShingleLen = 4;
/// Hash-family seed.
constexpr uint64_t kHashSeed = 0x5EEDB10CULL;
/// Buckets holding more than this fraction of the right table carry no
/// blocking signal — think shared schema boilerplate — and are skipped,
/// like OverlapBlocker's stop tokens.
constexpr double kMaxBucketFraction = 0.01;
/// Absolute ceiling on the bucket cap (floor 16). Without it the cap
/// grows linearly with the table, making probe cost quadratic at
/// million-row scale; a true near-duplicate shares *rare* shingles, so
/// skipping huge buckets costs almost no recall.
constexpr size_t kMaxBucketCap = 2048;

/// Band-key memo bound: holds both tables of a 6k + 6k row match with
/// room for the records later deltas change. Larger tables evict their
/// own keys, but the memo's heap stays bounded by this count.
constexpr size_t kBandKeyMemoCapacity = size_t{1} << 15;

/// The text a record is shingled over, lowercased: attribute values only
/// (plus the free text of textual records). The [COL]/[VAL] tags and
/// attribute names of the full §2.2 serialization are shared by every
/// record of a table — universal shingles that inflate the Jaccard
/// similarity of *unrelated* pairs and waste bands on boilerplate
/// buckets.
std::string ShingleText(const Record& record) {
  std::string out;
  if (record.format == RecordFormat::kTextual) {
    out = record.text;
  } else {
    for (const auto& [attr, value] : record.attrs) {
      out += SerializeValue(value);
      out += ' ';
    }
  }
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

MinHashBlocker::BandKeyArray ComputeBandKeys(const std::string& text) {
  std::array<uint64_t, kNumHashes> sig;
  sig.fill(~0ULL);
  const size_t len = text.size();
  const size_t k = kShingleLen;
  const size_t n_shingles = len >= k ? len - k + 1 : (len > 0 ? 1 : 0);
  for (size_t s = 0; s < n_shingles; ++s) {
    const uint64_t base =
        core::Fnv1a64(text.data() + s, std::min(k, len - s)) ^ kHashSeed;
    for (int h = 0; h < kNumHashes; ++h) {
      const uint64_t v = core::Mix64(
          base + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(h + 1));
      if (v < sig[static_cast<size_t>(h)]) sig[static_cast<size_t>(h)] = v;
    }
  }

  MinHashBlocker::BandKeyArray keys{};
  for (int b = 0; b < MinHashBlocker::kNumBands; ++b) {
    uint64_t key = core::kFnv1aOffset ^ static_cast<uint64_t>(b);
    for (int r = 0; r < kRowsPerBand; ++r) {
      const uint64_t v = sig[static_cast<size_t>(b * kRowsPerBand + r)];
      key = core::Fnv1a64(&v, sizeof(v), key);
    }
    keys[static_cast<size_t>(b)] = key;
  }
  return keys;
}

/// One memoized record: its band keys plus a second, independent hash of
/// the shingle text, so a collision of the 64-bit memo key is caught
/// rather than served.
struct BandKeyEntry {
  uint64_t check = 0;
  MinHashBlocker::BandKeyArray keys{};
};

/// Process-wide, built on first use: a process that never blocks pays
/// nothing for it.
core::ConcurrentCache<BandKeyEntry>& BandKeyMemo() {
  static core::ConcurrentCache<BandKeyEntry> memo(kBandKeyMemoCapacity);
  return memo;
}

}  // namespace

MinHashBlocker::BandKeyArray MinHashBlocker::BandKeys(
    const Record& record) const {
  const std::string text = ShingleText(record);
  const uint64_t key = core::Fnv1a64(text);
  const uint64_t check = std::hash<std::string>{}(text);
  core::ConcurrentCache<BandKeyEntry>& memo = BandKeyMemo();
  const std::shared_ptr<const BandKeyEntry> hit = memo.Find(key);
  if (hit != nullptr && hit->check == check) {
    band_keys_reused_.fetch_add(1, std::memory_order_relaxed);
    return hit->keys;
  }
  band_keys_computed_.fetch_add(1, std::memory_order_relaxed);
  BandKeyEntry entry{check, ComputeBandKeys(text)};
  // A hit under another text's check keeps its slot: inserting would
  // only return the resident entry (first insert wins).
  if (hit == nullptr) memo.Insert(key, entry);
  return entry.keys;
}

MinHashBlocker::MinHashBlocker(const std::vector<Record>& left_table,
                               const std::vector<Record>& right_table)
    : MinHashBlocker(left_table, right_table, Config()) {}

MinHashBlocker::MinHashBlocker(const std::vector<Record>& left_table,
                               const std::vector<Record>& right_table,
                               const Config& config)
    : config_(config), left_table_(&left_table) {
  right_size_ = right_table.size();
  bucket_cap_ = std::clamp<size_t>(
      static_cast<size_t>(kMaxBucketFraction *
                          static_cast<double>(right_size_)),
      16, kMaxBucketCap);

  // Right-side band keys, computed across the pool (per-record
  // independent, so deterministic), stored as one flat band-major array...
  std::vector<uint64_t> flat(static_cast<size_t>(kNumBands) * right_size_);
  core::ParallelFor(0, static_cast<int64_t>(right_size_), kLeftGrain,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t j = begin; j < end; ++j) {
                        const auto keys = BandKeys(right_table[static_cast<size_t>(j)]);
                        for (int b = 0; b < kNumBands; ++b) {
                          flat[static_cast<size_t>(b) * right_size_ +
                               static_cast<size_t>(j)] =
                              keys[static_cast<size_t>(b)];
                        }
                      }
                    });

  // ...then packed per band into key -> ascending-rights tables
  // (AddPosting's rank is the right index). Only band keys are retained
  // — O(bands * right) memory, no per-record signatures — which is what
  // lets the index fit at 1M rows.
  const bool mmap_backed = !config_.index_dir.empty();
  if (mmap_backed) {
    ::mkdir(config_.index_dir.c_str(), 0755);  // EEXIST is fine
  }
  band_index_.resize(static_cast<size_t>(kNumBands));
  auto build_band = [&](int64_t b) {
    core::HashIndex::Options options;
    options.backend = mmap_backed ? core::HashIndex::Backend::kMmap
                                  : core::HashIndex::Backend::kRam;
    if (mmap_backed) {
      options.path =
          config_.index_dir + "/band_" + std::to_string(b) + ".phx";
    }
    auto index = std::make_unique<core::HashIndex>(options);
    const uint64_t* keys = flat.data() + static_cast<size_t>(b) * right_size_;
    if (mmap_backed) {
      // Sharded-lock parallel insert within the band (the outer loop is
      // sequential here to bound staging memory to one band at a time).
      core::ParallelFor(0, static_cast<int64_t>(right_size_), 1024,
                        [&](int64_t begin, int64_t end) {
                          for (int64_t j = begin; j < end; ++j) {
                            index->AddPosting(keys[static_cast<size_t>(j)],
                                              static_cast<int32_t>(j));
                          }
                        });
    } else {
      for (size_t j = 0; j < right_size_; ++j) {
        index->AddPosting(keys[j], static_cast<int32_t>(j));
      }
    }
    const core::Status sealed = index->Seal();
    PROMPTEM_CHECK_MSG(sealed.ok(), sealed.ToString().c_str());
    band_index_[static_cast<size_t>(b)] = std::move(index);
  };
  if (mmap_backed) {
    // One band's staging at a time: the sealed bytes land in the band
    // file, so peak heap stays O(right), not O(bands * right).
    for (int64_t b = 0; b < kNumBands; ++b) build_band(b);
  } else {
    core::ParallelFor(0, kNumBands, 1, [&](int64_t begin, int64_t end) {
      for (int64_t b = begin; b < end; ++b) build_band(b);
    });
  }
  band_snap_.reserve(static_cast<size_t>(kNumBands));
  for (const auto& index : band_index_) band_snap_.push_back(index->snapshot());
}

MinHashBlocker::IndexStats MinHashBlocker::index_stats() const {
  IndexStats stats;
  stats.capped_probes = capped_probes_.load(std::memory_order_relaxed);
  stats.band_keys_computed =
      band_keys_computed_.load(std::memory_order_relaxed);
  stats.band_keys_reused = band_keys_reused_.load(std::memory_order_relaxed);
  for (const auto& snap : band_snap_) {
    const uint64_t bytes = snap.ram_bytes() + snap.file_bytes();
    stats.band_bytes.push_back(bytes);
    stats.ram_bytes += snap.ram_bytes();
    stats.file_bytes += snap.file_bytes();
    snap.ForEach([&](uint64_t, core::HashIndex::Span payload) {
      if (payload.size / sizeof(int32_t) > bucket_cap_) {
        ++stats.buckets_over_cap;
      }
    });
  }
  return stats;
}

void MinHashBlocker::CandidatesForLeft(int left_index,
                                       std::vector<PairExample>* out) const {
  const auto keys = BandKeys((*left_table_)[static_cast<size_t>(left_index)]);
  std::vector<int32_t> hits;
  for (int b = 0; b < kNumBands; ++b) {
    const int32_t* values = nullptr;
    size_t count = 0;
    if (!band_snap_[static_cast<size_t>(b)].FindPostings(
            keys[static_cast<size_t>(b)], &values, &count)) {
      continue;
    }
    if (count > bucket_cap_) {  // boilerplate bucket, no signal
      capped_probes_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    hits.insert(hits.end(), values, values + count);
  }
  if (hits.empty()) return;
  std::sort(hits.begin(), hits.end());

  // Run-length the sorted hit list into (right, band-match count), rank
  // by (count desc, right asc), keep top-k.
  std::vector<std::pair<int32_t, int>> counted;
  for (size_t i = 0; i < hits.size();) {
    size_t j = i;
    while (j < hits.size() && hits[j] == hits[i]) ++j;
    counted.emplace_back(hits[i], static_cast<int>(j - i));
    i = j;
  }
  std::stable_sort(counted.begin(), counted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second != b.second ? a.second > b.second
                                                 : a.first < b.first;
                   });
  if (static_cast<int>(counted.size()) > config_.top_k) {
    counted.resize(static_cast<size_t>(config_.top_k));
  }
  for (const auto& [right, count] : counted) {
    out->push_back({left_index, right, kUnlabeledLabel});
  }
}

// ---------------------------------------------------------------------------
// Blocking quality
// ---------------------------------------------------------------------------

namespace {

struct PairHash {
  size_t operator()(const std::pair<int, int>& p) const {
    return static_cast<size_t>(core::Mix64(
        (static_cast<uint64_t>(static_cast<uint32_t>(p.first)) << 32) |
        static_cast<uint32_t>(p.second)));
  }
};

BlockingQuality QualityFromCounts(size_t kept, size_t total,
                                  size_t num_candidates, size_t left_size,
                                  size_t right_size) {
  BlockingQuality quality;
  quality.num_candidates = num_candidates;
  quality.pair_completeness =
      total == 0 ? 1.0 : static_cast<double>(kept) / static_cast<double>(total);
  const double all_pairs =
      static_cast<double>(left_size) * static_cast<double>(right_size);
  quality.reduction_ratio =
      all_pairs == 0.0
          ? 0.0
          : 1.0 - static_cast<double>(num_candidates) / all_pairs;
  return quality;
}

}  // namespace

BlockingQuality EvaluateBlocking(
    const std::vector<PairExample>& candidates,
    const std::vector<PairExample>& gold_matches, size_t left_size,
    size_t right_size) {
  std::unordered_set<std::pair<int, int>, PairHash> candidate_set;
  candidate_set.reserve(candidates.size());
  for (const auto& c : candidates) {
    candidate_set.emplace(c.left_index, c.right_index);
  }
  size_t kept = 0;
  size_t total = 0;
  for (const auto& g : gold_matches) {
    if (g.label != 1) continue;
    ++total;
    kept += candidate_set.count({g.left_index, g.right_index});
  }
  return QualityFromCounts(kept, total, candidates.size(), left_size,
                           right_size);
}

BlockingQuality EvaluateBlockingStream(
    Blocker* blocker, const std::vector<PairExample>& gold_matches,
    size_t chunk_size) {
  PROMPTEM_CHECK(blocker != nullptr);
  PROMPTEM_CHECK(chunk_size >= 1);
  std::unordered_set<std::pair<int, int>, PairHash> gold_set;
  for (const auto& g : gold_matches) {
    if (g.label == 1) gold_set.emplace(g.left_index, g.right_index);
  }
  const size_t total = gold_set.size();

  blocker->Reset();
  size_t kept = 0;
  size_t num_candidates = 0;
  std::vector<PairExample> chunk;
  chunk.reserve(chunk_size);
  while (blocker->NextChunk(chunk_size, &chunk) > 0) {
    num_candidates += chunk.size();
    for (const auto& c : chunk) {
      // erase() rather than count() so duplicate candidates (possible
      // across blockers in principle) never double-count a gold match.
      kept += gold_set.erase({c.left_index, c.right_index});
    }
    chunk.clear();
  }
  return QualityFromCounts(kept, total, num_candidates, blocker->left_size(),
                           blocker->right_size());
}

}  // namespace promptem::data
