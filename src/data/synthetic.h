#ifndef PROMPTEM_DATA_SYNTHETIC_H_
#define PROMPTEM_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace promptem::data {

/// Seeded synthetic two-table workload for the blocking / streaming-match
/// layers. Unlike the GEM benchmark generators (which reproduce the
/// paper's dataset *structures* at paper scale), this generator scales to
/// millions of rows with a known gold mapping, so blocking recall and
/// end-to-end block -> score -> match runs can be measured exactly.
///
/// Every left record gets exactly one perturbed copy in the right table
/// (typos, dropped attributes, price jitter — dirty-EM style noise), at a
/// position given by a seeded permutation; distractor records with no
/// left match, 10% of `rows`, are mixed in. Generation is
/// per-record seeded (record i's content depends only on (seed, i)), so
/// it parallelizes over core::ParallelFor and is bitwise reproducible at
/// any pool size.
struct SyntheticTableOptions {
  size_t rows = 10000;  ///< left-table size; each row has one right match
  uint64_t seed = 42;
};

struct SyntheticTables {
  std::vector<Record> left;
  std::vector<Record> right;
  /// Gold mapping: left i's matching right index (always valid).
  std::vector<int> right_of_left;
  /// Inverse mapping; -1 for distractor rights with no match.
  std::vector<int> left_of_right;

  /// 1 when (l, r) is the gold match, else 0. O(1).
  int GoldLabel(int l, int r) const {
    return right_of_left[static_cast<size_t>(l)] == r ? 1 : 0;
  }

  /// All gold matches as label-1 pairs (EvaluateBlocking's gold input).
  std::vector<PairExample> GoldMatches() const;

  /// Wraps the tables in a GemDataset with labeled train/valid/test pair
  /// splits sampled from the gold mapping (one positive and one random
  /// negative per sampled left record), so a matcher can be trained on
  /// the synthetic workload itself. The tables are *moved* into the
  /// returned dataset — `left`/`right` are empty afterwards, while the
  /// gold mappings stay valid.
  GemDataset ToDataset(size_t pairs_per_split, uint64_t seed);
};

SyntheticTables GenerateSyntheticTables(const SyntheticTableOptions& options);

}  // namespace promptem::data

#endif  // PROMPTEM_DATA_SYNTHETIC_H_
