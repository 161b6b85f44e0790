#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/hashing.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/thread_pool.h"

namespace promptem::data {

namespace {

constexpr int64_t kGenGrain = 512;

/// Extra unmatched right records, as a fraction of `rows`.
constexpr double kDistractorFraction = 0.1;
/// Per-corruption probability applied to each right-side copy: keeps
/// character-shingle Jaccard high enough for LSH blocking while being
/// visibly dirty.
constexpr double kPerturbation = 0.25;

const char* const kAdjectives[] = {
    "compact", "digital", "classic", "premium", "wireless", "portable",
    "vintage", "modern",  "deluxe",  "quantum", "hybrid",   "smart",
    "rapid",   "silent",  "solar",   "carbon",  "titan",    "nano",
    "ultra",   "micro",   "prime",   "stereo",  "turbo",    "atomic",
    "crystal", "mighty",  "nimble",  "sturdy",  "swift",    "vivid",
    "zen",     "aero"};

const char* const kNouns[] = {
    "speaker",  "camera",   "keyboard", "monitor", "router",   "charger",
    "blender",  "kettle",   "lamp",     "drill",   "scanner",  "printer",
    "headset",  "tablet",   "drone",    "watch",   "tripod",   "sensor",
    "battery",  "adapter",  "cable",    "mouse",   "phone",    "player",
    "console",  "freezer",  "heater",   "fan",     "mixer",    "toaster",
    "recorder", "repeater", "switch",   "dock",    "hub",      "case",
    "stand",    "mount",    "filter",   "pump",    "gauge",    "meter",
    "valve",    "bearing",  "gasket",   "spring",  "lens",     "visor"};

const char* const kBrands[] = {
    "acme",   "zenith", "orion",  "vertex", "nimbus", "cobalt",
    "quasar", "helix",  "lumina", "strato", "vulcan", "aurora",
    "pinion", "krypta", "maelis", "tundra", "fenwick", "galt",
    "harbor", "ionix",  "jasper", "keel",   "lyric",  "mistral"};

template <size_t N>
const char* Pick(const char* const (&pool)[N], core::Rng* rng) {
  return pool[rng->NextU64(N)];
}

std::string Base36Code(core::Rng* rng, int len) {
  static const char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string code(static_cast<size_t>(len), '0');
  for (char& c : code) c = kDigits[rng->NextU64(36)];
  return code;
}

/// Record content depends only on (seed, index), so generation shards
/// across the pool without an order-dependent rng stream.
Record MakeLeftRecord(uint64_t seed, size_t index) {
  core::Rng rng(core::Mix64(seed ^ core::Mix64(index)));
  std::string name = std::string(Pick(kAdjectives, &rng)) + " " +
                     Pick(kNouns, &rng);
  const std::string brand = Pick(kBrands, &rng);
  // The 8-char code is the near-unique attribute that gives blocking its
  // strongest signal at million-row scale (name/brand pools collide).
  const std::string model = Base36Code(&rng, 8);
  const double year = 1990.0 + static_cast<double>(rng.NextU64(35));
  const double price =
      std::floor(rng.Uniform(5.0f, 2000.0f) * 100.0) / 100.0;
  return Record::Relational({{"name", Value::Str(std::move(name))},
                             {"brand", Value::Str(brand)},
                             {"model", Value::Str(model)},
                             {"year", Value::Num(year)},
                             {"price", Value::Num(price)}});
}

void TypoTranspose(std::string* s, core::Rng* rng) {
  if (s->size() < 2) return;
  const size_t i = rng->NextU64(s->size() - 1);
  std::swap((*s)[i], (*s)[i + 1]);
}

/// Dirty copy of one left record: each corruption fires independently
/// with probability kPerturbation, drawn from the pair's own seeded
/// stream.
Record Perturb(const Record& source, uint64_t seed, size_t index) {
  constexpr double p = kPerturbation;
  core::Rng rng(core::Mix64(seed ^ core::Mix64(index) ^ 0xD1A7ULL));
  auto attrs = source.attrs;
  for (auto& [attr, value] : attrs) {
    if (attr == "name" && value.is_string()) {
      std::string name = value.as_string();
      if (rng.Bernoulli(p)) TypoTranspose(&name, &rng);
      if (rng.Bernoulli(p)) {
        // Abbreviate the second word ("compact speaker" -> "compact spk.").
        const size_t space = name.find(' ');
        if (space != std::string::npos && name.size() - space > 5) {
          name = name.substr(0, space + 4) + ".";
        }
      }
      value = Value::Str(std::move(name));
    } else if (attr == "brand" && value.is_string()) {
      if (rng.Bernoulli(p)) value = Value::Str("");  // missing value
    } else if (attr == "model" && value.is_string()) {
      // Rarely corrupt the strong key, so a small fraction of matches is
      // genuinely hard for blocking (the realistic case).
      if (rng.Bernoulli(p * 0.2)) {
        std::string code = value.as_string();
        TypoTranspose(&code, &rng);
        value = Value::Str(std::move(code));
      }
    } else if (attr == "price" && value.is_number()) {
      if (rng.Bernoulli(p)) {
        const double jitter = 1.0 + (rng.NextDouble() - 0.5) * 0.06;
        value = Value::Num(
            std::floor(value.as_number() * jitter * 100.0) / 100.0);
      }
    }
  }
  return Record::Relational(std::move(attrs));
}

}  // namespace

SyntheticTables GenerateSyntheticTables(const SyntheticTableOptions& options) {
  PROMPTEM_CHECK(options.rows >= 1);

  const size_t rows = options.rows;
  const size_t distractors =
      static_cast<size_t>(kDistractorFraction *
                          static_cast<double>(rows));
  const size_t right_rows = rows + distractors;

  SyntheticTables tables;
  tables.left.resize(rows);
  core::ParallelFor(0, static_cast<int64_t>(rows), kGenGrain,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        tables.left[static_cast<size_t>(i)] =
                            MakeLeftRecord(options.seed,
                                           static_cast<size_t>(i));
                      }
                    });

  // Seeded permutation places left i's dirty copy at right position
  // perm[i]; distractor slots are the tail of the shuffled positions.
  std::vector<int> positions(right_rows);
  for (size_t j = 0; j < right_rows; ++j) positions[j] = static_cast<int>(j);
  core::Rng perm_rng(core::Mix64(options.seed ^ 0x9E37ULL));
  perm_rng.Shuffle(&positions);

  tables.right.resize(right_rows);
  tables.right_of_left.resize(rows);
  tables.left_of_right.assign(right_rows, -1);
  for (size_t i = 0; i < rows; ++i) {
    tables.right_of_left[i] = positions[i];
    tables.left_of_right[static_cast<size_t>(positions[i])] =
        static_cast<int>(i);
  }
  core::ParallelFor(
      0, static_cast<int64_t>(right_rows), kGenGrain,
      [&](int64_t begin, int64_t end) {
        for (int64_t j = begin; j < end; ++j) {
          const size_t jj = static_cast<size_t>(j);
          const int li = tables.left_of_right[jj];
          tables.right[jj] =
              li >= 0 ? Perturb(tables.left[static_cast<size_t>(li)],
                                options.seed, jj)
                      // Distractors draw from the same pools but a
                      // disjoint seed stream, so they are plausible
                      // near-misses rather than obvious noise.
                      : MakeLeftRecord(options.seed ^ 0xD157ULL,
                                       rows + jj);
        }
      });
  return tables;
}

std::vector<PairExample> SyntheticTables::GoldMatches() const {
  std::vector<PairExample> gold;
  gold.reserve(right_of_left.size());
  for (size_t i = 0; i < right_of_left.size(); ++i) {
    gold.push_back({static_cast<int>(i), right_of_left[i], 1});
  }
  return gold;
}

GemDataset SyntheticTables::ToDataset(size_t pairs_per_split, uint64_t seed) {
  PROMPTEM_CHECK(pairs_per_split >= 1);
  PROMPTEM_CHECK_MSG(!left.empty(), "tables already moved out");
  const size_t rows = left.size();
  const size_t right_rows = right.size();

  GemDataset dataset;
  dataset.name = "synthetic";
  dataset.domain = "synthetic";
  dataset.default_rate = 0.10;

  core::Rng rng(core::Mix64(seed ^ 0x5A17ULL));
  auto sample_split = [&](std::vector<PairExample>* split) {
    for (size_t k = 0; k < pairs_per_split; ++k) {
      const int l = static_cast<int>(rng.NextU64(rows));
      split->push_back({l, right_of_left[static_cast<size_t>(l)], 1});
      int wrong = static_cast<int>(rng.NextU64(right_rows));
      if (wrong == right_of_left[static_cast<size_t>(l)]) {
        wrong = (wrong + 1) % static_cast<int>(right_rows);
      }
      split->push_back({l, wrong, 0});
    }
  };
  sample_split(&dataset.train);
  sample_split(&dataset.valid);
  sample_split(&dataset.test);

  dataset.left_table = std::move(left);
  dataset.right_table = std::move(right);
  return dataset;
}

}  // namespace promptem::data
