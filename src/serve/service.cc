#include "serve/service.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "baselines/matchers.h"
#include "core/hashing.h"
#include "core/log.h"
#include "data/json.h"
#include "data/record.h"
#include "promptem/scoring.h"

namespace promptem::serve {

namespace {

/// Restart-stable fingerprint of the run options that shape a trained
/// matcher. Any knob that changes the trained weights (seed, epochs,
/// lr, ...) must fold in here: a score cached under one option set must
/// never be served for another. Formatted text, not raw struct bytes,
/// so padding and float representation stay out of the key.
uint64_t OptionsFingerprint(const train::RunOptions& options) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%llu|%d|%d|%.9g|%d|%d|%.17g|%.17g|%d|",
                static_cast<unsigned long long>(options.seed), options.epochs,
                options.student_epochs, static_cast<double>(options.lr),
                options.batch_size, options.mc_passes, options.pseudo_ratio,
                options.prune_ratio, options.prune_every);
  return core::Fnv1a64(options.pseudo_strategy, core::Fnv1a64(buf));
}

MatchResponse ErrorResponse(uint64_t id, ResponseStatus status,
                            std::string error) {
  MatchResponse response;
  response.id = id;
  response.status = status;
  response.error = std::move(error);
  return response;
}

}  // namespace

MatchService::MatchService(const lm::PretrainedLM* lm,
                           data::GemDataset dataset,
                           data::LowResourceSplit split,
                           train::RunOptions options, Config config)
    : lm_(lm),
      dataset_(std::move(dataset)),
      split_(std::move(split)),
      config_(std::move(config)) {
  ctx_.lm = lm_;
  ctx_.kind = config_.kind;
  ctx_.dataset = &dataset_;
  ctx_.split = &split_;
  ctx_.options = options;

  // Matcher list = default first, then extras, deduplicated in order.
  std::vector<std::string> names;
  names.push_back(config_.default_matcher);
  for (const std::string& name : config_.matchers) {
    bool seen = false;
    for (const std::string& have : names) seen = seen || have == name;
    if (!seen) names.push_back(name);
  }
  const uint64_t dataset_fp = data::DatasetFingerprint(dataset_);
  const uint64_t options_fp = OptionsFingerprint(ctx_.options);
  for (std::string& name : names) {
    Entry entry;
    entry.context_tag = em::EmbeddingCache::ContextTag(
        dataset_fp, core::Combine64(core::Fnv1a64(name), options_fp));
    entry.name = std::move(name);
    entries_.push_back(std::move(entry));
  }
}

core::Status MatchService::TrainAll(train::TrainObserver* observer) {
  baselines::EnsureBaselineMatchersRegistered();
  auto& registry = train::MatcherRegistry::Instance();
  for (const Entry& entry : entries_) {
    if (!registry.Contains(entry.name)) {
      return core::Status::InvalidArgument("unknown matcher: " + entry.name);
    }
  }
  ctx_.observer = observer;
  for (Entry& entry : entries_) {
    entry.matcher = registry.Create(entry.name);
    entry.matcher->Train(ctx_);
  }
  ctx_.observer = nullptr;
  trained_ = true;
  return core::Status::OK();
}

MatchService::Entry* MatchService::FindEntry(const std::string& name) {
  const std::string& wanted = name.empty() ? config_.default_matcher : name;
  for (Entry& entry : entries_) {
    if (entry.name == wanted) return &entry;
  }
  return nullptr;
}

const MatchService::Entry* MatchService::FindEntry(
    const std::string& name) const {
  return const_cast<MatchService*>(this)->FindEntry(name);
}

bool MatchService::HasMatcher(const std::string& name) const {
  return FindEntry(name) != nullptr;
}

bool MatchService::ValidateRequest(const MatchRequest& request, Entry** entry,
                                   MatchResponse* error) {
  *entry = FindEntry(request.matcher);
  if (*entry == nullptr) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    *error = ErrorResponse(request.id, ResponseStatus::kUnknownMatcher,
                           "unknown matcher: " + request.matcher);
    return false;
  }
  const int left_rows = static_cast<int>(dataset_.left_table.size());
  const int right_rows = static_cast<int>(dataset_.right_table.size());
  for (const data::PairExample& pair : request.pairs) {
    if (pair.left_index < 0 || pair.left_index >= left_rows ||
        pair.right_index < 0 || pair.right_index >= right_rows) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "pair [%d, %d] out of range (tables are %d x %d)",
                    pair.left_index, pair.right_index, left_rows, right_rows);
      *error = ErrorResponse(request.id, ResponseStatus::kBadRequest, buf);
      return false;
    }
  }
  return true;
}

std::vector<std::array<float, 2>> MatchService::ScoreCached(
    Entry* entry, const std::vector<data::PairExample>& pairs) {
  PROMPTEM_CHECK_MSG(trained_, "MatchService::TrainAll must run first");
  // Served scores are keyed by restart-stable table indexes only, so
  // every pair lives in the store tier.
  const uint64_t tag = entry->context_tag;
  const auto key_of = [tag](const data::PairExample& p) {
    em::ScoreCacheKeys keys;
    keys.store = em::EmbeddingCache::PairKey(tag, p.left_index, p.right_index);
    return keys;
  };
  const em::ChunkScoreFn sweep =
      [this, entry](const std::vector<data::PairExample>& misses) {
        sweeps_.fetch_add(1, std::memory_order_relaxed);
        return entry->matcher->ScoreProbs(ctx_, misses);
      };
  em::ScoreCacheCounts counts;
  std::vector<std::array<float, 2>> probs = em::ScoreThroughCache(
      pairs, key_of, {nullptr, config_.score_cache.get()}, sweep, &counts);
  score_hits_.fetch_add(counts.hits, std::memory_order_relaxed);
  pairs_scored_.fetch_add(counts.scored, std::memory_order_relaxed);
  return probs;
}

MatchResponse MatchService::Score(const MatchRequest& request) {
  MatchResponse response;
  std::vector<PendingRequest> batch(1);
  batch[0].request = request;
  batch[0].complete = [&response](MatchResponse done) {
    response = std::move(done);
  };
  HandleBatch(std::move(batch));
  return response;
}

void MatchService::HandleBatch(std::vector<PendingRequest> batch) {
  const auto now = std::chrono::steady_clock::now();

  // Admission -> completion triage. Expired requests are answered without
  // scoring (their client has already given up; burning a sweep on them
  // only delays the live ones behind them in the batch).
  struct Live {
    PendingRequest* pending;
    Entry* entry;
  };
  std::vector<Live> live;
  live.reserve(batch.size());
  for (PendingRequest& pending : batch) {
    if (pending.request.op == RequestOp::kInfo) {
      MatchResponse response;
      response.id = pending.request.id;
      response.status = ResponseStatus::kOk;
      response.info = InfoJson();
      pending.complete(std::move(response));
      continue;
    }
    if (pending.has_deadline && now > pending.deadline) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      pending.complete(ErrorResponse(pending.request.id,
                                     ResponseStatus::kDeadlineExceeded,
                                     "deadline expired before scoring"));
      continue;
    }
    Entry* entry = nullptr;
    MatchResponse error;
    if (!ValidateRequest(pending.request, &entry, &error)) {
      pending.complete(std::move(error));
      continue;
    }
    live.push_back({&pending, entry});
  }

  // Group by matcher, preserving arrival order within each group, and
  // ride every group through one coalesced sweep.
  std::unordered_map<Entry*, std::vector<Live*>> groups;
  std::vector<Entry*> group_order;
  for (Live& request : live) {
    auto [it, inserted] = groups.try_emplace(request.entry);
    if (inserted) group_order.push_back(request.entry);
    it->second.push_back(&request);
  }
  for (Entry* entry : group_order) {
    const std::vector<Live*>& members = groups[entry];
    std::vector<data::PairExample> coalesced;
    for (const Live* member : members) {
      const auto& pairs = member->pending->request.pairs;
      coalesced.insert(coalesced.end(), pairs.begin(), pairs.end());
    }
    const std::vector<std::array<float, 2>> probs =
        ScoreCached(entry, coalesced);
    size_t offset = 0;
    for (Live* member : members) {
      const size_t n = member->pending->request.pairs.size();
      MatchResponse response;
      response.id = member->pending->request.id;
      response.status = ResponseStatus::kOk;
      response.probs.assign(probs.begin() + offset, probs.begin() + offset + n);
      response.labels.reserve(n);
      for (const auto& p : response.probs) {
        response.labels.push_back(p[1] >= p[0] ? 1 : 0);
      }
      response.batch_size = coalesced.size();
      offset += n;
      requests_.fetch_add(1, std::memory_order_relaxed);
      member->pending->complete(std::move(response));
    }
  }
}

std::string MatchService::InfoJson() const {
  std::vector<data::Value> matchers;
  for (const Entry& entry : entries_) {
    matchers.push_back(data::Value::Str(entry.name));
  }
  return data::ToJson(data::Value::Object({
      {"dataset", data::Value::Str(dataset_.name)},
      {"left_rows",
       data::Value::Num(static_cast<double>(dataset_.left_table.size()))},
      {"right_rows",
       data::Value::Num(static_cast<double>(dataset_.right_table.size()))},
      {"matchers", data::Value::List(std::move(matchers))},
      {"default_matcher", data::Value::Str(config_.default_matcher)},
      {"score_cache",
       data::Value::Num(config_.score_cache != nullptr ? 1 : 0)},
      // Entries resident in the warm store without having been
      // materialized: nonzero only for an mmap-attached cache, where a
      // restart serves straight from the mapping.
      {"score_cache_persisted",
       data::Value::Num(config_.score_cache != nullptr
                            ? static_cast<double>(
                                  config_.score_cache->PersistedEntries())
                            : 0)},
  }));
}

MatchService::Stats MatchService::stats() const {
  Stats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.pairs_scored = pairs_scored_.load(std::memory_order_relaxed);
  stats.score_hits = score_hits_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.sweeps = sweeps_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace promptem::serve
