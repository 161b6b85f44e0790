// table_match and incremental_delta: the in-process block -> encode ->
// score pipeline over the synthetic catalog.
//
// Spans wrap the calls the benchmark makes into each module: the
// MinHashBlocker constructor (data.block_build), a timing Blocker
// decorator (data.next_chunk), PairEncoder::EncodeAll (promptem.encode),
// em::ScoreBatch (promptem.score), MatchPipeline::Step (pipeline.fold,
// whose self time is what Step does besides its children) and
// IncrementalMatcher::ApplyDelta (pipeline.apply_delta, likewise).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "core/rng.h"
#include "data/blocking.h"
#include "pipeline/incremental.h"
#include "pipeline/match_pipeline.h"
#include "trace.h"

namespace promptem::bench {

namespace {

/// Candidates per MatchPipeline chunk in table_match: small enough that a
/// run holds well over a hundred chunks, so the chunk-latency p90 has at
/// least ten samples beyond it.
constexpr size_t kTableChunk = 512;
/// Candidates per chunk in incremental_delta: one chunk holds a whole
/// re-match, so a delta's misses are scored in a single batch.
constexpr size_t kDeltaChunk = 1 << 15;
/// Deltas per run: 16 per second of the run, ten in smoke runs.
constexpr size_t kDeltas = 16 * kRunSeconds;
constexpr size_t kSmokeDeltas = 10;
constexpr size_t kDeltaUpserts = 8;
constexpr size_t kDeltaDeletes = 2;

/// Where the decorators below record: the tracer (a disabled one records
/// nothing) and the parent of their spans. A workload updates it as it
/// goes, and the decorators read it at every call.
struct SpanScope {
  Tracer* tracer = nullptr;
  uint32_t parent = 0;
};

/// Times every NextChunk of the blocker it owns as data.next_chunk.
class TimedBlocker : public data::Blocker {
 public:
  TimedBlocker(std::unique_ptr<data::Blocker> inner, const SpanScope* scope)
      : inner_(std::move(inner)), scope_(scope) {}

  const char* Name() const override { return inner_->Name(); }
  size_t left_size() const override { return inner_->left_size(); }
  size_t right_size() const override { return inner_->right_size(); }
  void Reset() override { inner_->Reset(); }
  size_t NextChunk(size_t max_pairs,
                   std::vector<data::PairExample>* out) override {
    ScopedSpan span(scope_->tracer, Layer::kDataNextChunk, scope_->parent);
    return inner_->NextChunk(max_pairs, out);
  }

 private:
  std::unique_ptr<data::Blocker> inner_;
  const SpanScope* scope_;
};

/// The MinHash blocker (RAM HashIndex backend) over `dataset`, its
/// construction timed as data.block_build.
std::unique_ptr<data::MinHashBlocker> BuildBlocker(
    const data::GemDataset& dataset, const SpanScope& scope) {
  ScopedSpan span(scope.tracer, Layer::kDataBlockBuild, scope.parent);
  return std::make_unique<data::MinHashBlocker>(dataset.left_table,
                                                dataset.right_table);
}

/// EncodeAll then ScoreBatch over one chunk, each timed; counts pairs and
/// invalid probability pairs.
class ChunkScorer {
 public:
  ChunkScorer(em::PairClassifier* model, const em::PairEncoder* encoder,
              const SpanScope* scope)
      : model_(model), encoder_(encoder), scope_(scope) {}

  em::ChunkScoreFn For(const data::GemDataset& dataset) {
    return [this, &dataset](const std::vector<data::PairExample>& chunk) {
      std::vector<em::EncodedPair> encoded;
      {
        ScopedSpan span(scope_->tracer, Layer::kPromptemEncode,
                        scope_->parent);
        encoded = encoder_->EncodeAll(dataset, chunk);
      }
      std::vector<em::ProbPair> probs;
      {
        ScopedSpan span(scope_->tracer, Layer::kPromptemScore,
                        scope_->parent);
        probs = em::ScoreBatch(model_, encoded);
      }
      pairs_scored += chunk.size();
      for (const em::ProbPair& p : probs) invalid += ValidProbs(p) ? 0 : 1;
      return probs;
    };
  }

  uint64_t pairs_scored = 0;
  uint64_t invalid = 0;

 private:
  em::PairClassifier* model_;
  const em::PairEncoder* encoder_;
  const SpanScope* scope_;
};

double MemoHitRatio(const core::ConcurrentCache<std::vector<int>>::Stats& a,
                    const core::ConcurrentCache<std::vector<int>>::Stats& b) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

std::string FreshRunDir(const Options& options, const std::string& workload) {
  const std::string dir = options.work_dir + "/" + workload;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Sets up SetupRepeats times (each a full LM load, catalog load and
/// training), appending each time to *setups, and returns the last model.
/// The previous model is dropped first so peak memory holds one model.
std::unique_ptr<TrainedModel> SetUpModel(const Options& options,
                                         const Catalog& catalog,
                                         Tracer* tracer,
                                         std::vector<double>* setups) {
  std::unique_ptr<TrainedModel> trained;
  for (int k = 0; k < SetupRepeats(options); ++k) {
    trained.reset();
    const int64_t start = NowNs();
    {
      ScopedSpan span(tracer, Layer::kTrainSetup);
      trained = TrainModel(options, catalog.dir);
    }
    setups->push_back(SecondsSince(start));
    std::printf("setup %d: trained in %.3f s\n", k, setups->back());
  }
  return trained;
}

}  // namespace

RunResult RunTableMatch(const Options& options, Tracer* tracer) {
  const std::string run_dir = FreshRunDir(options, "table_match");
  const Catalog catalog =
      WriteCatalog(options, CatalogRows(options), run_dir + "/catalog");
  RunResult result;
  std::vector<double> setups;
  const std::unique_ptr<TrainedModel> trained =
      SetUpModel(options, catalog, tracer, &setups);
  const data::GemDataset& dataset = trained->dataset;
  const auto memo_before = trained->encoder->cache_stats();

  SpanScope scope{tracer, 0};
  ChunkScorer scorer(trained->model(), &*trained->encoder, &scope);
  em::MatchPipelineConfig config;
  config.chunk_size = kTableChunk;
  config.gold_label = [&catalog](int l, int r) {
    return catalog.GoldLabel(l, r);
  };

  const int64_t start = NowNs();
  std::unique_ptr<data::MinHashBlocker> owned = BuildBlocker(dataset, scope);
  data::MinHashBlocker* blocker = owned.get();
  TimedBlocker timed(std::move(owned), &scope);
  em::MatchPipeline pipeline(&timed, scorer.For(dataset), config);
  std::vector<double> chunk_ms;
  while (true) {
    scope.parent = tracer->enabled() ? tracer->NewId() : 0;
    const int64_t step_start = NowNs();
    const bool more = pipeline.Step();
    const int64_t step_end = NowNs();
    tracer->Record(Layer::kPipelineFold, step_start, step_end, 0, 0,
                   scope.parent);
    if (!more) break;
    chunk_ms.push_back(static_cast<double>(step_end - step_start) * 1e-6);
  }
  const int64_t end = NowNs();
  const double wall = static_cast<double>(end - start) * 1e-9;
  tracer->AddWindow(start, end, 0);
  tracer->SetTracedWall(wall);

  const em::MatchPipelineResult& match = pipeline.result();
  const em::Metrics& metrics = match.metrics;
  const double completeness = static_cast<double>(metrics.tp + metrics.fn) /
                              static_cast<double>(catalog.left_rows);
  std::printf(
      "table_match: %zu candidates in %zu chunks, %.3f s, completeness "
      "%.4f, candidate F1 %.2f\n",
      match.candidates, match.chunks, wall, completeness, 100.0 * metrics.F1());
  result.attempted = match.chunks;
  result.Check(match.candidates > 0, "blocking produced candidates");
  result.Check(match.labeled == match.candidates,
               "every candidate carries a gold label");
  result.Check(scorer.invalid == 0, "every probability pair is valid");
  result.Check(completeness >= 0.95, "blocking completeness >= 0.95");

  // Predicting "match" for every candidate scores tp = gold kept, fp =
  // the rest; a model that does not beat that has collapsed.
  const double all_match_f1 = 200.0 * (metrics.tp + metrics.fn) /
                              (static_cast<double>(match.candidates) +
                               (metrics.tp + metrics.fn));
  result.Check(100.0 * metrics.F1() > all_match_f1,
               "candidate F1 beats predicting match everywhere");

  // The parity probe, scored in-process: serve runs over the same seed
  // print the same digest (and check it against their daemon).
  const std::vector<data::PairExample> probe = ProbePairs(catalog, options);
  const std::vector<em::ProbPair> probe_probs = em::ScoreBatch(
      trained->model(), trained->encoder->EncodeAll(dataset, probe));
  std::printf("probe digest in-process %016llx\n",
              static_cast<unsigned long long>(ProbDigest(probe_probs)));

  if (!tracer->enabled()) {
    result.Add("setup_s", Median(setups), "s");
    result.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
    result.Add("p50_ms", Percentile(chunk_ms, 0.50), "ms");
    result.Add("p90_ms", Percentile(chunk_ms, 0.90), "ms");
    result.Add("pairs_per_s", static_cast<double>(match.candidates) / wall,
               "pairs/s");
    result.Add("f1", ProbeF1(probe, probe_probs), "pct");
    return result;
  }
  const data::MinHashBlocker::IndexStats index = blocker->index_stats();
  result.Add("data.candidates", static_cast<double>(match.candidates),
             "count");
  result.Add("data.candidates_per_left",
             static_cast<double>(match.candidates) /
                 static_cast<double>(catalog.left_rows),
             "pairs");
  result.Add("data.completeness", completeness, "ratio");
  result.Add("data.capped_probes", static_cast<double>(index.capped_probes),
             "count");
  result.Add("data.index_ram_mb",
             static_cast<double>(index.ram_bytes) / (1024.0 * 1024.0), "MB");
  result.Add("promptem.pairs_scored", static_cast<double>(scorer.pairs_scored),
             "count");
  result.Add("promptem.encode_memo_hit_ratio",
             MemoHitRatio(memo_before, trained->encoder->cache_stats()),
             "ratio");
  return result;
}

namespace {

/// A fresh dirty copy of `source`, in the synthetic generator's style:
/// each corruption fires independently with probability 1/4.
data::Record Perturb(const data::Record& source, core::Rng* rng) {
  constexpr double kP = 0.25;
  auto attrs = source.attrs;
  for (auto& [attr, value] : attrs) {
    if (attr == "name" && value.is_string()) {
      std::string name = value.as_string();
      if (rng->Bernoulli(kP) && name.size() >= 2) {
        const size_t i = rng->NextU64(name.size() - 1);
        std::swap(name[i], name[i + 1]);
      }
      value = data::Value::Str(std::move(name));
    } else if (attr == "brand" && value.is_string()) {
      if (rng->Bernoulli(kP)) value = data::Value::Str("");
    } else if (attr == "price" && value.is_number()) {
      if (rng->Bernoulli(kP)) {
        value = data::Value::Num(value.as_number() *
                                 (1.0 + (rng->NextDouble() - 0.5) * 0.06));
      }
    }
  }
  return data::Record::Relational(std::move(attrs));
}

bool SameMatch(const em::MatchPipelineResult& a,
               const em::MatchPipelineResult& b) {
  if (a.candidates != b.candidates || a.matches != b.matches ||
      a.labeled != b.labeled || a.metrics.tp != b.metrics.tp ||
      a.metrics.fp != b.metrics.fp || a.metrics.tn != b.metrics.tn ||
      a.metrics.fn != b.metrics.fn ||
      a.top_matches.size() != b.top_matches.size()) {
    return false;
  }
  for (size_t i = 0; i < a.top_matches.size(); ++i) {
    const em::ScoredMatch& x = a.top_matches[i];
    const em::ScoredMatch& y = b.top_matches[i];
    if (x.left_index != y.left_index || x.right_index != y.right_index ||
        x.pos_prob != y.pos_prob) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult RunIncrementalDelta(const Options& options, Tracer* tracer) {
  const std::string run_dir = FreshRunDir(options, "incremental_delta");
  const Catalog catalog =
      WriteCatalog(options, IncrementalRows(options), run_dir + "/catalog");
  RunResult result;

  // Set-up records only its train.setup span; the layers' spans start with
  // the first delta.
  Tracer off(/*enabled=*/false);
  SpanScope scope{&off, 0};
  std::unique_ptr<TrainedModel> trained;
  // The matcher's encoder is its own, fitted on the same tables as the
  // trained one: PairEncoder keys its memo by Combine64(dataset identity,
  // side | index), and identities are consecutive integers, so in a memo
  // shared by two datasets the keys of one collide with records of the
  // other about 64 indexes away. Sharing the training encoder with the
  // matcher's table copy makes ApplyDelta disagree with a full re-match.
  std::optional<em::PairEncoder> encoder;
  std::unique_ptr<ChunkScorer> scorer;
  std::unique_ptr<em::IncrementalMatcher> matcher;
  em::IncrementalMatcher::Config config;
  config.pipeline.chunk_size = kDeltaChunk;
  config.pipeline.gold_label = [&catalog](int l, int r) {
    return catalog.GoldLabel(l, r);
  };
  const em::IncrementalMatcher::BlockerFactory blocker_factory =
      [&scope](const data::GemDataset& dataset)
      -> std::unique_ptr<data::Blocker> {
    return std::make_unique<TimedBlocker>(BuildBlocker(dataset, scope),
                                          &scope);
  };

  // Set-up: the model and the first full match, SetupRepeats times over.
  std::vector<double> setups;
  for (int k = 0; k < SetupRepeats(options); ++k) {
    matcher.reset();
    scorer.reset();
    encoder.reset();
    trained.reset();
    const int64_t start = NowNs();
    {
      ScopedSpan span(tracer, Layer::kTrainSetup);
      trained = TrainModel(options, catalog.dir);
      encoder.emplace(em::MakePairEncoder(*trained->lm, trained->dataset));
      scorer =
          std::make_unique<ChunkScorer>(trained->model(), &*encoder, &scope);
      config.encoder = &*encoder;
      matcher = std::make_unique<em::IncrementalMatcher>(
          trained->dataset,
          [&scorer](const data::GemDataset& d) { return scorer->For(d); },
          blocker_factory, config);
      matcher->FullMatch();
    }
    setups.push_back(SecondsSince(start));
    std::printf("setup %d: trained and fully matched in %.3f s\n", k,
                setups.back());
  }
  const size_t initial_candidates = matcher->last_stats().candidates;
  const auto memo_before = encoder->cache_stats();
  const uint64_t scored_before = scorer->pairs_scored;
  scope.tracer = tracer;

  const size_t deltas = options.smoke ? kSmokeDeltas : kDeltas;
  core::Rng rng(StreamSeed(options.seed, "incremental_delta", "deltas"));
  std::vector<double> delta_ms;
  uint64_t candidates = 0;
  uint64_t rescored = 0;
  uint64_t reused = 0;
  bool reconciled = true;
  em::MatchPipelineResult last;
  const int64_t start = NowNs();
  for (size_t d = 0; d < deltas; ++d) {
    em::RecordDelta delta;
    const data::GemDataset& current = matcher->dataset();
    for (size_t u = 0; u < kDeltaUpserts; ++u) {
      const int r = static_cast<int>(rng.NextU64(catalog.right_rows));
      const int l = catalog.left_of_right[static_cast<size_t>(r)];
      // A gold right is re-derived from its (never modified) left record,
      // so it stays the gold match; a distractor is re-dirtied in place.
      const data::Record& base =
          l >= 0 ? current.left_table[static_cast<size_t>(l)]
                 : current.right_table[static_cast<size_t>(r)];
      delta.upserts.push_back({/*left=*/false, r, Perturb(base, &rng)});
    }
    for (size_t x = 0; x < kDeltaDeletes; ++x) {
      delta.deletes.push_back(
          {/*left=*/false, static_cast<int>(rng.NextU64(catalog.right_rows))});
    }
    scope.parent = tracer->enabled() ? tracer->NewId() : 0;
    const int64_t t0 = NowNs();
    last = matcher->ApplyDelta(delta);
    const int64_t t1 = NowNs();
    tracer->Record(Layer::kPipelineApplyDelta, t0, t1, 0, 0, scope.parent);
    delta_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    const em::DeltaStats& stats = matcher->last_stats();
    reconciled = reconciled &&
                 stats.rescored + stats.reused == stats.candidates &&
                 stats.candidates == last.candidates;
    candidates += stats.candidates;
    rescored += stats.rescored;
    reused += stats.reused;
  }
  const int64_t end = NowNs();
  // Read before the re-match check below, which builds a second matcher.
  const double peak_rss_mb = SelfPeakRssMb();
  const double wall = static_cast<double>(end - start) * 1e-9;
  tracer->AddWindow(start, end, 0);
  tracer->SetTracedWall(wall);
  double delta_total_s = 0.0;
  for (double ms : delta_ms) delta_total_s += ms * 1e-3;

  std::printf(
      "incremental_delta: %zu deltas over %zu initial candidates, %.3f s, "
      "%llu rescored, %llu reused, candidate F1 %.2f\n",
      deltas, initial_candidates, wall,
      static_cast<unsigned long long>(rescored),
      static_cast<unsigned long long>(reused), 100.0 * last.metrics.F1());
  result.attempted = deltas;
  result.Check(reconciled, "every delta: rescored + reused == candidates");
  result.Check(scorer->invalid == 0, "every probability pair is valid");
  result.Check(rescored > 0 && reused > rescored,
               "deltas re-score only the pairs they touch");
  // ApplyDelta must equal a from-scratch match over the final tables,
  // scored through an encoder of its own (fitted on the original tables,
  // like the matcher's).
  {
    const SpanScope untraced{&off, 0};
    const em::PairEncoder fresh_encoder =
        em::MakePairEncoder(*trained->lm, trained->dataset);
    ChunkScorer fresh_scorer(trained->model(), &fresh_encoder, &untraced);
    em::IncrementalMatcher::Config fresh_config;
    fresh_config.pipeline = config.pipeline;
    em::IncrementalMatcher fresh(
        matcher->dataset(),
        [&fresh_scorer](const data::GemDataset& d) {
          return fresh_scorer.For(d);
        },
        [&untraced](const data::GemDataset& dataset)
            -> std::unique_ptr<data::Blocker> {
          return BuildBlocker(dataset, untraced);
        },
        fresh_config);
    result.Check(SameMatch(fresh.FullMatch(), last),
                 "incremental result equals a full re-match");
  }

  if (!tracer->enabled()) {
    result.Add("setup_s", Median(setups), "s");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.Add("p50_ms", Percentile(delta_ms, 0.50), "ms");
    result.Add("p90_ms", Percentile(delta_ms, 0.90), "ms");
    result.Add("pairs_per_s", static_cast<double>(candidates) / delta_total_s,
               "pairs/s");
    const std::vector<data::PairExample> probe = ProbePairs(catalog, options);
    result.Add("f1",
               ProbeF1(probe, em::ScoreBatch(trained->model(),
                                             trained->encoder->EncodeAll(
                                                 trained->dataset, probe))),
               "pct");
    return result;
  }
  result.Add("data.candidates",
             static_cast<double>(candidates) / static_cast<double>(deltas),
             "count");
  result.Add("data.candidates_per_left",
             static_cast<double>(candidates) /
                 (static_cast<double>(deltas) *
                  static_cast<double>(catalog.left_rows)),
             "pairs");
  result.Add("promptem.pairs_scored",
             static_cast<double>(scorer->pairs_scored - scored_before),
             "count");
  result.Add("promptem.encode_memo_hit_ratio",
             MemoHitRatio(memo_before, encoder->cache_stats()),
             "ratio");
  result.Add("pipeline.rescored", static_cast<double>(rescored), "count");
  result.Add("pipeline.reused", static_cast<double>(reused), "count");
  result.Add("pipeline.reuse_ratio",
             static_cast<double>(reused) / static_cast<double>(candidates),
             "ratio");
  return result;
}

}  // namespace promptem::bench
