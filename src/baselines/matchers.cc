#include "baselines/matchers.h"

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/bert_ft.h"
#include "baselines/common.h"
#include "baselines/dader.h"
#include "baselines/deepmatcher.h"
#include "baselines/ditto.h"
#include "baselines/rotom.h"
#include "baselines/sentence_bert.h"
#include "baselines/tdmatch.h"
#include "baselines/tdmatch_star.h"
#include "core/status.h"
#include "core/timer.h"
#include "promptem/scoring.h"
#include "promptem/trainer.h"
#include "train/registry.h"
#include "train/train_loop.h"

// One adapter per method, registered under its canonical MethodName. Each
// Train() preserves its pre-registry RunMethod branch exactly — the same
// RNG construction (options.seed ^ (method << 8)), the same draw order,
// the same training entry point — so a fixed seed reproduces the
// pre-refactor weights bit for bit (pinned by tests/data/train_golden.json).

namespace promptem::baselines {

namespace {

using train::Matcher;
using train::MatcherContext;

core::Rng MethodRng(Method method, const RunOptions& options) {
  return core::Rng(options.seed ^ (static_cast<uint64_t>(method) << 8));
}

train::LoopOptions MakeLoopOptions(const MatcherContext& ctx,
                                   const std::string& run_name) {
  train::LoopOptions options;
  options.epochs = ctx.options.epochs;
  options.lr = ctx.options.lr;
  options.batch_size = ctx.options.batch_size;
  options.seed = ctx.options.seed ^ 0xB5;
  options.observer = ctx.observer;
  options.run_name = run_name;
  options.dataset_name = ctx.dataset->name;
  return options;
}

/// Base for the methods whose trained state is an em::PairClassifier
/// scored through the unified engine: Predict re-encodes the candidate
/// pairs with the run's (deterministic) encoder and thresholds P(yes).
class ClassifierMatcher : public Matcher {
 public:
  std::vector<int> Predict(
      const MatcherContext& ctx,
      const std::vector<data::PairExample>& pairs) override {
    PROMPTEM_CHECK_MSG(model_ != nullptr, "Predict before Train");
    return em::PredictLabels(model_.get(),
                             encoder_->EncodeAll(*ctx.dataset, pairs));
  }

  std::vector<std::array<float, 2>> ScoreProbs(
      const MatcherContext& ctx,
      const std::vector<data::PairExample>& pairs) override {
    PROMPTEM_CHECK_MSG(model_ != nullptr, "ScoreProbs before Train");
    return em::ScoreBatch(model_.get(),
                          encoder_->EncodeAll(*ctx.dataset, pairs));
  }

 protected:
  std::optional<em::PairEncoder> encoder_;
  std::unique_ptr<em::PairClassifier> model_;
};

class DeepMatcherMatcher final : public ClassifierMatcher {
 public:
  std::string Name() const override { return "DeepMatcher"; }

  void Train(const MatcherContext& ctx) override {
    core::Rng rng = MethodRng(Method::kDeepMatcher, ctx.options);
    encoder_.emplace(em::MakePairEncoder(*ctx.lm, *ctx.dataset));
    model_ = std::make_unique<DeepMatcherModel>(
        ctx.lm->vocab(), /*embed_dim=*/32, /*hidden_dim=*/16, &rng);
    const auto train = encoder_->EncodeAll(*ctx.dataset, ctx.split->labeled);
    const auto valid = encoder_->EncodeAll(*ctx.dataset, ctx.split->valid);
    em::TrainClassifier(model_.get(), train, valid,
                        MakeLoopOptions(ctx, Name()));
  }
};

class BertMatcher final : public ClassifierMatcher {
 public:
  std::string Name() const override { return "BERT"; }

  void Train(const MatcherContext& ctx) override {
    core::Rng rng = MethodRng(Method::kBert, ctx.options);
    encoder_.emplace(em::MakePairEncoder(*ctx.lm, *ctx.dataset));
    model_ = MakeBertBaseline(*ctx.lm, &rng);
    const auto train = encoder_->EncodeAll(*ctx.dataset, ctx.split->labeled);
    const auto valid = encoder_->EncodeAll(*ctx.dataset, ctx.split->valid);
    em::TrainClassifier(model_.get(), train, valid,
                        MakeLoopOptions(ctx, Name()));
  }
};

class SentenceBertMatcher final : public ClassifierMatcher {
 public:
  std::string Name() const override { return "SentenceBERT"; }

  void Train(const MatcherContext& ctx) override {
    core::Rng rng = MethodRng(Method::kSentenceBert, ctx.options);
    encoder_.emplace(em::MakePairEncoder(*ctx.lm, *ctx.dataset));
    model_ = std::make_unique<SentenceBertModel>(*ctx.lm, &rng);
    const auto train = encoder_->EncodeAll(*ctx.dataset, ctx.split->labeled);
    const auto valid = encoder_->EncodeAll(*ctx.dataset, ctx.split->valid);
    em::TrainClassifier(model_.get(), train, valid,
                        MakeLoopOptions(ctx, Name()));
  }
};

class DittoMatcher final : public ClassifierMatcher {
 public:
  std::string Name() const override { return "Ditto"; }

  void Train(const MatcherContext& ctx) override {
    // Fine-tuning + TF-IDF summarization (in the encoder) + one round of
    // label-invariant augmentation. The RNG draw order (fork, augment,
    // then model init) is part of the pinned behavioural contract.
    core::Rng rng = MethodRng(Method::kDitto, ctx.options);
    encoder_.emplace(em::MakePairEncoder(*ctx.lm, *ctx.dataset));
    auto train = encoder_->EncodeAll(*ctx.dataset, ctx.split->labeled);
    core::Rng aug_rng = rng.Fork();
    const auto augmented = AugmentSet(train, /*copies=*/1, &aug_rng);
    model_ = std::make_unique<em::FinetuneModel>(*ctx.lm, &rng);
    train.insert(train.end(), augmented.begin(), augmented.end());
    const auto valid = encoder_->EncodeAll(*ctx.dataset, ctx.split->valid);
    em::TrainClassifier(model_.get(), train, valid,
                        MakeLoopOptions(ctx, Name()));
  }
};

class RotomMatcher final : public ClassifierMatcher {
 public:
  std::string Name() const override { return "Rotom"; }

  void Train(const MatcherContext& ctx) override {
    core::Rng rng = MethodRng(Method::kRotom, ctx.options);
    encoder_.emplace(em::MakePairEncoder(*ctx.lm, *ctx.dataset));
    const auto labeled =
        encoder_->EncodeAll(*ctx.dataset, ctx.split->labeled);
    const auto valid = encoder_->EncodeAll(*ctx.dataset, ctx.split->valid);
    model_ = RunRotom(*ctx.lm, labeled, valid,
                      MakeLoopOptions(ctx, Name()), &rng);
  }
};

class DaderMatcher final : public ClassifierMatcher {
 public:
  std::string Name() const override { return "DADER"; }

  void Train(const MatcherContext& ctx) override {
    core::Rng rng = MethodRng(Method::kDader, ctx.options);
    encoder_.emplace(em::MakePairEncoder(*ctx.lm, *ctx.dataset));
    const data::BenchmarkKind source_kind = DaderSourceFor(ctx.kind);
    const data::GemDataset source =
        data::GenerateBenchmark(source_kind, ctx.options.seed);
    em::PairEncoder source_encoder = em::MakePairEncoder(*ctx.lm, source);
    const auto source_train = source_encoder.EncodeAll(source, source.train);
    const auto labeled =
        encoder_->EncodeAll(*ctx.dataset, ctx.split->labeled);
    const auto unlabeled =
        encoder_->EncodeAll(*ctx.dataset, ctx.split->unlabeled);
    const auto valid = encoder_->EncodeAll(*ctx.dataset, ctx.split->valid);
    model_ = RunDader(*ctx.lm, source_train, labeled, unlabeled, valid,
                      MakeLoopOptions(ctx, Name()), &rng);
  }
};

class TdMatchMatcher final : public Matcher {
 public:
  std::string Name() const override { return "TDmatch"; }

  void Train(const MatcherContext& ctx) override {
    core::Timer timer;
    graph_ = std::make_unique<TdMatchGraph>(*ctx.dataset);
    graph_->ComputeAllEmbeddings();  // the measured "training" phase
    // TDmatch has no epochs; synthesize a single epoch record so its runs
    // appear in the same telemetry stream as every learner.
    if (ctx.observer != nullptr) {
      train::RunMeta meta;
      meta.run_name = Name();
      meta.dataset = ctx.dataset->name;
      meta.seed = ctx.options.seed;
      meta.epochs = 1;
      meta.dataset_size = graph_->num_nodes();
      ctx.observer->OnLoopBegin(meta);
      ctx.observer->OnEpochBegin(1);
      train::EpochStats stats;
      stats.epoch = 1;
      stats.samples = graph_->num_nodes();
      stats.seconds = timer.ElapsedSeconds();
      stats.examples_per_sec =
          stats.seconds > 0.0
              ? static_cast<double>(stats.samples) / stats.seconds
              : 0.0;
      ctx.observer->OnEpochEnd(stats);
      ctx.observer->OnLoopEnd(train::LoopResult{});
    }
  }

  std::vector<int> Predict(
      const MatcherContext& ctx,
      const std::vector<data::PairExample>& pairs) override {
    (void)ctx;
    PROMPTEM_CHECK_MSG(graph_ != nullptr, "Predict before Train");
    return graph_->PredictPairs(pairs);
  }

 private:
  std::unique_ptr<TdMatchGraph> graph_;
};

class TdMatchStarMatcher final : public Matcher {
 public:
  std::string Name() const override { return "TDmatch*"; }

  void Train(const MatcherContext& ctx) override {
    core::Rng rng = MethodRng(Method::kTdMatchStar, ctx.options);
    graph_ = std::make_unique<TdMatchGraph>(*ctx.dataset);
    graph_->ComputeAllEmbeddings();
    star_ = std::make_unique<TdMatchStar>(graph_.get(),
                                          /*embedding_dim=*/32,
                                          ctx.options.seed, &rng);
    star_->Train(ctx.split->labeled, ctx.options.epochs * 4, /*lr=*/5e-3f,
                 &rng, ctx.observer);
  }

  std::vector<int> Predict(
      const MatcherContext& ctx,
      const std::vector<data::PairExample>& pairs) override {
    (void)ctx;
    PROMPTEM_CHECK_MSG(star_ != nullptr, "Predict before Train");
    return star_->Predict(pairs);
  }

 private:
  std::unique_ptr<TdMatchGraph> graph_;
  std::unique_ptr<TdMatchStar> star_;
};

/// PromptEM and its three ablation variants (hidden from --list-matchers
/// but creatable by name).
class PromptEmMatcher final : public ClassifierMatcher {
 public:
  explicit PromptEmMatcher(Method method) : method_(method) {}

  std::string Name() const override { return MethodName(method_); }

  void Train(const MatcherContext& ctx) override {
    em::PromptEMConfig config = MakePromptEmConfig(method_, ctx.options);
    config.self_training.teacher_options.observer = ctx.observer;
    config.self_training.teacher_options.dataset_name = ctx.dataset->name;
    config.self_training.student_options.observer = ctx.observer;
    config.self_training.student_options.dataset_name = ctx.dataset->name;
    promptem_ = std::make_unique<em::PromptEM>(ctx.lm, config);
    result_ = promptem_->Run(*ctx.dataset, *ctx.split);
    // The façade trains and keeps the final model; the registry's Predict
    // path scores through the same encoder construction Run used.
    encoder_.emplace(em::MakePairEncoder(*ctx.lm, *ctx.dataset));
  }

  std::vector<int> Predict(
      const MatcherContext& ctx,
      const std::vector<data::PairExample>& pairs) override {
    PROMPTEM_CHECK_MSG(promptem_ != nullptr, "Predict before Train");
    return em::PredictLabels(promptem_->last_model(),
                             encoder_->EncodeAll(*ctx.dataset, pairs));
  }

  std::vector<std::array<float, 2>> ScoreProbs(
      const MatcherContext& ctx,
      const std::vector<data::PairExample>& pairs) override {
    // The façade owns the trained model (model_ stays null); score it
    // through the same engine path ClassifierMatcher uses.
    PROMPTEM_CHECK_MSG(promptem_ != nullptr, "ScoreProbs before Train");
    return em::ScoreBatch(promptem_->last_model(),
                          encoder_->EncodeAll(*ctx.dataset, pairs));
  }

  const em::PromptEMResult& result() const { return result_; }

 private:
  Method method_;
  std::unique_ptr<em::PromptEM> promptem_;
  em::PromptEMResult result_;
};

REGISTER_MATCHER("DeepMatcher",
                 [] { return std::make_unique<DeepMatcherMatcher>(); });
REGISTER_MATCHER("BERT", [] { return std::make_unique<BertMatcher>(); });
REGISTER_MATCHER("SentenceBERT",
                 [] { return std::make_unique<SentenceBertMatcher>(); });
REGISTER_MATCHER("Ditto", [] { return std::make_unique<DittoMatcher>(); });
REGISTER_MATCHER("DADER", [] { return std::make_unique<DaderMatcher>(); });
REGISTER_MATCHER("Rotom", [] { return std::make_unique<RotomMatcher>(); });
REGISTER_MATCHER("TDmatch",
                 [] { return std::make_unique<TdMatchMatcher>(); });
REGISTER_MATCHER("TDmatch*",
                 [] { return std::make_unique<TdMatchStarMatcher>(); });
REGISTER_MATCHER("PromptEM", [] {
  return std::make_unique<PromptEmMatcher>(Method::kPromptEM);
});
REGISTER_MATCHER_HIDDEN("PromptEM w/o PT", [] {
  return std::make_unique<PromptEmMatcher>(Method::kPromptEMNoPT);
});
REGISTER_MATCHER_HIDDEN("PromptEM w/o LST", [] {
  return std::make_unique<PromptEmMatcher>(Method::kPromptEMNoLST);
});
REGISTER_MATCHER_HIDDEN("PromptEM w/o DDP", [] {
  return std::make_unique<PromptEmMatcher>(Method::kPromptEMNoDDP);
});

}  // namespace

void EnsureBaselineMatchersRegistered() {
  // The registrations above run during this translation unit's static
  // initialization; referencing this function forces the TU to link.
}

}  // namespace promptem::baselines
