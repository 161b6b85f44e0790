#include "baselines/common.h"

#include "baselines/matchers.h"
#include "core/status.h"

namespace promptem::baselines {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kDeepMatcher:
      return "DeepMatcher";
    case Method::kBert:
      return "BERT";
    case Method::kSentenceBert:
      return "SentenceBERT";
    case Method::kDitto:
      return "Ditto";
    case Method::kDader:
      return "DADER";
    case Method::kRotom:
      return "Rotom";
    case Method::kTdMatch:
      return "TDmatch";
    case Method::kTdMatchStar:
      return "TDmatch*";
    case Method::kPromptEM:
      return "PromptEM";
    case Method::kPromptEMNoPT:
      return "PromptEM w/o PT";
    case Method::kPromptEMNoLST:
      return "PromptEM w/o LST";
    case Method::kPromptEMNoDDP:
      return "PromptEM w/o DDP";
  }
  return "?";
}

const std::vector<Method>& BaselineMethods() {
  static const std::vector<Method> kMethods = {
      Method::kDeepMatcher, Method::kBert,    Method::kSentenceBert,
      Method::kDitto,       Method::kDader,   Method::kRotom,
      Method::kTdMatch,     Method::kTdMatchStar,
  };
  return kMethods;
}

const std::vector<Method>& PromptEmVariants() {
  static const std::vector<Method> kVariants = {
      Method::kPromptEM, Method::kPromptEMNoPT, Method::kPromptEMNoLST,
      Method::kPromptEMNoDDP,
  };
  return kVariants;
}

em::PromptEMConfig MakePromptEmConfig(Method method,
                                      const RunOptions& options) {
  em::PromptEMConfig config;
  config.seed = options.seed;
  config.use_prompt_tuning = method != Method::kPromptEMNoPT;
  config.self_training.use_pseudo_labels = method != Method::kPromptEMNoLST;
  config.self_training.use_pruning =
      method != Method::kPromptEMNoDDP && method != Method::kPromptEMNoLST;
  config.self_training.teacher_options.epochs = options.epochs;
  config.self_training.teacher_options.lr = options.lr;
  config.self_training.teacher_options.batch_size = options.batch_size;
  config.self_training.student_options.epochs = options.student_epochs;
  config.self_training.student_options.lr = options.lr;
  config.self_training.student_options.batch_size = options.batch_size;
  config.self_training.pseudo_ratio = options.pseudo_ratio;
  config.self_training.prune_ratio = options.prune_ratio;
  config.self_training.prune_every = options.prune_every;
  config.self_training.mc_passes = options.mc_passes;
  PROMPTEM_CHECK_MSG(
      em::ParsePseudoLabelStrategy(options.pseudo_strategy,
                                   &config.self_training.strategy),
      "unknown pseudo-label strategy (uncertainty|confidence|clustering)");
  return config;
}

MethodResult RunMethod(Method method, const lm::PretrainedLM& lm,
                       data::BenchmarkKind kind,
                       const data::GemDataset& dataset,
                       const data::LowResourceSplit& split,
                       const RunOptions& options,
                       train::TrainObserver* observer) {
  EnsureBaselineMatchersRegistered();
  std::unique_ptr<train::Matcher> matcher =
      train::MatcherRegistry::Instance().Create(MethodName(method));
  PROMPTEM_CHECK_MSG(matcher != nullptr, "method has no registered matcher");

  train::MatcherContext ctx;
  ctx.lm = &lm;
  ctx.kind = kind;
  ctx.dataset = &dataset;
  ctx.split = &split;
  ctx.options = options;
  ctx.observer = observer;
  return train::RunMatcher(matcher.get(), ctx);
}

}  // namespace promptem::baselines
