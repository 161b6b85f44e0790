#include "promptem/promptem.h"

#include "core/mem_tracker.h"
#include "core/timer.h"
#include "nn/serialize.h"

namespace promptem::em {

PairEncoder MakePairEncoder(const lm::PretrainedLM& lm,
                            const data::GemDataset& dataset) {
  // Worst-case template overhead across both templates, halved per side.
  const int overhead = std::max(TemplateOverhead(TemplateType::kT1),
                                TemplateOverhead(TemplateType::kT2));
  const int budget = (lm.config().max_seq_len - overhead) / 2;
  PairEncoder encoder(&lm.vocab(), budget);
  encoder.FitSummarizer(dataset);
  return encoder;
}

PromptEM::PromptEM(const lm::PretrainedLM* lm, const PromptEMConfig& config)
    : lm_(lm), config_(config) {
  PROMPTEM_CHECK(lm != nullptr);
}

std::unique_ptr<PairClassifier> PromptEM::MakeModel(core::Rng* rng) const {
  if (config_.use_prompt_tuning) {
    return std::make_unique<PromptModel>(*lm_, config_.model, rng);
  }
  return std::make_unique<FinetuneModel>(*lm_, rng);
}

PromptEMResult PromptEM::Run(const data::GemDataset& dataset,
                             const data::LowResourceSplit& split) const {
  core::Timer timer;
  core::ScopedPeakMemory peak;

  PairEncoder encoder = MakePairEncoder(*lm_, dataset);
  const std::vector<EncodedPair> labeled =
      encoder.EncodeAll(dataset, split.labeled);
  const std::vector<EncodedPair> unlabeled =
      encoder.EncodeAll(dataset, split.unlabeled);
  const std::vector<EncodedPair> valid =
      encoder.EncodeAll(dataset, split.valid);
  const std::vector<EncodedPair> test =
      encoder.EncodeAll(dataset, split.test);

  SelfTrainingConfig st = config_.self_training;
  st.seed = config_.seed;
  st.teacher_options.seed = config_.seed ^ 0x51ED;
  st.student_options.seed = config_.seed ^ 0x9A3F;

  core::Rng model_rng(config_.seed);
  ModelFactory factory = [this, &model_rng]() {
    return MakeModel(&model_rng);
  };

  // Clustering embeddings (only consulted by the kClustering strategy).
  EmbeddingFn embed = [](const EncodedPair&, core::Rng*) {
    return std::vector<float>();
  };
  std::shared_ptr<EmbeddingCache> embed_cache;
  if (st.strategy == PseudoLabelStrategy::kClustering) {
    embed = [this](const EncodedPair& x, core::Rng* rng) {
      // A strategy probe uses the fine-tune pair embedding space.
      static thread_local std::unique_ptr<FinetuneModel> probe;
      if (probe == nullptr) {
        core::Rng probe_rng(config_.seed ^ 0xC1u);
        probe = std::make_unique<FinetuneModel>(*lm_, &probe_rng);
        probe->Eval();
      }
      tensor::Tensor e = probe->PairEmbedding(x, rng);
      return std::vector<float>(e.data(), e.data() + e.numel());
    };
    // Probe embeddings are a pure function of (LM weights, probe seed,
    // pair), so they can ride the persistent embedding cache when one is
    // installed: keys come from content fingerprints of the tables and
    // of a probe built exactly like the lambda's, making them stable
    // across restarts of the same run configuration.
    embed_cache = GetGlobalEmbeddingCache();
    if (embed_cache != nullptr) {
      core::Rng probe_rng(config_.seed ^ 0xC1u);
      FinetuneModel probe(*lm_, &probe_rng);
      const uint64_t tag = EmbeddingCache::ContextTag(
          data::DatasetFingerprint(dataset),
          nn::ParameterFingerprint(*probe.AsModule()));
      st.embed_cache = embed_cache.get();
      st.embed_keys.reserve(split.unlabeled.size());
      for (const auto& p : split.unlabeled) {
        st.embed_keys.push_back(
            EmbeddingCache::PairKey(tag, p.left_index, p.right_index));
      }
    }
  }

  PromptEMResult result;
  last_model_ = RunSelfTraining(factory, labeled, unlabeled, valid, st,
                                &result.stats, embed);
  result.valid = Evaluate(last_model_.get(), valid);
  result.test = Evaluate(last_model_.get(), test);
  result.total_seconds = timer.ElapsedSeconds();
  result.peak_memory_bytes = peak.Peak();
  return result;
}

}  // namespace promptem::em
