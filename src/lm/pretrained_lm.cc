#include "lm/pretrained_lm.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>

#include "core/string_util.h"

#include "core/log.h"
#include "data/benchmarks.h"
#include "nn/serialize.h"

namespace promptem::lm {

std::unique_ptr<PretrainedLM> PretrainedLM::Pretrain(
    const Corpus& corpus, nn::TransformerConfig config,
    const MlmOptions& options,
    const std::vector<std::string>& always_keep_tokens, core::Rng* rng) {
  auto lm = std::unique_ptr<PretrainedLM>(new PretrainedLM());
  lm->vocab_ = BuildCorpusVocab(corpus, always_keep_tokens);
  config.vocab_size = lm->vocab_.size();
  lm->config_ = config;
  lm->encoder_ = std::make_unique<nn::TransformerEncoder>(config, rng);
  lm->pretrain_losses_ =
      PretrainMlm(lm->encoder_.get(), corpus, lm->vocab_, options, rng);
  return lm;
}

core::Status PretrainedLM::Save(const std::string& path_prefix) const {
  // Vocabulary: one token per line, id order.
  std::ofstream vf(path_prefix + ".vocab");
  if (!vf) {
    return core::Status::IOError("cannot write vocab: " + path_prefix);
  }
  for (int i = 0; i < vocab_.size(); ++i) {
    vf << vocab_.ToToken(i) << "\n";
  }
  vf << std::flush;
  if (!vf) return core::Status::IOError("vocab write failed");

  // Architecture line + weights.
  std::ofstream cf(path_prefix + ".config");
  if (!cf) {
    return core::Status::IOError("cannot write config: " + path_prefix);
  }
  cf << config_.vocab_size << " " << config_.max_seq_len << " "
     << config_.dim << " " << config_.num_layers << " " << config_.num_heads
     << " " << config_.ffn_dim << " " << config_.dropout << "\n";
  cf << std::flush;
  if (!cf) return core::Status::IOError("config write failed");

  return nn::SaveCheckpoint(*encoder_, path_prefix + ".ckpt");
}

namespace {

/// Rejects architecture lines that are syntactically readable but could
/// only come from a corrupt or doctored .config file. The caps are far
/// above any configuration this library builds, and they bound the
/// allocation a bad config could otherwise trigger when the encoder is
/// constructed below.
core::Status ValidateLoadedConfig(const nn::TransformerConfig& config,
                                  int vocab_size,
                                  const std::string& path_prefix) {
  auto bad = [&](const char* what) {
    return core::Status::InvalidArgument(
        core::StrFormat("implausible config for %s: %s",
                        path_prefix.c_str(), what));
  };
  if (config.vocab_size != vocab_size) {
    return core::Status::InvalidArgument(
        "config/vocab mismatch for " + path_prefix);
  }
  if (config.dim <= 0 || config.dim > (1 << 16)) return bad("dim");
  if (config.num_layers <= 0 || config.num_layers > 1024) {
    return bad("num_layers");
  }
  if (config.num_heads <= 0 || config.num_heads > config.dim ||
      config.dim % config.num_heads != 0) {
    return bad("num_heads");
  }
  if (config.ffn_dim <= 0 || config.ffn_dim > (1 << 20)) {
    return bad("ffn_dim");
  }
  if (config.max_seq_len <= 0 || config.max_seq_len > (1 << 20)) {
    return bad("max_seq_len");
  }
  if (!(config.dropout >= 0.0f && config.dropout < 1.0f)) {
    return bad("dropout");
  }
  return core::Status::OK();
}

}  // namespace

core::Result<std::unique_ptr<PretrainedLM>> PretrainedLM::Load(
    const std::string& path_prefix) {
  auto vocab = text::LoadVocabFile(path_prefix + ".vocab");
  if (!vocab.ok()) return vocab.status();
  auto lm = std::unique_ptr<PretrainedLM>(new PretrainedLM());
  lm->vocab_ = std::move(vocab).value();

  std::ifstream cf(path_prefix + ".config");
  if (!cf) {
    return core::Status::IOError("cannot read config: " + path_prefix);
  }
  nn::TransformerConfig config;
  cf >> config.vocab_size >> config.max_seq_len >> config.dim >>
      config.num_layers >> config.num_heads >> config.ffn_dim >>
      config.dropout;
  if (!cf) {
    return core::Status::InvalidArgument(
        "unparseable config for " + path_prefix);
  }
  core::Status valid =
      ValidateLoadedConfig(config, lm->vocab_.size(), path_prefix);
  if (!valid.ok()) return valid;
  lm->config_ = config;
  core::Rng init_rng(1);  // overwritten by the checkpoint below
  lm->encoder_ = std::make_unique<nn::TransformerEncoder>(config, &init_rng);
  core::Status st =
      nn::LoadCheckpoint(lm->encoder_.get(), path_prefix + ".ckpt");
  if (!st.ok()) return st;
  return lm;
}

std::unique_ptr<nn::TransformerEncoder> PretrainedLM::CloneEncoder(
    core::Rng* rng) const {
  auto clone = std::make_unique<nn::TransformerEncoder>(config_, rng);
  core::Status st = nn::CopyParameters(*encoder_, clone.get());
  PROMPTEM_CHECK_MSG(st.ok(), st.ToString().c_str());
  return clone;
}

std::vector<std::string> RequiredPromptTokens() {
  return {"matched",   "similar",   "relevant",  "mismatched",
          "different", "irrelevant", "they",     "are",
          "is",        "to",         "yes",      "no"};
}

std::unique_ptr<PretrainedLM> GetOrCreateSharedLM(
    const std::string& path_prefix, uint64_t seed) {
  auto loaded = PretrainedLM::Load(path_prefix);
  if (loaded.ok()) {
    return std::move(loaded).value();
  }
  // A missing cache is the normal first-run path; a cache that exists but
  // fails validation deserves a visible warning before we fall back.
  struct stat cache_stat;
  if (::stat((path_prefix + ".vocab").c_str(), &cache_stat) == 0 ||
      ::stat((path_prefix + ".ckpt").c_str(), &cache_stat) == 0) {
    PROMPTEM_LOG(Warn) << "ignoring unusable LM cache at " << path_prefix
                       << ": " << loaded.status().ToString();
  }
  PROMPTEM_LOG(Info) << "pre-training shared LM (cache miss at "
                     << path_prefix << ")";
  core::Rng rng(seed);
  Corpus corpus = BuildCorpus(data::GenerateAllBenchmarks(seed), seed);
  nn::TransformerConfig config;
  config.dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_dim = 64;
  config.max_seq_len = 96;
  MlmOptions options;
  options.epochs = 4;
  options.always_mask_words = {"matched",    "similar",   "relevant",
                               "mismatched", "different", "irrelevant"};
  auto lm = PretrainedLM::Pretrain(corpus, config, options,
                                   RequiredPromptTokens(), &rng);
  core::Status st = lm->Save(path_prefix);
  if (!st.ok()) {
    PROMPTEM_LOG(Warn) << "could not cache LM: " << st.ToString();
  }
  return lm;
}

}  // namespace promptem::lm
