// Regenerates the small committed LM fixture used by execution_test:
//
//   ./build/tools/make_lm_fixture [out_prefix]
//
// Default prefix is tests/data/promptem_integration_lm (run from the repo
// root). Pre-training is fully seeded, so the artifacts are reproducible;
// only regenerate them when the checkpoint format or the transformer
// architecture changes, and commit the result.

#include <cstdio>
#include <string>
#include <vector>

#include "data/benchmarks.h"
#include "lm/pretrained_lm.h"

int main(int argc, char** argv) {
  using namespace promptem;
  const std::string prefix =
      argc > 1 ? argv[1] : "tests/data/promptem_integration_lm";

  data::BenchmarkGenOptions small;
  small.size_scale = 0.3;
  std::vector<data::GemDataset> datasets = {
      data::GenerateBenchmark(data::BenchmarkKind::kRelHeter, 11, small),
      data::GenerateBenchmark(data::BenchmarkKind::kSemiRel, 11, small),
  };
  lm::Corpus corpus = lm::BuildCorpus(datasets, 11);

  nn::TransformerConfig config;
  config.dim = 32;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 64;
  config.max_seq_len = 96;

  lm::MlmOptions options;
  options.epochs = 2;
  options.always_mask_words = {"matched",    "similar",   "relevant",
                               "mismatched", "different", "irrelevant"};

  core::Rng rng(11);
  auto lm = lm::PretrainedLM::Pretrain(corpus, config, options,
                                       lm::RequiredPromptTokens(), &rng);
  core::Status st = lm->Save(prefix);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s.{vocab,config,ckpt} (vocab %d, final mlm loss %.3f)\n",
              prefix.c_str(), lm->vocab().size(),
              lm->pretrain_losses().back());
  return 0;
}
