#include "promptem/finetune_model.h"

#include "promptem/scoring.h"
#include "tensor/autograd.h"

namespace promptem::em {

namespace ops = tensor::ops;
using text::SpecialTokens;

FinetuneModel::FinetuneModel(const lm::PretrainedLM& lm, core::Rng* rng)
    : encoder_(lm.CloneEncoder(rng)) {
  head_ = std::make_unique<nn::Linear>(encoder_->config().dim, 2, rng);
  RegisterModule("encoder", encoder_.get());
  RegisterModule("head", head_.get());
}

std::vector<int> FinetuneModel::BuildInputIds(const EncodedPair& x) const {
  const int max_len = encoder_->config().max_seq_len;
  const int budget = (max_len - 3) / 2;
  std::vector<int> ids;
  ids.push_back(SpecialTokens::kCls);
  const auto take = [budget](const std::vector<int>& v) {
    return std::min<size_t>(v.size(), static_cast<size_t>(budget));
  };
  ids.insert(ids.end(), x.left_ids.begin(),
             x.left_ids.begin() + static_cast<long>(take(x.left_ids)));
  ids.push_back(SpecialTokens::kSep);
  ids.insert(ids.end(), x.right_ids.begin(),
             x.right_ids.begin() + static_cast<long>(take(x.right_ids)));
  ids.push_back(SpecialTokens::kSep);
  return ids;
}

tensor::Tensor FinetuneModel::Logits(const EncodedPair& x,
                                     core::Rng* rng) const {
  const std::vector<int> ids = BuildInputIds(x);
  // The head reads only h_[CLS], so the last layer computes that one row.
  const std::vector<int> cls_row = {0};
  return head_->Forward(encoder_->Encode(ids, rng, &cls_row));
}

tensor::Tensor FinetuneModel::PairEmbedding(const EncodedPair& x,
                                            core::Rng* rng) const {
  tensor::NoGradGuard no_grad;
  tensor::Tensor hidden = encoder_->Encode(BuildInputIds(x), rng);
  return ops::MeanRows(hidden);
}

tensor::Tensor FinetuneModel::Loss(const EncodedPair& x, int label,
                                   core::Rng* rng) {
  return ops::CrossEntropyLogits(Logits(x, rng), {label});
}

std::array<float, 2> FinetuneModel::Probs(const EncodedPair& x,
                                          core::Rng* rng) {
  tensor::NoGradGuard no_grad;
  return SoftmaxProbs2(Logits(x, rng));
}

}  // namespace promptem::em
