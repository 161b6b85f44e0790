#include "nn/layers.h"

#include <memory>
#include <utility>

namespace promptem::nn {

namespace ops = tensor::ops;

Linear::Linear(int in_features, int out_features, core::Rng* rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  tensor::Tensor w = tensor::Tensor::Zeros({out_features, in_features});
  XavierInit(&w, rng);
  weight_ = RegisterParameter("weight", w);
  if (has_bias_) {
    bias_ = RegisterParameter("bias", tensor::Tensor::Zeros({out_features}));
  }
}

tensor::Tensor Linear::Forward(const tensor::Tensor& x) const {
  PROMPTEM_CHECK(x.ndim() == 2 && x.dim(1) == in_features_);
  tensor::Tensor y = ops::MatMul(x, weight_, false, /*trans_b=*/true);
  if (has_bias_) y = ops::AddBiasInPlace(std::move(y), bias_);
  return y;
}

Embedding::Embedding(int vocab_size, int dim, core::Rng* rng)
    : vocab_size_(vocab_size), dim_(dim) {
  tensor::Tensor t = tensor::Tensor::Zeros({vocab_size, dim});
  NormalInit(&t, 0.02f, rng);
  table_ = RegisterParameter("table", t);
}

tensor::Tensor Embedding::Forward(const std::vector<int>& ids) const {
  return ops::EmbeddingLookup(table_, ids);
}

LayerNormLayer::LayerNormLayer(int dim) {
  gamma_ = RegisterParameter("gamma", tensor::Tensor::Full({dim}, 1.0f));
  beta_ = RegisterParameter("beta", tensor::Tensor::Zeros({dim}));
}

tensor::Tensor LayerNormLayer::Forward(const tensor::Tensor& x) const {
  return ops::LayerNorm(x, gamma_, beta_);
}

tensor::Tensor DropoutLayer::Forward(const tensor::Tensor& x,
                                     core::Rng* rng) const {
  if (!training() || p_ == 0.0f) return x;
  return ops::Dropout(x, p_, rng);
}

tensor::Tensor DropoutLayer::ForwardRows(const tensor::Tensor& x,
                                         core::Rng* rng, int mask_rows,
                                         const std::vector<int>& rows) const {
  if (!training() || p_ == 0.0f) return x;
  return ops::DropoutRows(x, p_, rng, mask_rows, rows);
}

Mlp::Mlp(const std::vector<int>& dims, core::Rng* rng, float dropout)
    : dropout_(dropout) {
  PROMPTEM_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterModule("fc" + std::to_string(i), layers_.back().get());
  }
  RegisterModule("dropout", &dropout_);
}

tensor::Tensor Mlp::Forward(const tensor::Tensor& x, core::Rng* rng) const {
  tensor::Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) {
      h = ops::Relu(h);
      h = dropout_.Forward(h, rng);
    }
  }
  return h;
}

}  // namespace promptem::nn
