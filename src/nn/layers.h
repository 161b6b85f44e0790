#ifndef PROMPTEM_NN_LAYERS_H_
#define PROMPTEM_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace promptem::nn {

/// Affine layer: y = x @ W^T + b, weight stored [out, in].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, core::Rng* rng,
         bool bias = true);

  /// x: [rows, in] -> [rows, out].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const tensor::Tensor& weight() const { return weight_; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  tensor::Tensor weight_;
  tensor::Tensor bias_;
  bool has_bias_;
};

/// Token embedding table [vocab, dim].
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, core::Rng* rng);

  /// ids -> [ids.size(), dim].
  tensor::Tensor Forward(const std::vector<int>& ids) const;

  int vocab_size() const { return vocab_size_; }
  int dim() const { return dim_; }
  const tensor::Tensor& table() const { return table_; }

 private:
  int vocab_size_;
  int dim_;
  tensor::Tensor table_;
};

/// Learned layer normalization over the last dimension.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int dim);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

 private:
  tensor::Tensor gamma_;
  tensor::Tensor beta_;
};

/// Inverted dropout; active only in training mode. MC-Dropout keeps the
/// module in training mode at inference to draw stochastic passes.
class DropoutLayer : public Module {
 public:
  explicit DropoutLayer(float p) : p_(p) {}

  tensor::Tensor Forward(const tensor::Tensor& x, core::Rng* rng) const;

  /// Forward over x holding rows `rows` of a [mask_rows, D] activation:
  /// draws that activation's full mask (tensor::ops::DropoutRows).
  tensor::Tensor ForwardRows(const tensor::Tensor& x, core::Rng* rng,
                             int mask_rows,
                             const std::vector<int>& rows) const;

  float p() const { return p_; }

 private:
  float p_;
};

/// Two-layer perceptron head: Linear -> activation -> ... -> Linear.
/// Hidden layers use ReLU.
class Mlp : public Module {
 public:
  /// dims = {in, hidden..., out}.
  Mlp(const std::vector<int>& dims, core::Rng* rng, float dropout = 0.0f);

  tensor::Tensor Forward(const tensor::Tensor& x, core::Rng* rng) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  DropoutLayer dropout_;
};

}  // namespace promptem::nn

#endif  // PROMPTEM_NN_LAYERS_H_
