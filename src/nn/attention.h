#ifndef PROMPTEM_NN_ATTENTION_H_
#define PROMPTEM_NN_ATTENTION_H_

#include <memory>

#include "nn/layers.h"

namespace promptem::nn {

/// Multi-head self-attention over one unpadded sequence [T, D].
/// Per-sample sequences carry no padding, so no attention mask is needed.
///
/// The attention core runs through the fused kernel
/// (tensor::ops::FusedSdpa): strided per-head views over the packed
/// Q/K/V projections, one streaming-softmax pass per (head, row-tile), a
/// single hand-written backward, and arena-backed graph-free eval. The
/// per-op composition it replaced (SelectCols / MatMul / Softmax /
/// Dropout / ConcatCols) lives on in attention_fusion_test as the parity
/// reference, drawing the identical dropout Rng stream.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int dim, int num_heads, float dropout,
                         core::Rng* rng);

  /// x: [T, D] -> [T, D].
  tensor::Tensor Forward(const tensor::Tensor& x, core::Rng* rng) const {
    return ForwardRows(x, x, rng);
  }

  /// Attention from `queries` [M, D], rows of `x`, over every row of
  /// `x` [T, D] -> [M, D]: Q projects only the query rows, K and V every
  /// row. M != T is an eval-only shape (see tensor::ops::FusedSdpa).
  tensor::Tensor ForwardRows(const tensor::Tensor& queries,
                             const tensor::Tensor& x, core::Rng* rng) const;

  int num_heads() const { return num_heads_; }

 private:
  int dim_;
  int num_heads_;
  int head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
  DropoutLayer attn_dropout_;
};

}  // namespace promptem::nn

#endif  // PROMPTEM_NN_ATTENTION_H_
