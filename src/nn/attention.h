#ifndef PROMPTEM_NN_ATTENTION_H_
#define PROMPTEM_NN_ATTENTION_H_

#include <memory>
#include <vector>

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
    return ForwardRows(x, nullptr, rng);
  }

  /// Attention from rows `rows` of x (strictly ascending; null means
  /// every row) over every row of `x` [T, D] -> [rows.size(), D], bitwise
  /// those rows of Forward, with the same dropout draws. K and V project
  /// every row, and so carry every row's gradient.
  tensor::Tensor ForwardRows(const tensor::Tensor& x,
                             const std::vector<int>* rows,
                             core::Rng* rng) const;

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
