#ifndef PROMPTEM_TENSOR_OPS_H_
#define PROMPTEM_TENSOR_OPS_H_

#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace promptem::tensor::ops {

/// Differentiable operations. Every function returns a fresh tensor; when
/// grad mode is on (see NoGradGuard) and any input requires grad, the result
/// carries a backward closure that accumulates into the inputs' grads.
///
/// Shapes are 1-D or 2-D; "rows x cols" below. Shape mismatches are
/// programmer errors and abort via PROMPTEM_CHECK.

/// Elementwise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// x[m,n] + bias[n] broadcast over rows.
Tensor AddBias(const Tensor& x, const Tensor& bias);

/// AddBias for a tensor the caller owns exclusively (a fresh op output):
/// when no graph would be built, the bias is added into x's own storage and
/// x is returned, skipping AddBias's second [m, n] buffer. Otherwise it is
/// AddBias. Bitwise identical to AddBias either way.
Tensor AddBiasInPlace(Tensor x, const Tensor& bias);

/// s * a.
Tensor Scale(const Tensor& a, float s);

/// a + s.
Tensor AddScalar(const Tensor& a, float s);

/// op(a) @ op(b) with optional transposes. op(a) is [m,k], op(b) is [k,n].
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Row-wise softmax of a 2-D tensor.
Tensor Softmax(const Tensor& x);

/// Row-wise log-softmax of a 2-D tensor.
Tensor LogSoftmax(const Tensor& x);

/// Layer normalization over the last dim; gamma/beta are [cols].
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/// Activations (elementwise).
Tensor Gelu(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Relu(const Tensor& x);
Tensor Abs(const Tensor& x);
Tensor Log(const Tensor& x);

/// Inverted dropout with keep-scale 1/(1-p). Draws the mask from `rng`.
/// With p == 0 returns the input unchanged.
Tensor Dropout(const Tensor& x, float p, core::Rng* rng);

/// Dropout over x [rows.size(), D], rows `rows` (strictly ascending) of
/// a [mask_rows, D] activation: draws the full activation's mask, in the
/// order Dropout would, and applies row rows[i] of it to x's row i. The
/// other rows' draws are discarded, so the rng stream, and the masks of
/// the kept rows, are those of the full-activation Dropout.
Tensor DropoutRows(const Tensor& x, float p, core::Rng* rng, int mask_rows,
                   const std::vector<int>& rows);

/// Gathers rows of `table` [V,D] at token ids -> [ids.size(), D].
/// Backward scatter-adds into the table rows.
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids);

/// Gathers rows of x at `rows` -> [rows.size(), cols].
Tensor SelectRows(const Tensor& x, const std::vector<int>& rows);

/// out[i] = a[rows[i]] + b[i] -> b's shape: a residual over a row
/// subset. The backward adds out's gradient straight into a's rows, so
/// a's gradient sums it at the same point of the backward as a full-row
/// Add(a, b) would.
Tensor AddRows(const Tensor& a, const std::vector<int>& rows,
               const Tensor& b);

/// Gathers columns of x at `cols` -> [rows, cols.size()].
Tensor SelectCols(const Tensor& x, const std::vector<int>& cols);

/// Contiguous column window x[:, col_begin : col_begin + count). Built on
/// the strided-view machinery (tensor/view.h): the forward is one
/// block copy with no per-column index vector, and the backward
/// scatter-adds straight into the window. For an iota column list this is
/// value- and gradient-identical to SelectCols, just cheaper.
Tensor SliceCols(const Tensor& x, int col_begin, int count);

/// Fused multi-head scaled-dot-product self-attention over packed
/// per-head buffers. k and v are [T, D] and q is [M, D], with
/// D = num_heads * head_dim and head h occupying columns
/// [h*head_dim, (h+1)*head_dim). Returns the packed [M, D] context
/// (softmax(scale * Q_h K_h^T) with dropout, times V_h, written directly
/// into head h's column block). Row i of the result depends only on row i
/// of q, bitwise, so a query-row subset (M < T) yields exactly those rows
/// of the full result, in every mode. `q_rows` names each query row's
/// position among the T keys (strictly ascending): query row i takes the
/// dropout mask row of position q_rows[i]. Without it, dropout needs
/// M == T (row i at position i); dropout-free passes take any M. The
/// backward's dS is [M, T]: dQ covers the M rows, and dK and dV sum only
/// their terms, which is bitwise what the full pass sums when the other
/// rows' output gradient is zero.
///
/// One tiled pass per (head, row-tile), on the calling thread, reads
/// the head operands as strided views, runs a streaming (online-max)
/// softmax so score tiles stay cache-resident, and applies inverted
/// dropout with keep-scale 1/(1-p). The Bernoulli mask is pre-drawn from
/// `rng` in the exact order the unfused per-op composition draws it
/// (head-major, then row-major over the full [T, T] score matrix, draws
/// of non-query rows discarded), so masks are bit-identical to that path
/// and independent of the pool size. `rng` may be null when
/// dropout_p == 0.
///
/// Under grad mode the result carries a single hand-written backward that
/// reuses cached softmax rows and the seeded mask; with grad mode off the
/// pass is graph-free and every intermediate (workspace tiles, mask)
/// draws from the thread's ScratchArena when one is installed.
Tensor FusedSdpa(const Tensor& q, const Tensor& k, const Tensor& v,
                 int num_heads, float scale, float dropout_p,
                 core::Rng* rng, const std::vector<int>* q_rows = nullptr);

/// Vertically stacks tensors with equal column counts.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Horizontally concatenates tensors with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Mean over rows -> [1, cols] (sequence pooling).
Tensor MeanRows(const Tensor& x);

/// Sum of all elements -> scalar [1].
Tensor Sum(const Tensor& x);

/// Mean of all elements -> scalar [1].
Tensor Mean(const Tensor& x);

/// Mean cross-entropy of row-wise logits [m, C] against integer targets.
/// Returns scalar [1]. Rows with target < 0 are ignored (masked).
Tensor CrossEntropyLogits(const Tensor& logits,
                          const std::vector<int>& targets);

}  // namespace promptem::tensor::ops

#endif  // PROMPTEM_TENSOR_OPS_H_
