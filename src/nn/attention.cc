#include "nn/attention.h"

#include <cmath>

namespace promptem::nn {

namespace ops = tensor::ops;

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim, int num_heads,
                                               float dropout, core::Rng* rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng),
      attn_dropout_(dropout) {
  PROMPTEM_CHECK_MSG(dim % num_heads == 0, "dim must divide by heads");
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
  RegisterModule("attn_dropout", &attn_dropout_);
}

tensor::Tensor MultiHeadSelfAttention::ForwardRows(
    const tensor::Tensor& x, const std::vector<int>* rows,
    core::Rng* rng) const {
  PROMPTEM_CHECK(x.ndim() == 2 && x.dim(1) == dim_);
  // Q projects only the selected rows. Its backward adds each row's
  // dQ . Wq into x's gradient after V's and K's terms, as the full pass
  // does, and as one sum: the GEMM adds into its output once per
  // 256-wide k panel, and D <= 256 is one panel. A wider D would add
  // per panel in the full pass and differ in the last bits.
  tensor::Tensor q =
      wq_.Forward(rows == nullptr ? x : ops::SelectRows(x, *rows));
  tensor::Tensor k = wk_.Forward(x);
  tensor::Tensor v = wv_.Forward(x);

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  // DropoutLayer applies dropout only in training mode; mirror that here
  // so eval forwards are deterministic and draw nothing from rng.
  const float p = attn_dropout_.training() ? attn_dropout_.p() : 0.0f;
  const tensor::Tensor merged =
      ops::FusedSdpa(q, k, v, num_heads_, scale, p, rng, rows);
  return wo_.Forward(merged);
}

}  // namespace promptem::nn
