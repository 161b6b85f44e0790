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
    const tensor::Tensor& queries, const tensor::Tensor& x,
    core::Rng* rng) const {
  PROMPTEM_CHECK(x.ndim() == 2 && x.dim(1) == dim_);
  tensor::Tensor q = wq_.Forward(queries);
  tensor::Tensor k = wk_.Forward(x);
  tensor::Tensor v = wv_.Forward(x);

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  // DropoutLayer applies dropout only in training mode; mirror that here
  // so eval forwards are deterministic and draw nothing from rng.
  const float p = attn_dropout_.training() ? attn_dropout_.p() : 0.0f;
  const tensor::Tensor merged =
      ops::FusedSdpa(q, k, v, num_heads_, scale, p, rng);
  return wo_.Forward(merged);
}

}  // namespace promptem::nn
