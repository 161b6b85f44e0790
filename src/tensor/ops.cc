#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <algorithm>

#include "tensor/autograd.h"
#include "tensor/kernels.h"

namespace promptem::tensor::ops {

namespace {

using kernels::Gemm;

bool Track(const Tensor& a) { return GradEnabled() && a.requires_grad(); }
bool Track(const Tensor& a, const Tensor& b) {
  return GradEnabled() && (a.requires_grad() || b.requires_grad());
}

/// Attaches parents and a backward closure to `out`.
void Attach(Tensor* out, std::vector<Tensor> parents,
            std::function<void()> backward) {
  TensorImpl* impl = out->impl().get();
  impl->requires_grad = true;
  impl->parents.reserve(parents.size());
  for (const Tensor& p : parents) impl->parents.push_back(p.impl());
  impl->backward_fn = std::move(backward);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  PROMPTEM_CHECK(SameShape(a.shape(), b.shape()));
  Tensor out = Tensor::Zeros(a.shape());
  const int64_t n = a.numel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  if (Track(a, b)) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {a, b}, [ai, bi, oi, n]() {
      const float* g = oi->grad_data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        kernels::AxpyOne(g, ai->grad_data(), n);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        kernels::AxpyOne(g, bi->grad_data(), n);
      }
    });
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  PROMPTEM_CHECK(SameShape(a.shape(), b.shape()));
  Tensor out = Tensor::Zeros(a.shape());
  const int64_t n = a.numel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  if (Track(a, b)) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {a, b}, [ai, bi, oi, n]() {
      const float* g = oi->grad_data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        kernels::AxpyOne(g, ai->grad_data(), n);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* gb = bi->grad_data();
        for (int64_t i = 0; i < n; ++i) gb[i] -= g[i];
      }
    });
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  PROMPTEM_CHECK(SameShape(a.shape(), b.shape()));
  Tensor out = Tensor::Zeros(a.shape());
  const int64_t n = a.numel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  if (Track(a, b)) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {a, b}, [ai, bi, oi, n]() {
      const float* g = oi->grad_data();
      const float* pa2 = ai->storage->data();
      const float* pb2 = bi->storage->data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* ga = ai->grad_data();
        for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * pb2[i];
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* gb = bi->grad_data();
        for (int64_t i = 0; i < n; ++i) gb[i] += g[i] * pa2[i];
      }
    });
  }
  return out;
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  PROMPTEM_CHECK(x.ndim() == 2 && bias.ndim() == 1);
  PROMPTEM_CHECK(x.dim(1) == bias.dim(0));
  const int rows = x.dim(0);
  const int cols = x.dim(1);
  Tensor out = Tensor::Zeros(x.shape());
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      po[static_cast<int64_t>(i) * cols + j] =
          px[static_cast<int64_t>(i) * cols + j] + pb[j];
    }
  }
  if (Track(x, bias)) {
    auto xi = x.impl();
    auto bi = bias.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x, bias}, [xi, bi, oi, rows, cols]() {
      const float* g = oi->grad_data();
      if (xi->requires_grad) {
        xi->EnsureGrad();
        kernels::AxpyOne(g, xi->grad_data(),
                         static_cast<int64_t>(rows) * cols);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* gb = bi->grad_data();
        for (int i = 0; i < rows; ++i) {
          for (int j = 0; j < cols; ++j) {
            gb[j] += g[static_cast<int64_t>(i) * cols + j];
          }
        }
      }
    });
  }
  return out;
}

Tensor AddBiasInPlace(Tensor x, const Tensor& bias) {
  if (Track(x, bias)) return AddBias(x, bias);
  PROMPTEM_CHECK(x.ndim() == 2 && bias.ndim() == 1);
  PROMPTEM_CHECK(x.dim(1) == bias.dim(0));
  const int rows = x.dim(0);
  const int cols = x.dim(1);
  for (int i = 0; i < rows; ++i) {
    kernels::AxpyOne(bias.data(), x.data() + static_cast<int64_t>(i) * cols,
                     cols);
  }
  return x;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = Tensor::Zeros(a.shape());
  const int64_t n = a.numel();
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] * s;
  if (Track(a)) {
    auto ai = a.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {a}, [ai, oi, n, s]() {
      ai->EnsureGrad();
      const float* g = oi->grad_data();
      float* ga = ai->grad_data();
      for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * s;
    });
  }
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out = Tensor::Zeros(a.shape());
  const int64_t n = a.numel();
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + s;
  if (Track(a)) {
    auto ai = a.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {a}, [ai, oi, n]() {
      ai->EnsureGrad();
      kernels::AxpyOne(oi->grad_data(), ai->grad_data(), n);
    });
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  PROMPTEM_CHECK(a.ndim() == 2 && b.ndim() == 2);
  const int m = trans_a ? a.dim(1) : a.dim(0);
  const int k = trans_a ? a.dim(0) : a.dim(1);
  const int kb = trans_b ? b.dim(1) : b.dim(0);
  const int n = trans_b ? b.dim(0) : b.dim(1);
  PROMPTEM_CHECK_MSG(k == kb, "matmul inner dimensions differ");
  Tensor out = Tensor::Zeros({m, n});
  Gemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(), 0.0f, out.data());
  if (Track(a, b)) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {a, b}, [ai, bi, oi, m, n, k, trans_a, trans_b]() {
      const float* g = oi->grad_data();
      const float* pa = ai->storage->data();
      const float* pb = bi->storage->data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* ga = ai->grad_data();
        if (!trans_a) {
          // dA[m,k] = dC @ op(B)^T
          Gemm(false, !trans_b, m, k, n, 1.0f, g, pb, 1.0f, ga);
        } else {
          // A stored [k,m]; dA_stored = op(B) @ dC^T
          Gemm(trans_b, true, k, m, n, 1.0f, pb, g, 1.0f, ga);
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* gb = bi->grad_data();
        if (!trans_b) {
          // dB[k,n] = op(A)^T @ dC
          Gemm(!trans_a, false, k, n, m, 1.0f, pa, g, 1.0f, gb);
        } else {
          // B stored [n,k]; dB_stored = dC^T @ op(A)
          Gemm(true, trans_a, n, k, m, 1.0f, g, pa, 1.0f, gb);
        }
      }
    });
  }
  return out;
}

Tensor Softmax(const Tensor& x) {
  PROMPTEM_CHECK(x.ndim() == 2);
  const int rows = x.dim(0);
  const int cols = x.dim(1);
  Tensor out = Tensor::Zeros(x.shape());
  kernels::SoftmaxRows(x.data(), rows, cols, out.data());
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, rows, cols]() {
      xi->EnsureGrad();
      const float* g = oi->grad_data();
      const float* y = oi->storage->data();
      float* gx = xi->grad_data();
      for (int i = 0; i < rows; ++i) {
        const float* yi = y + static_cast<int64_t>(i) * cols;
        const float* gi = g + static_cast<int64_t>(i) * cols;
        float dot = 0.0f;
        for (int j = 0; j < cols; ++j) dot += gi[j] * yi[j];
        float* gxi = gx + static_cast<int64_t>(i) * cols;
        for (int j = 0; j < cols; ++j) gxi[j] += yi[j] * (gi[j] - dot);
      }
    });
  }
  return out;
}

Tensor LogSoftmax(const Tensor& x) {
  PROMPTEM_CHECK(x.ndim() == 2);
  const int rows = x.dim(0);
  const int cols = x.dim(1);
  Tensor out = Tensor::Zeros(x.shape());
  kernels::LogSoftmaxRows(x.data(), rows, cols, out.data());
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, rows, cols]() {
      xi->EnsureGrad();
      const float* g = oi->grad_data();
      const float* logy = oi->storage->data();
      float* gx = xi->grad_data();
      for (int i = 0; i < rows; ++i) {
        const float* gi = g + static_cast<int64_t>(i) * cols;
        const float* lyi = logy + static_cast<int64_t>(i) * cols;
        float sum = 0.0f;
        for (int j = 0; j < cols; ++j) sum += gi[j];
        float* gxi = gx + static_cast<int64_t>(i) * cols;
        for (int j = 0; j < cols; ++j) {
          gxi[j] += gi[j] - std::exp(lyi[j]) * sum;
        }
      }
    });
  }
  return out;
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  PROMPTEM_CHECK(x.ndim() == 2 && gamma.ndim() == 1 && beta.ndim() == 1);
  PROMPTEM_CHECK(x.dim(1) == gamma.dim(0) && x.dim(1) == beta.dim(0));
  const int rows = x.dim(0);
  const int cols = x.dim(1);
  Tensor out = Tensor::Zeros(x.shape());
  const bool track =
      GradEnabled() && (x.requires_grad() || gamma.requires_grad() ||
                        beta.requires_grad());
  if (!track) {
    // Graph-free path: the saved statistics exist only for the backward
    // closure, so stack-local scratch suffices.
    std::vector<float> mean(static_cast<size_t>(rows));
    std::vector<float> rstd(static_cast<size_t>(rows));
    kernels::LayerNormForward(x.data(), rows, cols, gamma.data(),
                              beta.data(), eps, out.data(), mean.data(),
                              rstd.data());
    return out;
  }
  auto mean = std::make_shared<std::vector<float>>(rows);
  auto rstd = std::make_shared<std::vector<float>>(rows);
  kernels::LayerNormForward(x.data(), rows, cols, gamma.data(), beta.data(),
                            eps, out.data(), mean->data(), rstd->data());
  {
    auto xi = x.impl();
    auto gi = gamma.impl();
    auto bi = beta.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x, gamma, beta}, [xi, gi, bi, oi, rows, cols, mean,
                                    rstd]() {
      xi->EnsureGrad();
      gi->EnsureGrad();
      bi->EnsureGrad();
      kernels::LayerNormBackward(xi->storage->data(), gi->storage->data(),
                                 mean->data(), rstd->data(),
                                 oi->grad_data(), rows, cols,
                                 xi->grad_data(), gi->grad_data(),
                                 bi->grad_data());
    });
  }
  return out;
}

namespace {

template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& x, Fwd fwd, Bwd bwd_from_input_and_output) {
  Tensor out = Tensor::Zeros(x.shape());
  const int64_t n = x.numel();
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) po[i] = fwd(px[i]);
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, n, bwd_from_input_and_output]() {
      xi->EnsureGrad();
      const float* g = oi->grad_data();
      const float* in = xi->storage->data();
      const float* outv = oi->storage->data();
      float* gx = xi->grad_data();
      for (int64_t i = 0; i < n; ++i) {
        gx[i] += g[i] * bwd_from_input_and_output(in[i], outv[i]);
      }
    });
  }
  return out;
}

}  // namespace

Tensor Gelu(const Tensor& x) {
  // Both modes run the dispatched row kernels, so within one kernel variant
  // training and eval forwards compute the same values.
  Tensor out = Tensor::Zeros(x.shape());
  const int64_t n = x.numel();
  kernels::GeluForward(x.data(), out.data(), n);
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, n]() {
      xi->EnsureGrad();
      kernels::GeluBackward(xi->storage->data(), oi->grad_data(),
                            xi->grad_data(), n);
    });
  }
  return out;
}

Tensor Tanh(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return std::tanh(v); },
      [](float, float out) { return 1.0f - out * out; });
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float, float out) { return out * (1.0f - out); });
}

Tensor Relu(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float in, float) { return in > 0.0f ? 1.0f : 0.0f; });
}

Tensor Abs(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return std::fabs(v); },
      [](float in, float) { return in >= 0.0f ? 1.0f : -1.0f; });
}

Tensor Log(const Tensor& x) {
  return UnaryOp(
      x,
      [](float v) { return std::log(std::max(v, 1e-12f)); },
      [](float in, float) { return 1.0f / std::max(in, 1e-12f); });
}

namespace {

/// Inverted dropout over `x` holding rows `rows` (strictly ascending; null
/// means every row) of a [mask_rows, cols] activation. The mask is drawn
/// for every element of the full activation, row-major; the draws of
/// rows outside `rows` are discarded.
Tensor DropoutOverRows(const Tensor& x, float p, core::Rng* rng,
                       int mask_rows, const std::vector<int>* rows,
                       int64_t cols) {
  PROMPTEM_CHECK(p >= 0.0f && p < 1.0f);
  if (p == 0.0f) return x;
  PROMPTEM_CHECK(rng != nullptr);
  const int m = rows == nullptr ? mask_rows : static_cast<int>(rows->size());
  PROMPTEM_CHECK(m * cols == x.numel());
  const uint64_t threshold = core::Rng::BernoulliThreshold(p);
  const float keep_scale = 1.0f / (1.0f - p);
  const int64_t n = x.numel();
  Tensor out = Tensor::Zeros(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const bool track = Track(x);
  // Tracked passes keep the kept rows' mask for the backward; graph-free
  // ones (MC-Dropout) apply it on the fly and write a dropped element as
  // +0. The draws, and so the pass's dropout pattern, are the same either
  // way.
  std::shared_ptr<std::vector<float>> mask;
  if (track) mask = std::make_shared<std::vector<float>>(n);
  int64_t next = 0;
  for (int r = 0; r < mask_rows; ++r) {
    if (rows != nullptr && (next == m || (*rows)[next] != r)) {
      for (int64_t c = 0; c < cols; ++c) rng->NextU64();
      continue;
    }
    const int64_t base = next * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const bool drop = rng->BernoulliBelow(threshold);
      if (track) {
        (*mask)[base + c] = drop ? 0.0f : keep_scale;
        po[base + c] = px[base + c] * (*mask)[base + c];
      } else {
        po[base + c] = drop ? 0.0f : px[base + c] * keep_scale;
      }
    }
    ++next;
  }
  PROMPTEM_CHECK_MSG(next == m, "dropout rows must ascend within mask rows");
  if (track) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, n, mask]() {
      xi->EnsureGrad();
      const float* g = oi->grad_data();
      float* gx = xi->grad_data();
      for (int64_t i = 0; i < n; ++i) gx[i] += g[i] * (*mask)[i];
    });
  }
  return out;
}

}  // namespace

Tensor Dropout(const Tensor& x, float p, core::Rng* rng) {
  // Any shape, as one row.
  return DropoutOverRows(x, p, rng, 1, nullptr, x.numel());
}

Tensor DropoutRows(const Tensor& x, float p, core::Rng* rng, int mask_rows,
                   const std::vector<int>& rows) {
  PROMPTEM_CHECK(x.ndim() == 2 && x.dim(0) == static_cast<int>(rows.size()));
  return DropoutOverRows(x, p, rng, mask_rows, &rows, x.dim(1));
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids) {
  PROMPTEM_CHECK(table.ndim() == 2);
  const int vocab = table.dim(0);
  const int dim = table.dim(1);
  const int t = static_cast<int>(ids.size());
  Tensor out = Tensor::Zeros({t, dim});
  const float* pt = table.data();
  float* po = out.data();
  for (int i = 0; i < t; ++i) {
    PROMPTEM_CHECK(ids[i] >= 0 && ids[i] < vocab);
    std::memcpy(po + static_cast<int64_t>(i) * dim,
                pt + static_cast<int64_t>(ids[i]) * dim,
                sizeof(float) * dim);
  }
  if (Track(table)) {
    auto ti = table.impl();
    TensorImpl* oi = out.impl().get();
    auto ids_copy = std::make_shared<std::vector<int>>(ids);
    Attach(&out, {table}, [ti, oi, dim, ids_copy]() {
      ti->EnsureGrad();
      const float* g = oi->grad_data();
      float* gt = ti->grad_data();
      for (size_t i = 0; i < ids_copy->size(); ++i) {
        kernels::AxpyOne(g + static_cast<int64_t>(i) * dim,
                         gt + static_cast<int64_t>((*ids_copy)[i]) * dim,
                         dim);
      }
    });
  }
  return out;
}

Tensor SelectRows(const Tensor& x, const std::vector<int>& rows) {
  PROMPTEM_CHECK(x.ndim() == 2);
  const int cols = x.dim(1);
  const int k = static_cast<int>(rows.size());
  Tensor out = Tensor::Zeros({k, cols});
  const float* px = x.data();
  float* po = out.data();
  for (int i = 0; i < k; ++i) {
    PROMPTEM_CHECK(rows[i] >= 0 && rows[i] < x.dim(0));
    std::memcpy(po + static_cast<int64_t>(i) * cols,
                px + static_cast<int64_t>(rows[i]) * cols,
                sizeof(float) * cols);
  }
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    auto rows_copy = std::make_shared<std::vector<int>>(rows);
    Attach(&out, {x}, [xi, oi, cols, rows_copy]() {
      xi->EnsureGrad();
      const float* g = oi->grad_data();
      float* gx = xi->grad_data();
      for (size_t i = 0; i < rows_copy->size(); ++i) {
        kernels::AxpyOne(g + static_cast<int64_t>(i) * cols,
                         gx + static_cast<int64_t>((*rows_copy)[i]) * cols,
                         cols);
      }
    });
  }
  return out;
}

Tensor AddRows(const Tensor& a, const std::vector<int>& rows,
               const Tensor& b) {
  PROMPTEM_CHECK(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(1));
  PROMPTEM_CHECK(b.dim(0) == static_cast<int>(rows.size()));
  const int cols = a.dim(1);
  Tensor out = Tensor::Zeros(b.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    PROMPTEM_CHECK(rows[i] >= 0 && rows[i] < a.dim(0));
    const float* arow = pa + static_cast<int64_t>(rows[i]) * cols;
    const int64_t base = static_cast<int64_t>(i) * cols;
    for (int c = 0; c < cols; ++c) po[base + c] = arow[c] + pb[base + c];
  }
  if (Track(a, b)) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* oi = out.impl().get();
    auto rows_copy = std::make_shared<std::vector<int>>(rows);
    const int64_t n = out.numel();
    Attach(&out, {a, b}, [ai, bi, oi, cols, n, rows_copy]() {
      const float* g = oi->grad_data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* ga = ai->grad_data();
        for (size_t i = 0; i < rows_copy->size(); ++i) {
          kernels::AxpyOne(g + static_cast<int64_t>(i) * cols,
                           ga + static_cast<int64_t>((*rows_copy)[i]) * cols,
                           cols);
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        kernels::AxpyOne(g, bi->grad_data(), n);
      }
    });
  }
  return out;
}

Tensor SelectCols(const Tensor& x, const std::vector<int>& cols) {
  PROMPTEM_CHECK(x.ndim() == 2);
  const int rows = x.dim(0);
  const int in_cols = x.dim(1);
  const int k = static_cast<int>(cols.size());
  Tensor out = Tensor::Zeros({rows, k});
  const float* px = x.data();
  float* po = out.data();
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < k; ++j) {
      PROMPTEM_CHECK(cols[j] >= 0 && cols[j] < in_cols);
      po[static_cast<int64_t>(i) * k + j] =
          px[static_cast<int64_t>(i) * in_cols + cols[j]];
    }
  }
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    auto cols_copy = std::make_shared<std::vector<int>>(cols);
    Attach(&out, {x}, [xi, oi, rows, in_cols, k, cols_copy]() {
      xi->EnsureGrad();
      const float* g = oi->grad_data();
      float* gx = xi->grad_data();
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < k; ++j) {
          gx[static_cast<int64_t>(i) * in_cols + (*cols_copy)[j]] +=
              g[static_cast<int64_t>(i) * k + j];
        }
      }
    });
  }
  return out;
}

Tensor SliceCols(const Tensor& x, int col_begin, int count) {
  PROMPTEM_CHECK(x.ndim() == 2);
  const int rows = x.dim(0);
  const int in_cols = x.dim(1);
  PROMPTEM_CHECK(count > 0 && col_begin >= 0 &&
                 col_begin + count <= in_cols);
  Tensor out = Tensor::Zeros({rows, count});
  kernels::CopyBlock(x.data() + col_begin, in_cols, out.data(), count, rows,
                     count);
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, rows, in_cols, count, col_begin]() {
      xi->EnsureGrad();
      kernels::AddBlock(oi->grad_data(), count,
                        xi->grad_data() + col_begin, in_cols, rows, count);
    });
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  PROMPTEM_CHECK(!parts.empty());
  const int cols = parts[0].dim(1);
  int rows = 0;
  bool any_grad = false;
  for (const Tensor& p : parts) {
    PROMPTEM_CHECK(p.ndim() == 2 && p.dim(1) == cols);
    rows += p.dim(0);
    any_grad = any_grad || p.requires_grad();
  }
  Tensor out = Tensor::Zeros({rows, cols});
  float* po = out.data();
  int offset = 0;
  for (const Tensor& p : parts) {
    std::memcpy(po + static_cast<int64_t>(offset) * cols, p.data(),
                sizeof(float) * p.numel());
    offset += p.dim(0);
  }
  if (GradEnabled() && any_grad) {
    TensorImpl* oi = out.impl().get();
    std::vector<std::shared_ptr<TensorImpl>> impls;
    for (const Tensor& p : parts) impls.push_back(p.impl());
    Attach(&out, parts, [impls, oi, cols]() {
      const float* g = oi->grad_data();
      int off = 0;
      for (const auto& pi : impls) {
        const int pr = pi->shape[0];
        if (pi->requires_grad) {
          pi->EnsureGrad();
          kernels::AxpyOne(g + static_cast<int64_t>(off) * cols,
                           pi->grad_data(),
                           static_cast<int64_t>(pr) * cols);
        }
        off += pr;
      }
    });
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  PROMPTEM_CHECK(!parts.empty());
  const int rows = parts[0].dim(0);
  int cols = 0;
  bool any_grad = false;
  for (const Tensor& p : parts) {
    PROMPTEM_CHECK(p.ndim() == 2 && p.dim(0) == rows);
    cols += p.dim(1);
    any_grad = any_grad || p.requires_grad();
  }
  Tensor out = Tensor::Zeros({rows, cols});
  float* po = out.data();
  int offset = 0;
  for (const Tensor& p : parts) {
    const int pc = p.dim(1);
    const float* pp = p.data();
    for (int i = 0; i < rows; ++i) {
      std::memcpy(po + static_cast<int64_t>(i) * cols + offset,
                  pp + static_cast<int64_t>(i) * pc, sizeof(float) * pc);
    }
    offset += pc;
  }
  if (GradEnabled() && any_grad) {
    TensorImpl* oi = out.impl().get();
    std::vector<std::shared_ptr<TensorImpl>> impls;
    for (const Tensor& p : parts) impls.push_back(p.impl());
    Attach(&out, parts, [impls, oi, rows, cols]() {
      const float* g = oi->grad_data();
      int off = 0;
      for (const auto& pi : impls) {
        const int pc = pi->shape[1];
        if (pi->requires_grad) {
          pi->EnsureGrad();
          float* gp = pi->grad_data();
          for (int i = 0; i < rows; ++i) {
            kernels::AxpyOne(g + static_cast<int64_t>(i) * cols + off,
                             gp + static_cast<int64_t>(i) * pc, pc);
          }
        }
        off += pc;
      }
    });
  }
  return out;
}

Tensor MeanRows(const Tensor& x) {
  PROMPTEM_CHECK(x.ndim() == 2);
  const int rows = x.dim(0);
  const int cols = x.dim(1);
  PROMPTEM_CHECK(rows > 0);
  Tensor out = Tensor::Zeros({1, cols});
  const float* px = x.data();
  float* po = out.data();
  for (int i = 0; i < rows; ++i) {
    kernels::AxpyOne(px + static_cast<int64_t>(i) * cols, po, cols);
  }
  const float inv = 1.0f / static_cast<float>(rows);
  for (int j = 0; j < cols; ++j) po[j] *= inv;
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, rows, cols]() {
      xi->EnsureGrad();
      const float* g = oi->grad_data();
      float* gx = xi->grad_data();
      const float inv2 = 1.0f / static_cast<float>(rows);
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
          gx[static_cast<int64_t>(i) * cols + j] += g[j] * inv2;
        }
      }
    });
  }
  return out;
}

Tensor Sum(const Tensor& x) {
  const int64_t n = x.numel();
  const float* px = x.data();
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += px[i];
  Tensor out = Tensor::Scalar(acc);
  if (Track(x)) {
    auto xi = x.impl();
    TensorImpl* oi = out.impl().get();
    Attach(&out, {x}, [xi, oi, n]() {
      xi->EnsureGrad();
      const float g = oi->grad_data()[0];
      float* gx = xi->grad_data();
      for (int64_t i = 0; i < n; ++i) gx[i] += g;
    });
  }
  return out;
}

Tensor Mean(const Tensor& x) {
  const int64_t n = x.numel();
  PROMPTEM_CHECK(n > 0);
  Tensor s = Sum(x);
  return Scale(s, 1.0f / static_cast<float>(n));
}

Tensor CrossEntropyLogits(const Tensor& logits,
                          const std::vector<int>& targets) {
  PROMPTEM_CHECK(logits.ndim() == 2);
  const int rows = logits.dim(0);
  const int cols = logits.dim(1);
  PROMPTEM_CHECK(static_cast<int>(targets.size()) == rows);
  auto probs = std::make_shared<std::vector<float>>(
      static_cast<size_t>(rows) * cols);
  kernels::SoftmaxRows(logits.data(), rows, cols, probs->data());
  int valid = 0;
  double loss = 0.0;
  for (int i = 0; i < rows; ++i) {
    const int t = targets[i];
    if (t < 0) continue;
    PROMPTEM_CHECK(t < cols);
    ++valid;
    loss -= std::log(
        std::max((*probs)[static_cast<size_t>(i) * cols + t], 1e-12f));
  }
  PROMPTEM_CHECK_MSG(valid > 0, "all targets masked in cross entropy");
  Tensor out = Tensor::Scalar(static_cast<float>(loss / valid));
  if (Track(logits)) {
    auto li = logits.impl();
    TensorImpl* oi = out.impl().get();
    auto targets_copy = std::make_shared<std::vector<int>>(targets);
    Attach(&out, {logits}, [li, oi, rows, cols, probs, targets_copy,
                            valid]() {
      li->EnsureGrad();
      const float g = oi->grad_data()[0];
      float* gl = li->grad_data();
      const float scale = g / static_cast<float>(valid);
      for (int i = 0; i < rows; ++i) {
        const int t = (*targets_copy)[i];
        if (t < 0) continue;
        const float* pi = probs->data() + static_cast<size_t>(i) * cols;
        float* gi = gl + static_cast<int64_t>(i) * cols;
        for (int j = 0; j < cols; ++j) gi[j] += scale * pi[j];
        gi[t] -= scale;
      }
    });
  }
  return out;
}

// NOTE(execution-modes): every op above follows the same discipline — the
// forward value is computed unconditionally, and graph state (parents,
// backward closure, saved activations) is attached only under Track(). A
// batched eval pass therefore builds zero graph nodes; DESIGN.md
// "Execution modes" documents the contract and tests/execution_test.cc
// asserts it over a full transformer forward.

}  // namespace promptem::tensor::ops
