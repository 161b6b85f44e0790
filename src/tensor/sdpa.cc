// Fused multi-head scaled-dot-product attention (ops::FusedSdpa).
//
// The unfused composition (SelectCols -> MatMul -> Scale -> Softmax ->
// Dropout -> MatMul per head, then ConcatCols) materializes the [T, T]
// score matrix through four separate graph ops and copies every head
// three times on the way in and once on the way out. This kernel instead:
//
//  * reads per-head Q/K/V slices as strided views over the packed
//    [T, H*hd] buffers (tensor/view.h) and writes head outputs directly
//    into the packed [T, H*hd] context;
//  * runs scale -> softmax -> dropout -> attn·V in one tiled pass per
//    (head, row-tile) with a streaming (online-max) softmax, so score
//    tiles stay cache-resident and are never graph nodes;
//  * registers a single hand-written backward that reuses cached softmax
//    rows and the seeded dropout mask (bit-identical to the unfused
//    path's mask by construction);
//  * with grad mode off builds no graph and draws its workspace and mask
//    from the thread's ScratchArena when one is installed.
//
// Determinism: the pass runs on the calling thread (the pool parallelizes
// across samples, one level up), and every per-row reduction order is a
// pure function of (M, T, H, hd) and the tile constants. A query row's
// chain of GEMM, online-max and normalize steps never reads another query
// row, so row i of an M-row pass is bitwise the one-row pass over q's row
// i (property_test pins this); the encoder's last layer relies on it to
// attend from only the rows its head reads, in every mode. The dropout
// mask is drawn for the full [T, T] score matrix and the backward's dS is
// [M, T]: an unread query row would only have added exact zeros to dK
// and dV.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/view.h"

namespace promptem::tensor::ops {

namespace {

/// Query rows per row tile and key columns per streaming tile. The live
/// working set per row tile is one [kSdpaRowTile, kSdpaKeyTile] score
/// tile plus a [kSdpaRowTile, hd] output accumulator and the running
/// max/denominator vectors — small enough to stay in L1/L2 for every
/// configuration the library runs.
constexpr int kSdpaRowTile = 32;
constexpr int kSdpaKeyTile = 64;

/// Mirror of ops.cc's graph-node helper (that one is file-local).
void AttachNode(Tensor* out, std::vector<Tensor> parents,
                std::function<void()> backward) {
  TensorImpl* impl = out->impl().get();
  impl->requires_grad = true;
  impl->parents.reserve(parents.size());
  for (const Tensor& p : parents) impl->parents.push_back(p.impl());
  impl->backward_fn = std::move(backward);
}

/// Streaming-softmax forward for rows [i0, i1) of one head, whole
/// row-tile at a time so both GEMMs run blocked. `qh`/`vh` are strided
/// views of the head's column block; `kt_h` is the head's pre-transposed
/// [hd, t] key panel (row stride t), which turns the score tile into a
/// plain NN GEMM — the unit-stride axpy kernel, ~4x the throughput of
/// the dot-product NT case. `mask` / `p_cache` are this head's [M, T]
/// slices, row i for query row i (null when dropout is off / grad is
/// off). Scratch, initialized here: `tile` is
/// [kSdpaRowTile, kSdpaKeyTile] (scores, then probabilities, in place),
/// `acc` is [kSdpaRowTile, hd], `mvec`/`lvec` hold each row's running max
/// and denominator.
/// `out_head` is the head's column block of the packed output.
void SdpaForwardTile(const ConstMatView& qh, const float* kt_h,
                     const ConstMatView& vh, MatView out_head, int i0,
                     int i1, float scale, const float* mask, float* p_cache,
                     float* tile, float* acc, float* mvec, float* lvec) {
  const int t = vh.rows;
  const int hd = qh.cols;
  const int rows = i1 - i0;
  for (int r = 0; r < rows; ++r) {
    mvec[r] = -std::numeric_limits<float>::infinity();
    lvec[r] = 0.0f;
  }
  std::fill(acc, acc + static_cast<int64_t>(rows) * hd, 0.0f);
  for (int j0 = 0; j0 < t; j0 += kSdpaKeyTile) {
    const int jn = std::min(t, j0 + kSdpaKeyTile) - j0;
    // S_tile = scale * Q_tile . K_h^T, via the transposed key panel.
    kernels::GemmStrided(false, false, rows, jn, hd, scale, qh.row(i0),
                         qh.ld, kt_h + j0, t, 0.0f, tile, kSdpaKeyTile);
    for (int r = 0; r < rows; ++r) {
      float* srow = tile + static_cast<int64_t>(r) * kSdpaKeyTile;
      float tile_max = srow[0];
      for (int j = 1; j < jn; ++j) tile_max = std::max(tile_max, srow[j]);
      const int i = i0 + r;
      float* crow = p_cache == nullptr
                        ? nullptr
                        : p_cache + static_cast<int64_t>(i) * t;
      if (tile_max > mvec[r]) {
        // Online-max rescale: fold the stale max out of the running
        // accumulator, denominator, and (in train mode) the cached
        // softmax prefix. exp(-inf - tile_max) == 0 handles the first
        // tile for free.
        const float factor = std::exp(mvec[r] - tile_max);
        lvec[r] *= factor;
        float* arow = acc + static_cast<int64_t>(r) * hd;
        for (int c = 0; c < hd; ++c) arow[c] *= factor;
        if (crow != nullptr) {
          for (int j = 0; j < j0; ++j) crow[j] *= factor;
        }
        mvec[r] = tile_max;
      }
      // Exponentiate the tile row in place and fold its mass into the
      // running denominator (the one shared fast-expf; see FastExpf in
      // tensor/kernels.h for the error budget).
      lvec[r] += kernels::ExpRowSum(srow, srow, jn, mvec[r]);
      if (crow != nullptr) {
        for (int j = 0; j < jn; ++j) crow[j0 + j] = srow[j];
      }
      // Dropout applies after normalization, so dropped keys still count
      // toward the denominator; the mask value (0 or keep-scale) weights
      // only the V accumulation. No zero-skip: NaN/Inf in V must
      // propagate exactly as in the unfused matmul.
      if (mask != nullptr) {
        const float* mrow = mask + static_cast<int64_t>(i) * t + j0;
        for (int j = 0; j < jn; ++j) srow[j] *= mrow[j];
      }
    }
    // Acc_tile += P_tile . V_tile.
    kernels::GemmStrided(false, false, rows, hd, jn, 1.0f, tile,
                         kSdpaKeyTile, vh.row(j0), vh.ld, 1.0f, acc, hd);
  }
  for (int r = 0; r < rows; ++r) {
    const float inv = 1.0f / lvec[r];
    const int i = i0 + r;
    const float* arow = acc + static_cast<int64_t>(r) * hd;
    float* orow = out_head.row(i);
    for (int c = 0; c < hd; ++c) orow[c] = arow[c] * inv;
    if (p_cache != nullptr) {
      float* crow = p_cache + static_cast<int64_t>(i) * t;
      for (int j = 0; j < t; ++j) crow[j] *= inv;
    }
  }
}

}  // namespace

Tensor FusedSdpa(const Tensor& q, const Tensor& k, const Tensor& v,
                 int num_heads, float scale, float dropout_p,
                 core::Rng* rng, const std::vector<int>* q_rows) {
  PROMPTEM_CHECK(q.ndim() == 2 && k.ndim() == 2 && v.ndim() == 2);
  PROMPTEM_CHECK(SameShape(k.shape(), v.shape()) && q.dim(1) == k.dim(1));
  const int m = q.dim(0);
  const int t = k.dim(0);
  const int d = q.dim(1);
  PROMPTEM_CHECK(num_heads > 0 && d % num_heads == 0);
  PROMPTEM_CHECK(dropout_p >= 0.0f && dropout_p < 1.0f);
  const int hd = d / num_heads;

  // Query row i sits at position pos(i) of the key sequence. Only the
  // dropout mask reads positions, so without q_rows any M runs dropout-
  // free (and with dropout, M == T).
  const auto pos = [q_rows](int i) {
    return q_rows == nullptr ? i : (*q_rows)[static_cast<size_t>(i)];
  };
  if (q_rows != nullptr) {
    PROMPTEM_CHECK(static_cast<int>(q_rows->size()) == m);
    for (int i = 0; i < m; ++i) {
      PROMPTEM_CHECK_MSG(pos(i) < t && (i == 0 ? pos(i) >= 0
                                               : pos(i) > pos(i - 1)),
                         "FusedSdpa: query rows must ascend within k rows");
    }
  }
  PROMPTEM_CHECK_MSG(q_rows != nullptr || m == t || dropout_p == 0.0f,
                     "FusedSdpa: dropout over a query subset needs q_rows");

  const bool track =
      GradEnabled() &&
      (q.requires_grad() || k.requires_grad() || v.requires_grad());

  // Pre-draw the dropout mask sequentially, in the exact order the
  // unfused composition consumes `rng` (head-major, row-major within each
  // head's [T, T] attention matrix): the tiled pass below must not
  // touch the stream. Every row is drawn and only the query rows' draws
  // are kept, as head h's [M, T] slice, so the stream and those rows'
  // masks are the full pass's. Allocated as a tensor so an installed
  // ScratchArena recycles it on graph-free MC-Dropout passes.
  Tensor mask;
  if (dropout_p > 0.0f) {
    PROMPTEM_CHECK(rng != nullptr);
    const uint64_t threshold = core::Rng::BernoulliThreshold(dropout_p);
    const float keep_scale = 1.0f / (1.0f - dropout_p);
    mask = Tensor::Zeros({num_heads * m, t});
    float* mp = mask.data();
    for (int h = 0; h < num_heads; ++h) {
      int next = 0;
      for (int r = 0; r < t; ++r) {
        if (next == m || pos(next) != r) {
          for (int j = 0; j < t; ++j) rng->NextU64();
          continue;
        }
        for (int j = 0; j < t; ++j) {
          *mp++ = rng->BernoulliBelow(threshold) ? 0.0f : keep_scale;
        }
        ++next;
      }
    }
  }

  // Softmax rows cached for the hand-written backward (train mode only).
  Tensor p_cache;
  if (track) p_cache = Tensor::Zeros({num_heads * m, t});

  Tensor out = Tensor::Zeros({m, d});
  // Row-tile workspace (score/probability tile + output accumulator +
  // running max / denominator vectors) and the head's transposed key
  // panel [hd, t], one slab so the graph-free path costs a single arena
  // draw per forward. The panel turns scores into the unit-stride NN GEMM
  // kernel instead of the much slower dot-product NT case, and is
  // transposed once per head and shared by all of its row tiles.
  const int per_tile =
      kSdpaRowTile * kSdpaKeyTile + kSdpaRowTile * hd + 2 * kSdpaRowTile;
  Tensor workspace = Tensor::Zeros({per_tile + hd * t});
  float* tile = workspace.data();
  float* acc = tile + kSdpaRowTile * kSdpaKeyTile;
  float* mvec = acc + kSdpaRowTile * hd;
  float* lvec = mvec + kSdpaRowTile;
  float* panel = tile + per_tile;

  const float* mask_data = mask.defined() ? mask.data() : nullptr;
  float* cache_data = p_cache.defined() ? p_cache.data() : nullptr;
  const float* k_data = k.data();
  const int64_t head_elems = static_cast<int64_t>(m) * t;

  for (int h = 0; h < num_heads; ++h) {
    for (int i = 0; i < t; ++i) {
      const float* krow = k_data + static_cast<int64_t>(i) * d + h * hd;
      for (int c = 0; c < hd; ++c) {
        panel[static_cast<int64_t>(c) * t + i] = krow[c];
      }
    }
    for (int i0 = 0; i0 < m; i0 += kSdpaRowTile) {
      SdpaForwardTile(
          ColBlockView(q.data(), m, d, h * hd, hd), panel,
          ColBlockView(v.data(), t, d, h * hd, hd),
          MutColBlockView(out.data(), m, d, h * hd, hd), i0,
          std::min(m, i0 + kSdpaRowTile), scale,
          mask_data == nullptr ? nullptr : mask_data + h * head_elems,
          cache_data == nullptr ? nullptr : cache_data + h * head_elems,
          tile, acc, mvec, lvec);
    }
  }

  if (!track) return out;

  auto qi = q.impl();
  auto ki = k.impl();
  auto vi = v.impl();
  TensorImpl* oi = out.impl().get();
  AttachNode(&out, {q, k, v}, [qi, ki, vi, oi, p_cache, mask, m, t, d,
                               num_heads, hd, scale]() {
    const float* dout = oi->grad_data();
    float* dq = nullptr;
    float* dk = nullptr;
    float* dv = nullptr;
    if (qi->requires_grad) {
      qi->EnsureGrad();
      dq = qi->grad_data();
    }
    if (ki->requires_grad) {
      ki->EnsureGrad();
      dk = ki->grad_data();
    }
    if (vi->requires_grad) {
      vi->EnsureGrad();
      dv = vi->grad_data();
    }
    const float* qd = qi->storage->data();
    const float* kd = ki->storage->data();
    const float* vd = vi->storage->data();
    const float* mk = mask.defined() ? mask.data() : nullptr;
    const float* cache = p_cache.data();
    const int64_t head_elems = static_cast<int64_t>(m) * t;
    // Scratch reused by every head: dS ([M, T], score-shaped) plus,
    // under dropout, the masked probabilities A = mask .* P.
    std::vector<float> scratch(
        static_cast<size_t>((mk == nullptr ? 1 : 2) * head_elems));
    float* dS = scratch.data();
    for (int h = 0; h < num_heads; ++h) {
      const float* P = cache + h * head_elems;
      const float* mh = mk == nullptr ? nullptr : mk + h * head_elems;
      const float* doh = dout + h * hd;
      // dV_h += A^T dO_h with A = mask .* P (A = P when dropout off).
      const float* a = P;
      if (mh != nullptr) {
        float* masked = dS + head_elems;
        for (int64_t idx = 0; idx < head_elems; ++idx) {
          masked[idx] = P[idx] * mh[idx];
        }
        a = masked;
      }
      if (dv != nullptr) {
        kernels::GemmStrided(true, false, t, hd, m, 1.0f, a, t, doh, d,
                             1.0f, dv + h * hd, d);
      }
      if (dq == nullptr && dk == nullptr) continue;
      // dA = dO_h V_h^T, then dP = mask .* dA, then the softmax
      // backward dS = P .* (dP - rowsum(dP .* P)), all in one buffer.
      kernels::GemmStrided(false, true, m, t, hd, 1.0f, doh, d,
                           vd + h * hd, d, 0.0f, dS, t);
      for (int i = 0; i < m; ++i) {
        const float* pi = P + static_cast<int64_t>(i) * t;
        float* dsi = dS + static_cast<int64_t>(i) * t;
        if (mh != nullptr) {
          const float* mi = mh + static_cast<int64_t>(i) * t;
          for (int j = 0; j < t; ++j) dsi[j] *= mi[j];
        }
        float dot = 0.0f;
        for (int j = 0; j < t; ++j) dot += dsi[j] * pi[j];
        for (int j = 0; j < t; ++j) dsi[j] = pi[j] * (dsi[j] - dot);
      }
      if (dq != nullptr) {
        kernels::GemmStrided(false, false, m, hd, t, scale, dS, t,
                             kd + h * hd, d, 1.0f, dq + h * hd, d);
      }
      if (dk != nullptr) {
        kernels::GemmStrided(true, false, t, hd, m, scale, dS, t,
                             qd + h * hd, d, 1.0f, dk + h * hd, d);
      }
    }
  });
  return out;
}

}  // namespace promptem::tensor::ops
