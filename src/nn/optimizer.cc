#include "nn/optimizer.h"

#include <cmath>

namespace promptem::nn {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

AdamW::AdamW(std::vector<tensor::Tensor> params, AdamWConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.numel(), 0.0f);
    v_.emplace_back(p.numel(), 0.0f);
  }
}

void AdamW::Step() {
  ++step_count_;

  // Global gradient-norm clipping.
  float clip_scale = 1.0f;
  if (config_.max_grad_norm > 0.0f) {
    double sq = 0.0;
    for (auto& p : params_) {
      if (!p.has_grad()) continue;
      const float* g = p.grad();
      for (int64_t i = 0; i < p.numel(); ++i) {
        sq += static_cast<double>(g[i]) * g[i];
      }
    }
    const double norm = std::sqrt(sq);
    if (norm > config_.max_grad_norm) {
      clip_scale = static_cast<float>(config_.max_grad_norm / (norm + 1e-12));
    }
  }

  const float bias1 =
      1.0f - std::pow(kBeta1, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(kBeta2, static_cast<float>(step_count_));

  for (size_t pi = 0; pi < params_.size(); ++pi) {
    tensor::Tensor& p = params_[pi];
    if (!p.has_grad()) continue;
    float* w = p.data();
    const float* g = p.grad();
    std::vector<float>& m = m_[pi];
    std::vector<float>& v = v_[pi];
    for (int64_t i = 0; i < p.numel(); ++i) {
      const float gi = g[i] * clip_scale;
      m[i] = kBeta1 * m[i] + (1.0f - kBeta1) * gi;
      v[i] = kBeta2 * v[i] + (1.0f - kBeta2) * gi * gi;
      const float mhat = m[i] / bias1;
      const float vhat = v[i] / bias2;
      w[i] -= config_.lr *
              (mhat / (std::sqrt(vhat) + kEps) +
               config_.weight_decay * w[i]);
    }
  }
}

void AdamW::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

}  // namespace promptem::nn
