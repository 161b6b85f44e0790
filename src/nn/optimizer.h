#ifndef PROMPTEM_NN_OPTIMIZER_H_
#define PROMPTEM_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"

namespace promptem::nn {

/// AdamW configuration (paper defaults: lr 2e-5 for the LM; heads use
/// larger rates). The moment decays and epsilon are the standard Adam
/// constants (beta1 0.9, beta2 0.999, eps 1e-8).
struct AdamWConfig {
  float lr = 2e-5f;
  float weight_decay = 0.01f;
  /// Clips the global gradient norm before the step; <= 0 disables.
  float max_grad_norm = 1.0f;
};

/// Decoupled-weight-decay Adam (Loshchilov & Hutter). Holds moment state
/// per parameter; parameters are captured at construction.
class AdamW {
 public:
  AdamW(std::vector<tensor::Tensor> params, AdamWConfig config);

  /// Applies one update from the accumulated gradients, then leaves grads
  /// in place (call ZeroGrad afterwards — typically via Module::ZeroGrad).
  void Step();

  /// Zeroes every tracked parameter's gradient.
  void ZeroGrad();

 private:
  std::vector<tensor::Tensor> params_;
  AdamWConfig config_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  int64_t step_count_ = 0;
};

}  // namespace promptem::nn

#endif  // PROMPTEM_NN_OPTIMIZER_H_
