// Adam with global-norm gradient clipping.

#ifndef ALICOCO_NN_OPTIMIZER_H_
#define ALICOCO_NN_OPTIMIZER_H_

#include <vector>

#include "nn/graph.h"

namespace alicoco::nn {

/// Scales all gradients in `store` so their global L2 norm is at most
/// `max_norm` (no-op when max_norm <= 0). Returns the pre-clip norm.
double ClipGlobalNorm(ParameterStore* store, double max_norm);

/// Adam (Kingma & Ba) with bias correction. Applies the gradients
/// accumulated in a store; callers ZeroGrad afterwards.
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f, double clip_norm = 5.0)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
        clip_norm_(clip_norm) {}

  /// One update from the gradients currently in `store`. Every call must
  /// pass the same store: moment slots are indexed by Parameter::index.
  void Step(ParameterStore* store);

 private:
  struct Slot {
    Tensor m;
    Tensor v;
  };
  float lr_, beta1_, beta2_, eps_;
  double clip_norm_;
  int64_t t_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_OPTIMIZER_H_
