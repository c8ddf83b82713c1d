#include "nn/optimizer.h"

#include <cmath>

#include "nn/kernels.h"

namespace alicoco::nn {

double ClipGlobalNorm(ParameterStore* store, double max_norm) {
  double sq = 0.0;
  for (const auto& p : store->params()) sq += p->grad.SquaredNorm();
  double norm = std::sqrt(sq);
  if (max_norm > 0 && norm > max_norm) {
    float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (const auto& p : store->params()) p->grad.Scale(scale);
  }
  return norm;
}

void Adam::Step(ParameterStore* store) {
  ClipGlobalNorm(store, clip_norm_);
  ++t_;
  const kernels::AdamCoeffs coeffs{
      beta1_,
      1.0f - beta1_,
      beta2_,
      1.0f - beta2_,
      1.0f - std::pow(beta1_, static_cast<float>(t_)),
      1.0f - std::pow(beta2_, static_cast<float>(t_)),
      lr_,
      eps_};
  if (slots_.size() < store->params().size()) {
    slots_.resize(store->params().size());
  }
  for (const auto& p : store->params()) {
    Slot& slot = slots_[p->index];
    if (slot.m.empty()) {
      slot.m = Tensor(p->value.rows(), p->value.cols());
      slot.v = Tensor(p->value.rows(), p->value.cols());
    }
    kernels::AdamUpdate(p->value.size(), p->grad.data(), slot.m.data(),
                        slot.v.data(), p->value.data(), coeffs);
  }
}

}  // namespace alicoco::nn
