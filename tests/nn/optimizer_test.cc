#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

namespace alicoco::nn {
namespace {

// Minimizes f(w) = (w - 3)^2 with `adam`; returns final w.
float MinimizeQuadratic(Adam* adam, int steps) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 1, ParameterStore::Init::kZero, nullptr);
  for (int i = 0; i < steps; ++i) {
    store.ZeroGrad();
    w->grad.At(0, 0) = 2 * (w->value.At(0, 0) - 3.0f);
    adam->Step(&store);
  }
  return w->value.At(0, 0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Adam adam(0.2f);
  EXPECT_NEAR(MinimizeQuadratic(&adam, 300), 3.0f, 1e-2f);
}

TEST(ClippingTest, LargeGradientIsClipped) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 2, ParameterStore::Init::kZero, nullptr);
  w->grad.At(0, 0) = 300.0f;
  w->grad.At(0, 1) = 400.0f;  // norm 500, clip to 5
  EXPECT_DOUBLE_EQ(ClipGlobalNorm(&store, /*max_norm=*/5.0), 500.0);
  EXPECT_NEAR(w->grad.At(0, 0), 3.0f, 1e-4f);
  EXPECT_NEAR(w->grad.At(0, 1), 4.0f, 1e-4f);
}

TEST(ClippingTest, SmallGradientUntouched) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 1, ParameterStore::Init::kZero, nullptr);
  w->grad.At(0, 0) = 1.0f;
  EXPECT_DOUBLE_EQ(ClipGlobalNorm(&store, 5.0), 1.0);
  EXPECT_FLOAT_EQ(w->grad.At(0, 0), 1.0f);
}

TEST(AdamTest, PerParameterSlots) {
  // Two parameters with very different gradient scales should both move
  // roughly lr per step initially (Adam normalizes by RMS).
  ParameterStore store;
  Parameter* a = store.Create("a", 1, 1, ParameterStore::Init::kZero, nullptr);
  Parameter* b = store.Create("b", 1, 1, ParameterStore::Init::kZero, nullptr);
  Adam adam(0.1f, 0.9f, 0.999f, 1e-8f, /*clip_norm=*/0.0);
  store.ZeroGrad();
  a->grad.At(0, 0) = 0.001f;
  b->grad.At(0, 0) = 10.0f;
  adam.Step(&store);
  EXPECT_NEAR(a->value.At(0, 0), -0.1f, 1e-3f);
  EXPECT_NEAR(b->value.At(0, 0), -0.1f, 1e-3f);
}

}  // namespace
}  // namespace alicoco::nn
