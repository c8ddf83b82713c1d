#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>

namespace alicoco::nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  ParameterStore store;
  Linear lin(&store, "fc", 3, 2, &rng);
  store.Get("fc.b")->value.At(0, 0) = 5.0f;
  Graph g;
  auto y = lin.Apply(&g, g.Input(Tensor(1, 3)));  // zero input -> bias only
  EXPECT_EQ(g.Value(y).rows(), 1);
  EXPECT_EQ(g.Value(y).cols(), 2);
  EXPECT_FLOAT_EQ(g.Value(y).At(0, 0), 5.0f);
}

TEST(EmbeddingTest, LookupAndPretrained) {
  Rng rng(2);
  ParameterStore store;
  Embedding emb(&store, "emb", 4, 3, &rng);
  float* table = emb.parameter()->value.data();
  for (size_t i = 0; i < 12; ++i) table[i] = static_cast<float>(i);
  Graph g;
  auto e = emb.Lookup(&g, {2});
  EXPECT_FLOAT_EQ(g.Value(e).At(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(g.Value(e).At(0, 2), 8.0f);
}

TEST(Conv1DTest, OutputShapeAndNonNegativity) {
  Rng rng(3);
  ParameterStore store;
  Conv1D conv(&store, "conv", 4, 6, 3, &rng);
  Graph g;
  auto y = conv.Apply(&g, g.Input(Tensor::Randn(5, 4, 1.0f, &rng)));
  EXPECT_EQ(g.Value(y).rows(), 5);
  EXPECT_EQ(g.Value(y).cols(), 6);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 6; ++j) EXPECT_GE(g.Value(y).At(i, j), 0.0f);
  }
}

TEST(SelfAttentionTest, PreservesShape) {
  Rng rng(4);
  ParameterStore store;
  SelfAttention attn(&store, "sa", 5, &rng);
  Graph g;
  auto y = attn.Apply(&g, g.Input(Tensor::Randn(3, 5, 0.5f, &rng)));
  EXPECT_EQ(g.Value(y).rows(), 3);
  EXPECT_EQ(g.Value(y).cols(), 5);
}

TEST(SelfAttentionTest, NoResidualDiffersFromResidual) {
  Rng rng(5);
  ParameterStore s1, s2;
  SelfAttention with(&s1, "sa", 4, &rng, true);
  Rng rng2(5);
  SelfAttention without(&s2, "sa", 4, &rng2, false);
  Tensor x = Tensor::Randn(2, 4, 0.5f, &rng);
  Graph g1, g2;
  auto y1 = with.Apply(&g1, g1.Input(x));
  auto y2 = without.Apply(&g2, g2.Input(x));
  // Residual adds x, so outputs must differ.
  bool differ = false;
  for (int i = 0; i < 2 && !differ; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (std::fabs(g1.Value(y1).At(i, j) - g2.Value(y2).At(i, j)) > 1e-6f) {
        differ = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(MlpTest, StackDepthAndShape) {
  Rng rng(6);
  ParameterStore store;
  Mlp mlp(&store, "mlp", {4, 8, 3, 1}, &rng);
  Graph g;
  auto y = mlp.Apply(&g, g.Input(Tensor::Randn(2, 4, 0.5f, &rng)));
  EXPECT_EQ(g.Value(y).rows(), 2);
  EXPECT_EQ(g.Value(y).cols(), 1);
  // 3 Linear layers created.
  EXPECT_NE(store.Get("mlp.fc0.W"), nullptr);
  EXPECT_NE(store.Get("mlp.fc2.W"), nullptr);
  EXPECT_EQ(store.Get("mlp.fc3.W"), nullptr);
}

}  // namespace
}  // namespace alicoco::nn
