// Forward-value semantics of graph ops.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/graph.h"

namespace alicoco::nn {
namespace {

TEST(GraphTest, InputHoldsValue) {
  Graph g;
  auto v = g.Input(Tensor::FromVector(1, 2, {3, 4}));
  EXPECT_EQ(g.Value(v).At(0, 1), 4);
}

TEST(GraphTest, MatMulShape) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(2, 3, {1, 0, 0, 0, 1, 0}));
  auto b = g.Input(Tensor::FromVector(3, 1, {5, 7, 9}));
  auto c = g.MatMul(a, b);
  EXPECT_EQ(g.Value(c).rows(), 2);
  EXPECT_EQ(g.Value(c).At(0, 0), 5);
  EXPECT_EQ(g.Value(c).At(1, 0), 7);
}

TEST(GraphTest, AddBroadcastRow) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(2, 2, {1, 2, 3, 4}));
  auto b = g.Input(Tensor::FromVector(1, 2, {10, 20}));
  auto c = g.Add(a, b);
  EXPECT_EQ(g.Value(c).At(0, 0), 11);
  EXPECT_EQ(g.Value(c).At(1, 1), 24);
}

TEST(GraphTest, AddBroadcastScalar) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(2, 2, {1, 2, 3, 4}));
  auto s = g.Input(Tensor::FromVector(1, 1, {100}));
  auto c = g.Add(a, s);
  EXPECT_EQ(g.Value(c).At(1, 0), 103);
}

TEST(GraphTest, SoftmaxRowsSumToOne) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(2, 3, {1, 2, 3, -1, 0, 1}));
  auto s = g.SoftmaxRows(a);
  for (int i = 0; i < 2; ++i) {
    float total = 0;
    for (int j = 0; j < 3; ++j) total += g.Value(s).At(i, j);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  EXPECT_GT(g.Value(s).At(0, 2), g.Value(s).At(0, 0));
}

TEST(GraphTest, SoftmaxNumericallyStableForLargeInputs) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(1, 2, {1000, 1001}));
  auto s = g.SoftmaxRows(a);
  EXPECT_TRUE(std::isfinite(g.Value(s).At(0, 0)));
  EXPECT_NEAR(g.Value(s).At(0, 0) + g.Value(s).At(0, 1), 1.0f, 1e-5f);
}

TEST(GraphTest, ReluClampsNegatives) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(1, 3, {-1, 0, 2}));
  auto r = g.Relu(a);
  EXPECT_EQ(g.Value(r).At(0, 0), 0);
  EXPECT_EQ(g.Value(r).At(0, 2), 2);
}

TEST(GraphTest, MaxRowsPicksColumnwiseMax) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(3, 2, {1, 9, 5, 2, 3, 4}));
  auto m = g.MaxRows(a);
  EXPECT_EQ(g.Value(m).At(0, 0), 5);
  EXPECT_EQ(g.Value(m).At(0, 1), 9);
}

TEST(GraphTest, ConcatWindowZeroPads) {
  Graph g;
  auto a = g.Input(Tensor::FromVector(2, 1, {1, 2}));
  auto w = g.ConcatWindow(a, 3);
  // Row 0: [pad, 1, 2]; Row 1: [1, 2, pad].
  EXPECT_EQ(g.Value(w).At(0, 0), 0);
  EXPECT_EQ(g.Value(w).At(0, 1), 1);
  EXPECT_EQ(g.Value(w).At(0, 2), 2);
  EXPECT_EQ(g.Value(w).At(1, 0), 1);
  EXPECT_EQ(g.Value(w).At(1, 2), 0);
}

TEST(GraphTest, EmbeddingLookupGathersRows) {
  Graph g;
  Rng rng(1);
  ParameterStore store;
  Parameter* table =
      store.Create("t", 4, 2, ParameterStore::Init::kZero, nullptr);
  table->value.At(3, 0) = 7;
  table->value.At(3, 1) = 8;
  auto e = g.EmbeddingLookup(table, {3, 0});
  EXPECT_EQ(g.Value(e).At(0, 0), 7);
  EXPECT_EQ(g.Value(e).At(1, 1), 0);
}

TEST(GraphTest, DropoutEvalIsIdentity) {
  Graph g;
  Rng rng(2);
  auto a = g.Input(Tensor::FromVector(1, 4, {1, 2, 3, 4}));
  auto d = g.Dropout(a, 0.5f, /*train=*/false, &rng);
  EXPECT_EQ(d, a);  // same node
}

TEST(GraphTest, DropoutTrainZeroesAndRescales) {
  Graph g;
  Rng rng(3);
  std::vector<float> ones(1000, 1.0f);
  auto a = g.Input(Tensor::FromVector(1, 1000, ones));
  auto d = g.Dropout(a, 0.5f, /*train=*/true, &rng);
  int zeros = 0;
  double total = 0;
  for (int j = 0; j < 1000; ++j) {
    float v = g.Value(d).At(0, j);
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout rescale
    }
    total += v;
  }
  EXPECT_NEAR(zeros, 500, 60);
  EXPECT_NEAR(total / 1000.0, 1.0, 0.15);  // expectation preserved
}

TEST(GraphTest, BackwardAccumulatesIntoSharedParameter) {
  Rng rng(4);
  ParameterStore store;
  Parameter* p =
      store.Create("p", 1, 1, ParameterStore::Init::kZero, nullptr);
  p->value.At(0, 0) = 2.0f;
  Graph g;
  // loss = p * p  => dloss/dp = 2p = 4.
  auto loss = g.Mul(g.Use(p), g.Use(p));
  g.Backward(loss);
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 4.0f);
}

TEST(GraphTest, BackwardTwiceAccumulates) {
  ParameterStore store;
  Parameter* p =
      store.Create("p", 1, 1, ParameterStore::Init::kZero, nullptr);
  p->value.At(0, 0) = 1.0f;
  for (int i = 0; i < 2; ++i) {
    Graph g;
    g.Backward(g.ScalarMul(g.Use(p), 3.0f));
  }
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 6.0f);
  store.ZeroGrad();
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 0.0f);
}

TEST(GraphTest, ForwardOnlyGraphComputesTheSameValues) {
  Rng rng(9);
  ParameterStore store;
  Parameter* table =
      store.Create("table", 6, 4, ParameterStore::Init::kXavier, &rng);
  Parameter* w = store.Create("w", 4, 4, ParameterStore::Init::kXavier, &rng);
  Parameter* b = store.Create("b", 1, 4, ParameterStore::Init::kGaussian,
                              &rng, 0.2f);
  Parameter* v = store.Create("v", 4, 1, ParameterStore::Init::kXavier, &rng);
  auto build = [&](Graph* g) {
    Graph::Var x = g->EmbeddingLookup(table, {3, 1, 5});
    Graph::Var h = g->AffineTanh(x, w, b);
    Graph::Var att = g->AdditiveAttention(h, x, g->Use(v));
    return g->SoftmaxRows(g->ConcatCols({att, g->MatMulTransB(h, x)}));
  };
  Graph recording;
  Graph forward_only(Graph::kForwardOnly);
  const Tensor& want = recording.Value(build(&recording));
  const Tensor& got = forward_only.Value(build(&forward_only));
  ASSERT_TRUE(want.SameShape(got));
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.data()[i], got.data()[i]) << "entry " << i;
  }
  EXPECT_EQ(recording.num_nodes(), forward_only.num_nodes());
}

TEST(GraphTest, BackwardOnForwardOnlyGraphAborts) {
  ParameterStore store;
  Parameter* p =
      store.Create("p", 1, 1, ParameterStore::Init::kZero, nullptr);
  Graph g(Graph::kForwardOnly);
  Graph::Var loss = g.ScalarMul(g.Use(p), 3.0f);
  EXPECT_DEATH(g.Backward(loss), "forward-only");
}

TEST(ParameterStoreTest, DuplicateNameAborts) {
  ParameterStore store;
  store.Create("x", 1, 1, ParameterStore::Init::kZero, nullptr);
  EXPECT_DEATH(store.Create("x", 1, 1, ParameterStore::Init::kZero, nullptr),
               "duplicate");
}

}  // namespace
}  // namespace alicoco::nn
