// Numerical gradient checks for every differentiable op and for the CRF
// losses. Each check perturbs one parameter entry at a time and compares the
// central finite difference against the analytic gradient.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/crf.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/rnn.h"

namespace alicoco::nn {
namespace {

// Builds a scalar loss from the parameters in `store` and returns it.
using LossBuilder = std::function<Graph::Var(Graph*)>;

// Verifies analytic gradients of every parameter against finite differences.
void CheckGradients(ParameterStore* store, const LossBuilder& build,
                    float eps = 1e-3f, float tol = 2e-2f) {
  // Analytic pass.
  store->ZeroGrad();
  {
    Graph g;
    g.Backward(build(&g));
  }
  for (const auto& p : store->params()) {
    Tensor analytic = p->grad;
    for (int i = 0; i < p->value.rows(); ++i) {
      for (int j = 0; j < p->value.cols(); ++j) {
        float orig = p->value.At(i, j);
        p->value.At(i, j) = orig + eps;
        float plus;
        {
          Graph g;
          plus = g.Value(build(&g)).At(0, 0);
        }
        p->value.At(i, j) = orig - eps;
        float minus;
        {
          Graph g;
          minus = g.Value(build(&g)).At(0, 0);
        }
        p->value.At(i, j) = orig;
        float numeric = (plus - minus) / (2 * eps);
        float a = analytic.At(i, j);
        float denom = std::max({std::fabs(a), std::fabs(numeric), 1.0f});
        EXPECT_NEAR(a / denom, numeric / denom, tol)
            << p->name << "[" << i << "," << j << "] analytic=" << a
            << " numeric=" << numeric;
      }
    }
  }
}

Tensor Pattern(int rows, int cols, float scale = 0.3f) {
  Tensor t(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      t.At(i, j) = scale * std::sin(1.7f * i + 0.9f * j + 0.3f);
    }
  }
  return t;
}

TEST(GradCheck, MatMulAddSigmoid) {
  Rng rng(1);
  ParameterStore store;
  Parameter* w = store.Create("w", 3, 2, ParameterStore::Init::kXavier, &rng);
  Parameter* b = store.Create("b", 1, 2, ParameterStore::Init::kGaussian,
                              &rng, 0.2f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var x = g->Input(Pattern(2, 3));
    Graph::Var z = g->Add(g->MatMul(x, g->Use(w)), g->Use(b));
    // sigmoid(z) - 1/2 = tanh(z / 2) / 2; the constant has no gradient.
    return g->MeanAll(g->ScalarMul(g->Tanh(g->ScalarMul(z, 0.5f)), 0.5f));
  });
}

TEST(GradCheck, TanhReluMulSub) {
  Rng rng(2);
  ParameterStore store;
  Parameter* a = store.Create("a", 2, 3, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  Parameter* b = store.Create("b", 2, 3, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var av = g->Use(a);
    Graph::Var bv = g->Use(b);
    Graph::Var t = g->Tanh(av);
    Graph::Var r = g->Relu(g->Sub(av, bv));
    return g->MeanAll(g->Mul(t, g->Add(r, bv)));
  });
}

TEST(GradCheck, ScalarOpsAndBroadcasts) {
  Rng rng(3);
  ParameterStore store;
  Parameter* a = store.Create("a", 3, 4, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  Parameter* row = store.Create("row", 1, 4, ParameterStore::Init::kGaussian,
                                &rng, 0.5f);
  Parameter* scalar = store.Create("s", 1, 1, ParameterStore::Init::kGaussian,
                                   &rng, 0.5f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var x = g->Add(g->Use(a), g->Use(row));     // row broadcast
    Graph::Var y = g->Add(x, g->Use(scalar));          // scalar broadcast
    return g->MeanAll(g->Tanh(g->ScalarMul(y, 1.3f)));
  });
}

TEST(GradCheck, SoftmaxRows) {
  Rng rng(4);
  ParameterStore store;
  Parameter* a = store.Create("a", 2, 5, ParameterStore::Init::kGaussian,
                              &rng, 0.8f);
  Tensor weights = Pattern(2, 5, 1.0f);
  CheckGradients(&store, [&](Graph* g) {
    // Weighted sum of softmax outputs so the gradient is non-trivial.
    return g->MeanAll(
        g->Mul(g->SoftmaxRows(g->Use(a)), g->Input(weights)));
  });
}

TEST(GradCheck, TransposeConcatSlice) {
  Rng rng(5);
  ParameterStore store;
  Parameter* a = store.Create("a", 2, 3, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  Parameter* b = store.Create("b", 2, 2, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var cat = g->ConcatCols({g->Use(a), g->Use(b)});  // 2x5
    Graph::Var t = g->Transpose(cat);                        // 5x2
    Graph::Var top = g->SliceRows(t, 1, 3);                  // 3x2
    Graph::Var col = g->SliceCols(top, 0, 1);                // 3x1
    Graph::Var rows = g->ConcatRows({col, col});             // 6x1
    return g->MeanAll(g->Tanh(rows));
  });
}

TEST(GradCheck, Reductions) {
  Rng rng(6);
  ParameterStore store;
  Parameter* a = store.Create("a", 3, 4, ParameterStore::Init::kGaussian,
                              &rng, 0.7f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var x = g->Use(a);
    Graph::Var parts = g->ConcatCols(
        {g->SumRows(x), g->MeanRows(x), g->MaxRows(g->Tanh(x))});
    return g->MeanAll(g->Mul(parts, g->Input(Pattern(1, 12, 1.0f))));
  });
}

TEST(GradCheck, SumColsAndSumAll) {
  Rng rng(7);
  ParameterStore store;
  Parameter* a = store.Create("a", 4, 3, ParameterStore::Init::kGaussian,
                              &rng, 0.7f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var x = g->Tanh(g->Use(a));
    Graph::Var sc = g->SumCols(x);  // 4x1
    return g->ScalarMul(g->SumAll(g->Mul(sc, g->Input(Pattern(4, 1, 1.0f)))),
                        0.25f);
  });
}

TEST(GradCheck, ConcatWindow) {
  Rng rng(8);
  ParameterStore store;
  Parameter* a = store.Create("a", 4, 3, ParameterStore::Init::kGaussian,
                              &rng, 0.7f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var win = g->ConcatWindow(g->Use(a), 3);  // 4x9
    return g->MeanAll(g->Mul(win, g->Input(Pattern(4, 9, 1.0f))));
  });
}

TEST(GradCheck, EmbeddingLookupAccumulatesRepeatedIds) {
  Rng rng(9);
  ParameterStore store;
  Parameter* table = store.Create("emb", 5, 3,
                                  ParameterStore::Init::kGaussian, &rng, 0.5f);
  CheckGradients(&store, [&](Graph* g) {
    // id 2 appears twice: gradient must accumulate.
    Graph::Var e = g->EmbeddingLookup(table, {2, 4, 2});
    return g->MeanAll(g->Mul(g->Tanh(e), g->Input(Pattern(3, 3, 1.0f))));
  });
}

TEST(GradCheck, AdditiveAttention) {
  Rng rng(10);
  ParameterStore store;
  Parameter* a = store.Create("a", 3, 4, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  Parameter* b = store.Create("b", 2, 4, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  Parameter* v = store.Create("v", 4, 1, ParameterStore::Init::kGaussian,
                              &rng, 0.5f);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var att = g->AdditiveAttention(g->Use(a), g->Use(b), g->Use(v));
    return g->MeanAll(g->Mul(att, g->Input(Pattern(3, 2, 1.0f))));
  });
}

TEST(GradCheck, SigmoidCrossEntropy) {
  Rng rng(11);
  ParameterStore store;
  Parameter* a = store.Create("a", 2, 2, ParameterStore::Init::kGaussian,
                              &rng, 1.0f);
  Tensor targets = Tensor::FromVector(2, 2, {1, 0, 0, 1});
  CheckGradients(&store, [&](Graph* g) {
    return g->SigmoidCrossEntropyWithLogits(g->Use(a), targets);
  });
}

TEST(GradCheck, LstmStep) {
  Rng rng(12);
  ParameterStore store;
  LstmCell cell(&store, "lstm", 3, 4, &rng);
  CheckGradients(&store, [&](Graph* g) {
    auto state = cell.Initial(g);
    state = cell.Step(g, g->Input(Pattern(1, 3)), state);
    state = cell.Step(g, g->Input(Pattern(1, 3, 0.5f)), state);
    return g->MeanAll(g->Mul(state.h, g->Input(Pattern(1, 4, 1.0f))));
  });
}

TEST(GradCheck, BiLstm) {
  Rng rng(13);
  ParameterStore store;
  BiLstm bilstm(&store, "bi", 2, 3, &rng);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var out = bilstm.Run(g, g->Input(Pattern(3, 2)));
    return g->MeanAll(g->Mul(out, g->Input(Pattern(3, 6, 1.0f))));
  });
}

TEST(GradCheck, SelfAttentionLayer) {
  Rng rng(14);
  ParameterStore store;
  SelfAttention attn(&store, "attn", 3, &rng, /*residual=*/true);
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var out = attn.Apply(g, g->Input(Pattern(4, 3)));
    return g->MeanAll(g->Mul(out, g->Input(Pattern(4, 3, 1.0f))));
  });
}

TEST(GradCheck, CrfNegLogLikelihood) {
  Rng rng(15);
  ParameterStore store;
  LinearChainCrf crf(&store, "crf", 3, &rng);
  Parameter* emit = store.Create("emit", 4, 3,
                                 ParameterStore::Init::kGaussian, &rng, 0.5f);
  std::vector<int> gold = {0, 2, 2, 1};
  CheckGradients(&store, [&](Graph* g) {
    return crf.NegLogLikelihood(g, g->Use(emit), gold);
  });
}

TEST(GradCheck, FuzzyCrf) {
  Rng rng(16);
  ParameterStore store;
  LinearChainCrf crf(&store, "crf", 3, &rng);
  Parameter* emit = store.Create("emit", 3, 3,
                                 ParameterStore::Init::kGaussian, &rng, 0.5f);
  std::vector<std::vector<int>> allowed = {{0, 1}, {2}, {1, 2}};
  CheckGradients(&store, [&](Graph* g) {
    return crf.FuzzyNegLogLikelihood(g, g->Use(emit), allowed);
  });
}

TEST(GradCheck, CrfThroughUpstreamEncoder) {
  // Gradient must flow through the emissions into an upstream linear layer.
  Rng rng(17);
  ParameterStore store;
  Linear proj(&store, "proj", 4, 3, &rng);
  LinearChainCrf crf(&store, "crf", 3, &rng);
  std::vector<int> gold = {1, 0, 2};
  CheckGradients(&store, [&](Graph* g) {
    Graph::Var x = g->Input(Pattern(3, 4));
    return crf.NegLogLikelihood(g, proj.Apply(g, x), gold);
  });
}

}  // namespace
}  // namespace alicoco::nn
