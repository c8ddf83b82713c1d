// The fused pyramid readouts (DynamicGridPool, BestAlignmentStats) against
// the composed slice / max / transpose / mean graphs they replaced: forward
// values and the input gradient must agree bit for bit, ties included, and
// each node's gradient must match finite differences.

#include "matching/match_pyramid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "nn/graph.h"

namespace alicoco::matching {
namespace {

using Var = nn::Graph::Var;

constexpr int kGrid = 3;

// The composed DynamicGridPool: 40 nodes at grid 3.
Var ComposedGridPool(nn::Graph* g, Var matrix, int grid) {
  int rows = g->Value(matrix).rows();
  int cols = g->Value(matrix).cols();
  int gr = std::min(grid, rows);
  int gc = std::min(grid, cols);
  std::vector<Var> cells;
  for (int r = 0; r < grid; ++r) {
    int r0 = std::min(r, gr - 1) * rows / gr;
    int r1 = (std::min(r, gr - 1) + 1) * rows / gr;
    Var row_slice = g->SliceRows(matrix, r0, std::max(1, r1 - r0));
    for (int c = 0; c < grid; ++c) {
      int c0 = std::min(c, gc - 1) * cols / gc;
      int c1 = (std::min(c, gc - 1) + 1) * cols / gc;
      Var cell = g->SliceCols(row_slice, c0, std::max(1, c1 - c0));
      Var m = g->MaxRows(cell);
      cells.push_back(g->MaxRows(g->Transpose(m)));
    }
  }
  return g->ConcatCols(cells);
}

// The composed best-alignment statistics chain: 14 nodes.
Var ComposedStats(nn::Graph* g, Var match) {
  Var col_best = g->MaxRows(match);
  Var row_best = g->MaxRows(g->Transpose(match));
  return g->ConcatCols({g->MaxRows(g->Transpose(col_best)),
                        g->MeanRows(g->Transpose(col_best)),
                        g->MaxRows(g->Transpose(row_best)),
                        g->MeanRows(g->Transpose(row_best))});
}

// A pyramid layer's readout in the knowledge matcher's order: stats
// created first, grid second, concatenated grid then stats.
Var ComposedLayer(nn::Graph* g, Var match) {
  Var stats = ComposedStats(g, match);
  return g->ConcatCols({ComposedGridPool(g, match, kGrid), stats});
}

Var FusedLayer(nn::Graph* g, Var match) {
  Var stats = BestAlignmentStats(g, match);
  return g->ConcatCols({DynamicGridPool(g, match, kGrid), stats});
}

// Random values with planted ties: the row maximum is copied to a later
// column, the column maximum to a later row, some entries are zeroed with
// either sign, and one case per shape has every entry equal.
nn::Tensor TiedMatrix(int m, int l, int variant, Rng* rng) {
  nn::Tensor x = nn::Tensor::Randn(m, l, 1.0f, rng);
  if (variant == 1) {
    x.Fill(0.25f);
    return x;
  }
  if (variant >= 2) {
    for (int i = 0; i < m; ++i) {
      int arg = 0;
      for (int j = 1; j < l; ++j) {
        if (x.At(i, j) > x.At(i, arg)) arg = j;
      }
      x.At(i, l - 1) = x.At(i, arg);
    }
    for (int j = 0; j < l; ++j) {
      int arg = 0;
      for (int i = 1; i < m; ++i) {
        if (x.At(i, j) > x.At(arg, j)) arg = i;
      }
      x.At(m - 1, j) = x.At(arg, j);
    }
  }
  if (variant == 3) {
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < l; ++j) {
        if ((i + j) % 3 == 0) x.At(i, j) = (i % 2 == 0) ? 0.0f : -0.0f;
      }
    }
  }
  return x;
}

struct Pass {
  nn::Tensor value;
  nn::Tensor input_grad;
};

// Builds `readout` over `matrix` and backpropagates `upstream` into it.
template <typename Readout>
Pass Backprop(const nn::Tensor& matrix, const nn::Tensor& upstream,
              Readout readout) {
  nn::Graph g;
  Var x = g.Input(matrix);
  Var out = readout(&g, x);
  g.Backward(g.SumAll(g.Mul(out, g.Input(upstream))));
  return {g.Value(out), g.Grad(x)};
}

void ExpectBitEqual(const nn::Tensor& want, const nn::Tensor& got,
                    const char* what, int m, int l, int variant) {
  ASSERT_TRUE(want.SameShape(got)) << what;
  for (size_t k = 0; k < want.size(); ++k) {
    // == treats +0 and -0 as equal, and is exact otherwise.
    EXPECT_EQ(want.data()[k], got.data()[k])
        << what << " entry " << k << " at m=" << m << " l=" << l
        << " variant=" << variant;
  }
}

TEST(FusedPyramidTest, MatchesComposedGraphBitForBit) {
  Rng rng(2020);
  for (int m = 1; m <= 6; ++m) {
    for (int l = 1; l <= 8; ++l) {
      for (int variant = 0; variant < 4; ++variant) {
        const nn::Tensor x = TiedMatrix(m, l, variant, &rng);
        const nn::Tensor layer_up =
            nn::Tensor::Randn(1, kGrid * kGrid + 4, 1.0f, &rng);
        Pass want = Backprop(x, layer_up, ComposedLayer);
        Pass got = Backprop(x, layer_up, FusedLayer);
        ExpectBitEqual(want.value, got.value, "layer value", m, l, variant);
        ExpectBitEqual(want.input_grad, got.input_grad, "layer grad", m, l,
                       variant);

        // Each node on its own (the grid alone is MatchPyramid's readout).
        const nn::Tensor grid_up =
            nn::Tensor::Randn(1, kGrid * kGrid, 1.0f, &rng);
        auto composed_grid = [](nn::Graph* g, Var v) {
          return ComposedGridPool(g, v, kGrid);
        };
        auto fused_grid = [](nn::Graph* g, Var v) {
          return DynamicGridPool(g, v, kGrid);
        };
        want = Backprop(x, grid_up, composed_grid);
        got = Backprop(x, grid_up, fused_grid);
        ExpectBitEqual(want.value, got.value, "grid value", m, l, variant);
        ExpectBitEqual(want.input_grad, got.input_grad, "grid grad", m, l,
                       variant);

        const nn::Tensor stats_up = nn::Tensor::Randn(1, 4, 1.0f, &rng);
        want = Backprop(x, stats_up, ComposedStats);
        got = Backprop(x, stats_up, BestAlignmentStats);
        ExpectBitEqual(want.value, got.value, "stats value", m, l, variant);
        ExpectBitEqual(want.input_grad, got.input_grad, "stats grad", m, l,
                       variant);
      }
    }
  }
}

TEST(FusedPyramidTest, ForwardOnlyGraphGivesTheSameValues) {
  Rng rng(7);
  const nn::Tensor x = TiedMatrix(5, 7, 2, &rng);
  nn::Graph recording;
  nn::Graph forward_only(nn::Graph::kForwardOnly);
  const nn::Tensor want =
      recording.Value(FusedLayer(&recording, recording.Input(x)));
  const nn::Tensor got =
      forward_only.Value(FusedLayer(&forward_only, forward_only.Input(x)));
  ExpectBitEqual(want, got, "forward-only value", 5, 7, 2);
}

// Central finite differences of sum(readout(P) .* w) against Backward. The
// entries of P are distinct and far apart relative to eps, so no argmax
// flips under the perturbation.
template <typename Readout>
void CheckGradient(int m, int l, int out_cols, Readout readout) {
  nn::ParameterStore store;
  nn::Parameter* p =
      store.Create("p", m, l, nn::ParameterStore::Init::kZero, nullptr);
  // 17 is coprime to m * l = 35: a permutation of 0..34, 0.1 apart.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < l; ++j) {
      p->value.At(i, j) =
          0.1f * static_cast<float>((i * l + j) * 17 % (m * l)) - 1.0f;
    }
  }
  Rng rng(11);
  const nn::Tensor w = nn::Tensor::Randn(1, out_cols, 1.0f, &rng);
  auto loss = [&](nn::Graph* g) {
    return g->SumAll(g->Mul(readout(g, g->Use(p)), g->Input(w)));
  };
  {
    nn::Graph g;
    g.Backward(loss(&g));
  }
  const float eps = 1e-3f;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < l; ++j) {
      const float orig = p->value.At(i, j);
      p->value.At(i, j) = orig + eps;
      nn::Graph plus_g(nn::Graph::kForwardOnly);
      const float plus = plus_g.Value(loss(&plus_g)).At(0, 0);
      p->value.At(i, j) = orig - eps;
      nn::Graph minus_g(nn::Graph::kForwardOnly);
      const float minus = minus_g.Value(loss(&minus_g)).At(0, 0);
      p->value.At(i, j) = orig;
      EXPECT_NEAR(p->grad.At(i, j), (plus - minus) / (2 * eps), 1e-2f)
          << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(FusedPyramidTest, GridPoolGradientMatchesFiniteDifferences) {
  CheckGradient(5, 7, kGrid * kGrid, [](nn::Graph* g, Var v) {
    return DynamicGridPool(g, v, kGrid);
  });
}

TEST(FusedPyramidTest, StatsGradientMatchesFiniteDifferences) {
  CheckGradient(5, 7, 4, BestAlignmentStats);
}

}  // namespace
}  // namespace alicoco::matching
