#include "matching/match_pyramid.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace alicoco::matching {

namespace {

// Row (or column) band `index` of a grid over `extent` rows (columns):
// min(grid, extent) equal bands, indices past the last band reuse it.
struct Band {
  int begin;
  int size;
};

Band GridBand(int index, int grid, int extent) {
  const int bands = std::min(grid, extent);
  const int b = std::min(index, bands - 1);
  const int begin = b * extent / bands;
  const int end = (b + 1) * extent / bands;
  return {begin, std::max(1, end - begin)};
}

struct Cell {
  int row;
  int col;
};

// Position of the max of x over `rows` x `cols`, found the way MaxRows then
// MaxRows(Transpose) found it: each column's first strict row max, then
// the first strict max over those.
Cell RegionArgmax(const nn::Tensor& x, Band rows, Band cols) {
  Cell best{rows.begin, cols.begin};
  for (int j = cols.begin; j < cols.begin + cols.size; ++j) {
    int arg = rows.begin;
    for (int i = rows.begin + 1; i < rows.begin + rows.size; ++i) {
      if (x.At(i, j) > x.At(arg, j)) arg = i;
    }
    if (j == cols.begin || x.At(arg, j) > x.At(best.row, best.col)) {
      best = {arg, j};
    }
  }
  return best;
}

// First strict max of row i over its columns.
int RowArgmax(const nn::Tensor& x, int i) {
  int arg = 0;
  for (int j = 1; j < x.cols(); ++j) {
    if (x.At(i, j) > x.At(i, arg)) arg = j;
  }
  return arg;
}

// First strict max of column j over its rows.
int ColArgmax(const nn::Tensor& x, int j) {
  int arg = 0;
  for (int i = 1; i < x.rows(); ++i) {
    if (x.At(i, j) > x.At(arg, j)) arg = i;
  }
  return arg;
}

}  // namespace

nn::Graph::Var DynamicGridPool(nn::Graph* g, nn::Graph::Var matrix,
                               int grid) {
  const nn::Tensor& x = g->Value(matrix);
  ALICOCO_CHECK(grid > 0 && x.rows() > 0 && x.cols() > 0);
  nn::Tensor pooled(1, grid * grid, g->arena());
  for (int r = 0; r < grid; ++r) {
    const Band rows = GridBand(r, grid, x.rows());
    for (int c = 0; c < grid; ++c) {
      const Cell cell = RegionArgmax(x, rows, GridBand(c, grid, x.cols()));
      pooled.At(0, r * grid + c) = x.At(cell.row, cell.col);
    }
  }
  // The argmaxes are recomputed from the input value, so a forward-only
  // graph stores nothing for them.
  return g->Custom(std::move(pooled), [g, matrix,
                                       grid](const nn::Tensor& out_grad) {
    const nn::Tensor& x = g->Value(matrix);
    // Each row band's cells sum into a band gradient, last cell first, and
    // the bands add into the input last to first: the composed graph's
    // order.
    nn::Tensor band(x.rows(), x.cols(), g->arena());
    for (int r = grid - 1; r >= 0; --r) {
      const Band rows = GridBand(r, grid, x.rows());
      band.Zero();
      for (int c = grid - 1; c >= 0; --c) {
        const Cell cell = RegionArgmax(x, rows, GridBand(c, grid, x.cols()));
        band.At(cell.row, cell.col) += out_grad.At(0, r * grid + c);
      }
      g->AccumulateGrad(matrix, band);
    }
  });
}

nn::Graph::Var BestAlignmentStats(nn::Graph* g, nn::Graph::Var matrix) {
  const nn::Tensor& x = g->Value(matrix);
  const int m = x.rows(), l = x.cols();
  ALICOCO_CHECK(m > 0 && l > 0);
  float col_max = 0.0f, col_sum = 0.0f;
  for (int j = 0; j < l; ++j) {
    const float best = x.At(ColArgmax(x, j), j);
    if (j == 0 || best > col_max) col_max = best;
    col_sum += best;
  }
  float row_max = 0.0f, row_sum = 0.0f;
  for (int i = 0; i < m; ++i) {
    const float best = x.At(i, RowArgmax(x, i));
    if (i == 0 || best > row_max) row_max = best;
    row_sum += best;
  }
  nn::Tensor stats(1, 4, g->arena());
  stats.At(0, 0) = col_max;
  stats.At(0, 1) = col_sum * (1.0f / static_cast<float>(l));
  stats.At(0, 2) = row_max;
  stats.At(0, 3) = row_sum * (1.0f / static_cast<float>(m));
  return g->Custom(std::move(stats), [g, matrix](const nn::Tensor& out_grad) {
    const nn::Tensor& x = g->Value(matrix);
    const int m = x.rows(), l = x.cols();
    // Row bests first, then column bests. Every best gets its share of the
    // mean's gradient; the one the forward took as the max also gets the
    // max's gradient.
    nn::Tensor part(m, l, g->arena());
    int top = 0;
    float top_best = x.At(0, RowArgmax(x, 0));
    for (int i = 1; i < m; ++i) {
      const float best = x.At(i, RowArgmax(x, i));
      if (best > top_best) {
        top = i;
        top_best = best;
      }
    }
    const float row_mean_grad =
        (1.0f / static_cast<float>(m)) * out_grad.At(0, 3);
    for (int i = 0; i < m; ++i) {
      float grad = row_mean_grad;
      if (i == top) grad += out_grad.At(0, 2);
      part.At(i, RowArgmax(x, i)) += grad;
    }
    g->AccumulateGrad(matrix, part);

    part.Zero();
    top = 0;
    top_best = x.At(ColArgmax(x, 0), 0);
    for (int j = 1; j < l; ++j) {
      const float best = x.At(ColArgmax(x, j), j);
      if (best > top_best) {
        top = j;
        top_best = best;
      }
    }
    const float col_mean_grad =
        (1.0f / static_cast<float>(l)) * out_grad.At(0, 1);
    for (int j = 0; j < l; ++j) {
      float grad = col_mean_grad;
      if (j == top) grad += out_grad.At(0, 0);
      part.At(ColArgmax(x, j), j) += grad;
    }
    g->AccumulateGrad(matrix, part);
  });
}

void MatchPyramidMatcher::BuildModel() {
  emb_ = MakeEmbedding("emb");
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{kGrid * kGrid, kHidden, 1}, &init_rng_);
}

nn::Graph::Var MatchPyramidMatcher::Logit(nn::Graph* g,
                                          const std::vector<int>& concept_ids,
                                          const std::vector<int>& item_ids,
                                          bool train, Rng* rng) const {
  nn::Graph::Var c = emb_->Lookup(g, concept_ids);
  nn::Graph::Var i = emb_->Lookup(g, item_ids);
  c = g->Dropout(c, 0.1f, train, rng);
  // Interaction matrix: dot products of every word pair.
  nn::Graph::Var interaction = g->MatMulTransB(c, i);  // m x l
  return head_->Apply(g, DynamicGridPool(g, interaction, kGrid));
}

}  // namespace alicoco::matching
