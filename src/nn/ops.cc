// Implementations of Graph ops with their reverse-mode closures.

#include <algorithm>
#include <cmath>
#include <memory_resource>
#include <utility>
#include <vector>

#include "nn/graph.h"
#include "nn/kernels.h"

namespace alicoco::nn {
namespace {

// The logistic function, through exp(-z) for z >= 0 and exp(z) below, so
// neither branch overflows.
float SigmoidOf(float z) {
  if (z >= 0.0f) return 1.0f / (1.0f + std::exp(-z));
  const float e = std::exp(z);
  return e / (1.0f + e);
}

}  // namespace

Graph::Var Graph::MatMul(Var a, Var b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  Var out = NewNode(MatMulValue(av, bv, arena()));
  SetBackward(out, [this, out, a, b] {
    const Tensor& g = nodes_[out].grad;
    // dA += g * B^T ; dB += A^T * g
    MatMulTransBAccum(g, nodes_[b].value, &nodes_[a].grad);
    MatMulTransAAccum(nodes_[a].value, g, &nodes_[b].grad);
  });
  return out;
}

Graph::Var Graph::Add(Var a, Var b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  Tensor v(av, arena());
  if (bv.SameShape(av)) {
    v.AddInPlace(bv);
    Var out = NewNode(std::move(v));
    SetBackward(out, [this, out, a, b] {
      nodes_[a].grad.AddInPlace(nodes_[out].grad);
      nodes_[b].grad.AddInPlace(nodes_[out].grad);
    });
    return out;
  }
  if (bv.rows() == 1 && bv.cols() == av.cols()) {  // row broadcast
    for (int i = 0; i < v.rows(); ++i) {
      float* row = v.Row(i);
      const float* brow = bv.Row(0);
      for (int j = 0; j < v.cols(); ++j) row[j] += brow[j];
    }
    Var out = NewNode(std::move(v));
    SetBackward(out, [this, out, a, b] {
      const Tensor& g = nodes_[out].grad;
      nodes_[a].grad.AddInPlace(g);
      Tensor& bg = nodes_[b].grad;
      for (int i = 0; i < g.rows(); ++i) {
        const float* grow = g.Row(i);
        float* bgrow = bg.Row(0);
        for (int j = 0; j < g.cols(); ++j) bgrow[j] += grow[j];
      }
    });
    return out;
  }
  ALICOCO_CHECK(bv.rows() == 1 && bv.cols() == 1)
      << "Add broadcast requires same shape, 1xC, or 1x1";
  float s = bv.At(0, 0);
  for (int i = 0; i < v.rows(); ++i) {
    float* row = v.Row(i);
    for (int j = 0; j < v.cols(); ++j) row[j] += s;
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, b] {
    const Tensor& g = nodes_[out].grad;
    nodes_[a].grad.AddInPlace(g);
    float acc = 0.0f;
    for (int i = 0; i < g.rows(); ++i) {
      const float* grow = g.Row(i);
      for (int j = 0; j < g.cols(); ++j) acc += grow[j];
    }
    nodes_[b].grad.At(0, 0) += acc;
  });
  return out;
}

Graph::Var Graph::Sub(Var a, Var b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  ALICOCO_CHECK(av.SameShape(bv)) << "Sub requires same shapes";
  Tensor v(av, arena());
  v.Axpy(-1.0f, bv);
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, b] {
    nodes_[a].grad.AddInPlace(nodes_[out].grad);
    nodes_[b].grad.Axpy(-1.0f, nodes_[out].grad);
  });
  return out;
}

Graph::Var Graph::Mul(Var a, Var b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  ALICOCO_CHECK(av.SameShape(bv)) << "Mul requires same shapes";
  Tensor v(av.rows(), av.cols(), arena());
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] = av.data()[i] * bv.data()[i];
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, b] {
    const Tensor& g = nodes_[out].grad;
    const Tensor& av2 = nodes_[a].value;
    const Tensor& bv2 = nodes_[b].value;
    Tensor& ag = nodes_[a].grad;
    Tensor& bg = nodes_[b].grad;
    for (size_t i = 0; i < g.size(); ++i) {
      ag.data()[i] += g.data()[i] * bv2.data()[i];
      bg.data()[i] += g.data()[i] * av2.data()[i];
    }
  });
  return out;
}

Graph::Var Graph::ScalarMul(Var a, float s) {
  Tensor v(nodes_[a].value, arena());
  v.Scale(s);
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, s] {
    nodes_[a].grad.Axpy(s, nodes_[out].grad);
  });
  return out;
}

Graph::Var Graph::Tanh(Var a) {
  Tensor v(nodes_[a].value, arena());
  kernels::Tanh(v.size(), v.data(), v.data());
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a] {
    const Tensor& y = nodes_[out].value;
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (size_t i = 0; i < g.size(); ++i) {
      float yi = y.data()[i];
      ag.data()[i] += g.data()[i] * (1.0f - yi * yi);
    }
  });
  return out;
}

Graph::Var Graph::Relu(Var a) {
  Tensor v(nodes_[a].value, arena());
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] = std::max(0.0f, v.data()[i]);
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a] {
    const Tensor& x = nodes_[a].value;
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (size_t i = 0; i < g.size(); ++i) {
      if (x.data()[i] > 0) ag.data()[i] += g.data()[i];
    }
  });
  return out;
}

Graph::Var Graph::SoftmaxRows(Var a) {
  const Tensor& x = nodes_[a].value;
  Tensor v(x.rows(), x.cols(), arena());
  for (int i = 0; i < x.rows(); ++i) {
    const float* xr = x.Row(i);
    float* vr = v.Row(i);
    float mx = xr[0];
    for (int j = 1; j < x.cols(); ++j) mx = std::max(mx, xr[j]);
    float total = 0.0f;
    for (int j = 0; j < x.cols(); ++j) {
      vr[j] = std::exp(xr[j] - mx);
      total += vr[j];
    }
    for (int j = 0; j < x.cols(); ++j) vr[j] /= total;
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a] {
    const Tensor& y = nodes_[out].value;
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int i = 0; i < y.rows(); ++i) {
      const float* yr = y.Row(i);
      const float* gr = g.Row(i);
      float dot = 0.0f;
      for (int j = 0; j < y.cols(); ++j) dot += yr[j] * gr[j];
      float* agr = ag.Row(i);
      for (int j = 0; j < y.cols(); ++j) {
        agr[j] += yr[j] * (gr[j] - dot);
      }
    }
  });
  return out;
}

Graph::Var Graph::Transpose(Var a) {
  const Tensor& x = nodes_[a].value;
  Tensor v(x.cols(), x.rows(), arena());
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) v.At(j, i) = x.At(i, j);
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a] {
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) ag.At(j, i) += g.At(i, j);
    }
  });
  return out;
}

Graph::Var Graph::ConcatCols(std::span<const Var> vars) {
  ALICOCO_CHECK(!vars.empty());
  int rows = nodes_[vars[0]].value.rows();
  int cols = 0;
  for (Var v : vars) {
    ALICOCO_CHECK(nodes_[v].value.rows() == rows)
        << "ConcatCols row mismatch";
    cols += nodes_[v].value.cols();
  }
  Tensor out_t(rows, cols, arena());
  int off = 0;
  for (Var v : vars) {
    const Tensor& x = nodes_[v].value;
    for (int i = 0; i < rows; ++i) {
      std::copy(x.Row(i), x.Row(i) + x.cols(), out_t.Row(i) + off);
    }
    off += x.cols();
  }
  Var out = NewNode(std::move(out_t));
  std::pmr::vector<Var> parents(vars.begin(), vars.end(), arena());
  SetBackward(out, [this, out, parents = std::move(parents)] {
    const Tensor& g = nodes_[out].grad;
    int off2 = 0;
    for (Var v : parents) {
      Tensor& vg = nodes_[v].grad;
      for (int i = 0; i < g.rows(); ++i) {
        const float* grow = g.Row(i) + off2;
        float* vrow = vg.Row(i);
        for (int j = 0; j < vg.cols(); ++j) vrow[j] += grow[j];
      }
      off2 += vg.cols();
    }
  });
  return out;
}

Graph::Var Graph::ConcatRows(std::span<const Var> vars) {
  ALICOCO_CHECK(!vars.empty());
  int cols = nodes_[vars[0]].value.cols();
  int rows = 0;
  for (Var v : vars) {
    ALICOCO_CHECK(nodes_[v].value.cols() == cols)
        << "ConcatRows col mismatch";
    rows += nodes_[v].value.rows();
  }
  Tensor out_t(rows, cols, arena());
  int off = 0;
  for (Var v : vars) {
    const Tensor& x = nodes_[v].value;
    for (int i = 0; i < x.rows(); ++i) {
      std::copy(x.Row(i), x.Row(i) + cols, out_t.Row(off + i));
    }
    off += x.rows();
  }
  Var out = NewNode(std::move(out_t));
  std::pmr::vector<Var> parents(vars.begin(), vars.end(), arena());
  SetBackward(out, [this, out, parents = std::move(parents)] {
    const Tensor& g = nodes_[out].grad;
    int off2 = 0;
    for (Var v : parents) {
      Tensor& vg = nodes_[v].grad;
      for (int i = 0; i < vg.rows(); ++i) {
        const float* grow = g.Row(off2 + i);
        float* vrow = vg.Row(i);
        for (int j = 0; j < vg.cols(); ++j) vrow[j] += grow[j];
      }
      off2 += vg.rows();
    }
  });
  return out;
}

Graph::Var Graph::SliceRows(Var a, int begin, int count) {
  const Tensor& x = nodes_[a].value;
  ALICOCO_CHECK(begin >= 0 && count >= 0 && begin + count <= x.rows());
  Tensor v(count, x.cols(), arena());
  for (int i = 0; i < count; ++i) {
    std::copy(x.Row(begin + i), x.Row(begin + i) + x.cols(), v.Row(i));
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, begin, count] {
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int i = 0; i < count; ++i) {
      const float* grow = g.Row(i);
      float* arow = ag.Row(begin + i);
      for (int j = 0; j < g.cols(); ++j) arow[j] += grow[j];
    }
  });
  return out;
}

Graph::Var Graph::SliceCols(Var a, int begin, int count) {
  const Tensor& x = nodes_[a].value;
  ALICOCO_CHECK(begin >= 0 && count >= 0 && begin + count <= x.cols());
  Tensor v(x.rows(), count, arena());
  for (int i = 0; i < x.rows(); ++i) {
    std::copy(x.Row(i) + begin, x.Row(i) + begin + count, v.Row(i));
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, begin, count] {
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int i = 0; i < g.rows(); ++i) {
      const float* grow = g.Row(i);
      float* arow = ag.Row(i) + begin;
      for (int j = 0; j < count; ++j) arow[j] += grow[j];
    }
  });
  return out;
}

Graph::Var Graph::ConcatWindow(Var a, int k) {
  ALICOCO_CHECK(k >= 1 && k % 2 == 1) << "ConcatWindow requires odd k";
  const Tensor& x = nodes_[a].value;
  int t = x.rows(), d = x.cols();
  int half = k / 2;
  Tensor v(t, k * d, arena());
  for (int i = 0; i < t; ++i) {
    for (int w = -half; w <= half; ++w) {
      int src = i + w;
      float* dst = v.Row(i) + (w + half) * d;
      if (src >= 0 && src < t) {
        std::copy(x.Row(src), x.Row(src) + d, dst);
      }
    }
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, k, half, t, d] {
    (void)k;
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int i = 0; i < t; ++i) {
      for (int w = -half; w <= half; ++w) {
        int src = i + w;
        if (src < 0 || src >= t) continue;
        const float* grow = g.Row(i) + (w + half) * d;
        float* arow = ag.Row(src);
        for (int j = 0; j < d; ++j) arow[j] += grow[j];
      }
    }
  });
  return out;
}

Graph::Var Graph::SumAll(Var a) {
  const Tensor& x = nodes_[a].value;
  Tensor v(1, 1, arena());
  float acc = 0.0f;
  for (size_t i = 0; i < x.size(); ++i) acc += x.data()[i];
  v.At(0, 0) = acc;
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a] {
    float g = nodes_[out].grad.At(0, 0);
    Tensor& ag = nodes_[a].grad;
    for (size_t i = 0; i < ag.size(); ++i) ag.data()[i] += g;
  });
  return out;
}

Graph::Var Graph::MeanAll(Var a) {
  const Tensor& x = nodes_[a].value;
  float inv = 1.0f / static_cast<float>(x.size());
  return ScalarMul(SumAll(a), inv);
}

Graph::Var Graph::SumRows(Var a) {
  const Tensor& x = nodes_[a].value;
  Tensor v(1, x.cols(), arena());
  for (int i = 0; i < x.rows(); ++i) {
    const float* xr = x.Row(i);
    for (int j = 0; j < x.cols(); ++j) v.At(0, j) += xr[j];
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a] {
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int i = 0; i < ag.rows(); ++i) {
      float* arow = ag.Row(i);
      for (int j = 0; j < ag.cols(); ++j) arow[j] += g.At(0, j);
    }
  });
  return out;
}

Graph::Var Graph::SumCols(Var a) {
  const Tensor& x = nodes_[a].value;
  Tensor v(x.rows(), 1, arena());
  for (int i = 0; i < x.rows(); ++i) {
    const float* xr = x.Row(i);
    float acc = 0.0f;
    for (int j = 0; j < x.cols(); ++j) acc += xr[j];
    v.At(i, 0) = acc;
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a] {
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int i = 0; i < ag.rows(); ++i) {
      float gi = g.At(i, 0);
      float* arow = ag.Row(i);
      for (int j = 0; j < ag.cols(); ++j) arow[j] += gi;
    }
  });
  return out;
}

Graph::Var Graph::MeanRows(Var a) {
  const Tensor& x = nodes_[a].value;
  ALICOCO_CHECK(x.rows() > 0);
  return ScalarMul(SumRows(a), 1.0f / static_cast<float>(x.rows()));
}

Graph::Var Graph::MaxRows(Var a) {
  const Tensor& x = nodes_[a].value;
  ALICOCO_CHECK(x.rows() > 0);
  Tensor v(1, x.cols(), arena());
  std::pmr::vector<int> argmax(static_cast<size_t>(x.cols()), 0, arena());
  for (int j = 0; j < x.cols(); ++j) {
    float best = x.At(0, j);
    for (int i = 1; i < x.rows(); ++i) {
      if (x.At(i, j) > best) {
        best = x.At(i, j);
        argmax[static_cast<size_t>(j)] = i;
      }
    }
    v.At(0, j) = best;
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, argmax = std::move(argmax)] {
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (int j = 0; j < g.cols(); ++j) {
      ag.At(argmax[static_cast<size_t>(j)], j) += g.At(0, j);
    }
  });
  return out;
}

Graph::Var Graph::EmbeddingLookup(Parameter* table,
                                  const std::vector<int>& ids) {
  ALICOCO_CHECK(table != nullptr && !ids.empty());
  int d = table->value.cols();
  Tensor v(static_cast<int>(ids.size()), d, arena());
  for (size_t i = 0; i < ids.size(); ++i) {
    int id = ids[i];
    ALICOCO_CHECK(id >= 0 && id < table->value.rows())
        << "embedding id out of range: " << id;
    std::copy(table->value.Row(id), table->value.Row(id) + d,
              v.Row(static_cast<int>(i)));
  }
  Var out = NewNode(std::move(v));
  std::pmr::vector<int> ids_copy(ids.begin(), ids.end(), arena());
  SetBackward(out, [this, out, table, ids_copy = std::move(ids_copy), d] {
    const Tensor& g = nodes_[out].grad;
    Tensor* tg = ParamGrad(table);
    for (size_t i = 0; i < ids_copy.size(); ++i) {
      const float* grow = g.Row(static_cast<int>(i));
      float* trow = tg->Row(ids_copy[i]);
      for (int j = 0; j < d; ++j) trow[j] += grow[j];
    }
  });
  return out;
}

Graph::Var Graph::Dropout(Var a, float p, bool train, Rng* rng) {
  if (!train || p <= 0.0f) return a;
  ALICOCO_CHECK(p < 1.0f && rng != nullptr);
  const Tensor& x = nodes_[a].value;
  float scale = 1.0f / (1.0f - p);
  Tensor mask(x.rows(), x.cols(), arena());
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor v(x.rows(), x.cols(), arena());
  for (size_t i = 0; i < x.size(); ++i) {
    v.data()[i] = x.data()[i] * mask.data()[i];
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, mask = std::move(mask)] {
    const Tensor& g = nodes_[out].grad;
    Tensor& ag = nodes_[a].grad;
    for (size_t i = 0; i < g.size(); ++i) {
      ag.data()[i] += g.data()[i] * mask.data()[i];
    }
  });
  return out;
}

Graph::Var Graph::AdditiveAttention(Var a, Var b, Var v) {
  const Tensor& at = nodes_[a].value;
  const Tensor& bt = nodes_[b].value;
  const Tensor& vt = nodes_[v].value;
  int m = at.rows(), l = bt.rows(), d = at.cols();
  ALICOCO_CHECK(bt.cols() == d && vt.rows() == d && vt.cols() == 1)
      << "AdditiveAttention shapes";
  Tensor out_t(m, l, arena());
  // Cache tanh values for backward: row i*l + j holds tanh(a_i + b_j).
  Tensor tanh_cache(m * l, d, arena());
  for (int i = 0; i < m; ++i) {
    const float* ar = at.Row(i);
    for (int j = 0; j < l; ++j) {
      const float* br = bt.Row(j);
      float* cache = tanh_cache.Row(i * l + j);
      for (int k = 0; k < d; ++k) cache[k] = ar[k] + br[k];
    }
  }
  kernels::Tanh(tanh_cache.size(), tanh_cache.data(), tanh_cache.data());
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < l; ++j) {
      const float* cache = tanh_cache.Row(i * l + j);
      float acc = 0.0f;
      for (int k = 0; k < d; ++k) acc += vt.At(k, 0) * cache[k];
      out_t.At(i, j) = acc;
    }
  }
  Var out = NewNode(std::move(out_t));
  SetBackward(out, [this, out, a, b, v, tanh_cache = std::move(tanh_cache),
                     m, l, d] {
    const Tensor& g = nodes_[out].grad;
    const Tensor& vt2 = nodes_[v].value;
    Tensor& ag = nodes_[a].grad;
    Tensor& bg = nodes_[b].grad;
    Tensor& vg = nodes_[v].grad;
    for (int i = 0; i < m; ++i) {
      float* agr = ag.Row(i);
      for (int j = 0; j < l; ++j) {
        float gij = g.At(i, j);
        if (gij == 0.0f) continue;
        const float* cache = tanh_cache.Row(i * l + j);
        float* bgr = bg.Row(j);
        for (int k = 0; k < d; ++k) {
          float th = cache[k];
          float common = gij * vt2.At(k, 0) * (1.0f - th * th);
          agr[k] += common;
          bgr[k] += common;
          vg.At(k, 0) += gij * th;
        }
      }
    }
  });
  return out;
}

Graph::Var Graph::AffineAct(Var x, Parameter* w, Parameter* b, int act) {
  ALICOCO_DCHECK(w != nullptr && b != nullptr);
  const Tensor& xv = nodes_[x].value;
  const int rows = xv.rows(), in = xv.cols(), out_dim = w->value.cols();
  ALICOCO_DCHECK_EQ(w->value.rows(), in)
      << "Affine: x " << rows << "x" << in << " vs W " << w->value.rows()
      << "x" << out_dim;
  ALICOCO_DCHECK(b->value.rows() == 1 && b->value.cols() == out_dim)
      << "Affine: bias " << b->value.rows() << "x" << b->value.cols()
      << " for out dim " << out_dim;
  Tensor v(rows, out_dim, arena());
  kernels::GemmAccum(rows, in, out_dim, xv.data(), w->value.data(), v.data());
  switch (act) {
    case 1:
      kernels::AddBiasTanh(rows, out_dim, v.data(), b->value.data(), v.data());
      break;
    case 2:
      kernels::AddBiasRelu(rows, out_dim, v.data(), b->value.data(), v.data());
      break;
    default:
      kernels::AddBias(rows, out_dim, v.data(), b->value.data(), v.data());
      break;
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, x, w, b, act, rows, in, out_dim] {
    const Tensor& g = nodes_[out].grad;
    const Tensor& y = nodes_[out].value;
    // Pre-activation gradient (aliases g for the identity case).
    Tensor pre(arena());
    const float* gp = g.data();
    if (act != 0) {
      pre = Tensor(rows, out_dim, arena());
      float* pp = pre.data();
      const float* yp = y.data();
      if (act == 1) {
        for (size_t i = 0; i < g.size(); ++i) {
          pp[i] = g.data()[i] * (1.0f - yp[i] * yp[i]);
        }
      } else {
        for (size_t i = 0; i < g.size(); ++i) {
          pp[i] = yp[i] > 0.0f ? g.data()[i] : 0.0f;
        }
      }
      gp = pp;
    }
    const Tensor& xv2 = nodes_[x].value;
    kernels::GemmTransBAccum(rows, out_dim, in, gp, w->value.data(),
                             nodes_[x].grad.data());
    kernels::GemmTransAAccum(rows, in, out_dim, xv2.data(), gp,
                             ParamGrad(w)->data());
    float* bg = ParamGrad(b)->data();
    for (int i = 0; i < rows; ++i) {
      const float* gr = gp + static_cast<size_t>(i) * out_dim;
      for (int j = 0; j < out_dim; ++j) bg[j] += gr[j];
    }
  });
  return out;
}

Graph::Var Graph::Affine(Var x, Parameter* w, Parameter* b) {
  return AffineAct(x, w, b, 0);
}

Graph::Var Graph::AffineTanh(Var x, Parameter* w, Parameter* b) {
  return AffineAct(x, w, b, 1);
}

Graph::Var Graph::AffineRelu(Var x, Parameter* w, Parameter* b) {
  return AffineAct(x, w, b, 2);
}

Graph::Var Graph::MatMulTransB(Var a, Var b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  const int m = av.rows(), k = av.cols(), n = bv.rows();
  ALICOCO_DCHECK_EQ(bv.cols(), k)
      << "MatMulTransB shapes " << m << "x" << k << " * (" << n << "x"
      << bv.cols() << ")^T";
  Tensor v(m, n, arena());
  kernels::GemmTransBAccum(m, k, n, av.data(), bv.data(), v.data());
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, a, b, m, k, n] {
    const Tensor& g = nodes_[out].grad;
    // dA += g * B ; dB += g^T * A
    kernels::GemmAccum(m, n, k, g.data(), nodes_[b].value.data(),
                       nodes_[a].grad.data());
    kernels::GemmTransAAccum(m, n, k, g.data(), nodes_[a].value.data(),
                             nodes_[b].grad.data());
  });
  return out;
}

Graph::Var Graph::LstmStep(Var x, Var h_prev, Var c_prev, Parameter* wx,
                           Parameter* wh, Parameter* b) {
  ALICOCO_DCHECK(wx != nullptr && wh != nullptr && b != nullptr);
  const Tensor& xv = nodes_[x].value;
  const Tensor& hv = nodes_[h_prev].value;
  const Tensor& cv = nodes_[c_prev].value;
  const int rows = xv.rows(), in = xv.cols(), hidden = wh->value.rows();
  const int gate_cols = 4 * hidden;
  ALICOCO_DCHECK(wx->value.rows() == in && wx->value.cols() == gate_cols)
      << "LstmStep: Wx " << wx->value.rows() << "x" << wx->value.cols()
      << " for input " << rows << "x" << in << " hidden " << hidden;
  ALICOCO_DCHECK_EQ(wh->value.cols(), gate_cols)
      << "LstmStep: Wh " << wh->value.rows() << "x" << wh->value.cols();
  ALICOCO_DCHECK(b->value.rows() == 1 && b->value.cols() == gate_cols)
      << "LstmStep: bias " << b->value.rows() << "x" << b->value.cols();
  ALICOCO_DCHECK(hv.rows() == rows && hv.cols() == hidden)
      << "LstmStep: h_prev " << hv.rows() << "x" << hv.cols();
  ALICOCO_DCHECK(cv.rows() == rows && cv.cols() == hidden)
      << "LstmStep: c_prev " << cv.rows() << "x" << cv.cols();

  // gates = x*Wx + h_prev*Wh + b, activated in place: [i, f, o, g].
  Tensor acts(rows, gate_cols, arena());
  kernels::GemmAccum(rows, in, gate_cols, xv.data(), wx->value.data(),
                     acts.data());
  kernels::GemmAccum(rows, hidden, gate_cols, hv.data(), wh->value.data(),
                     acts.data());
  kernels::AddBias(rows, gate_cols, acts.data(), b->value.data(),
                   acts.data());
  Tensor tanh_c(rows, hidden, arena());
  Tensor v(rows, 2 * hidden, arena());  // [h_new, c_new]
  const size_t h = static_cast<size_t>(hidden);
  for (int r = 0; r < rows; ++r) {
    float* gate = acts.Row(r);
    const float* cprev = cv.Row(r);
    float* tc = tanh_c.Row(r);
    float* vr = v.Row(r);
    const float* i_g = gate;
    const float* f_g = gate + hidden;
    const float* o_g = gate + 2 * hidden;
    float* g_g = gate + 3 * hidden;
    float* c_new = vr + hidden;
    for (int j = 0; j < 3 * hidden; ++j) gate[j] = SigmoidOf(gate[j]);
    kernels::Tanh(h, g_g, g_g);
    for (int j = 0; j < hidden; ++j) {
      c_new[j] = f_g[j] * cprev[j] + i_g[j] * g_g[j];
    }
    kernels::Tanh(h, c_new, tc);
    for (int j = 0; j < hidden; ++j) vr[j] = o_g[j] * tc[j];  // h
  }
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, x, h_prev, c_prev, wx, wh, b,
                     acts = std::move(acts), tanh_c = std::move(tanh_c), rows,
                     in, hidden, gate_cols] {
    const Tensor& g = nodes_[out].grad;
    const Tensor& xv2 = nodes_[x].value;
    const Tensor& hv2 = nodes_[h_prev].value;
    const Tensor& cv2 = nodes_[c_prev].value;
    Tensor dgates(rows, gate_cols, arena());
    Tensor& cg = nodes_[c_prev].grad;
    for (int r = 0; r < rows; ++r) {
      const float* gr = g.Row(r);
      const float* gate = acts.Row(r);
      const float* tc = tanh_c.Row(r);
      const float* cprev = cv2.Row(r);
      float* dg = dgates.Row(r);
      float* cgr = cg.Row(r);
      for (int j = 0; j < hidden; ++j) {
        const float i_g = gate[j];
        const float f_g = gate[hidden + j];
        const float o_g = gate[2 * hidden + j];
        const float g_g = gate[3 * hidden + j];
        const float dh = gr[j];
        const float dc = gr[hidden + j] + dh * o_g * (1.0f - tc[j] * tc[j]);
        dg[j] = dc * g_g * i_g * (1.0f - i_g);
        dg[hidden + j] = dc * cprev[j] * f_g * (1.0f - f_g);
        dg[2 * hidden + j] = dh * tc[j] * o_g * (1.0f - o_g);
        dg[3 * hidden + j] = dc * i_g * (1.0f - g_g * g_g);
        cgr[j] += dc * f_g;
      }
    }
    kernels::GemmTransBAccum(rows, gate_cols, in, dgates.data(),
                             wx->value.data(), nodes_[x].grad.data());
    kernels::GemmTransBAccum(rows, gate_cols, hidden, dgates.data(),
                             wh->value.data(), nodes_[h_prev].grad.data());
    kernels::GemmTransAAccum(rows, in, gate_cols, xv2.data(), dgates.data(),
                             ParamGrad(wx)->data());
    kernels::GemmTransAAccum(rows, hidden, gate_cols, hv2.data(),
                             dgates.data(), ParamGrad(wh)->data());
    float* bg = ParamGrad(b)->data();
    for (int r = 0; r < rows; ++r) {
      const float* dg = dgates.Row(r);
      for (int j = 0; j < gate_cols; ++j) bg[j] += dg[j];
    }
  });
  return out;
}

Graph::Var Graph::SigmoidCrossEntropyWithLogits(Var logits,
                                                 const Tensor& targets) {
  const Tensor& x = nodes_[logits].value;
  ALICOCO_CHECK(x.SameShape(targets));
  // loss = mean( max(x,0) - x*z + log(1+exp(-|x|)) )
  Tensor v(1, 1, arena());
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    float xi = x.data()[i];
    float zi = targets.data()[i];
    acc += std::max(xi, 0.0f) - xi * zi +
           std::log1p(std::exp(-std::fabs(xi)));
  }
  v.At(0, 0) = static_cast<float>(acc / static_cast<double>(x.size()));
  Var out = NewNode(std::move(v));
  SetBackward(out, [this, out, logits, tgt = Tensor(targets, arena())] {
    float g = nodes_[out].grad.At(0, 0) /
              static_cast<float>(tgt.size());
    const Tensor& x2 = nodes_[logits].value;
    Tensor& lg = nodes_[logits].grad;
    for (size_t i = 0; i < x2.size(); ++i) {
      lg.data()[i] += g * (SigmoidOf(x2.data()[i]) - tgt.data()[i]);
    }
  });
  return out;
}

}  // namespace alicoco::nn
