// Graph::Tanh, AdditiveAttention and LstmStep take every tanh from
// nn::kernels::Tanh. The per-element loops they ran before are kept here as
// the reference, with each tanh taken one value at a time by scalar::Tanh
// (fdlibm's tanhf). Values and the gradients of every input and parameter
// must match bit for bit, on the CPUID-selected tier and on the forced
// scalar one, at widths that are not multiples of the kernel's 8 lanes.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/graph.h"
#include "nn/kernels.h"

namespace alicoco::nn {
namespace {

float RefTanh(float x) {
  float y;
  kernels::scalar::Tanh(1, &x, &y);
  return y;
}

float RefSigmoid(float z) {
  return z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                   : std::exp(z) / (1.0f + std::exp(z));
}

Tensor RandomTensor(int rows, int cols, float scale, Rng* rng) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng->UniformFloat(-scale, scale);
  }
  return t;
}

void ExpectSameBits(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_TRUE(want.SameShape(got)) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<uint32_t>(want.data()[i]) !=
        std::bit_cast<uint32_t>(got.data()[i])) {
      ADD_FAILURE() << what << " differs at " << i << ": want "
                    << want.data()[i] << ", got " << got.data()[i];
      return;
    }
  }
}

// loss = sum(out .* upstream), so Backward hands `out` exactly `upstream`
// as its gradient.
void BackwardWith(Graph* g, Graph::Var out, const Tensor& upstream) {
  g->Backward(g->SumAll(g->Mul(out, g->Input(upstream))));
}

// Runs `check` on the CPUID-selected tier, then on the scalar one.
template <typename F>
void OnEveryTier(F check) {
  for (bool force_scalar : {false, true}) {
    kernels::ForceScalarKernels(force_scalar);
    SCOPED_TRACE(kernels::ActiveKernelTier());
    check();
  }
  kernels::ForceScalarKernels(false);
}

TEST(TanhOpsExactnessTest, GraphTanhMatchesThePerElementLoop) {
  OnEveryTier([] {
    Rng rng(61);
    const std::pair<int, int> kShapes[] = {
        {1, 1}, {3, 10}, {1, 18}, {5, 24}, {7, 9}};
    for (auto [rows, cols] : kShapes) {
      const Tensor x = RandomTensor(rows, cols, 4.0f, &rng);
      const Tensor up = RandomTensor(rows, cols, 1.0f, &rng);
      Tensor want_y(rows, cols), want_dx(rows, cols);
      for (size_t i = 0; i < x.size(); ++i) {
        want_y.data()[i] = RefTanh(x.data()[i]);
      }
      for (size_t i = 0; i < x.size(); ++i) {
        const float yi = want_y.data()[i];
        want_dx.data()[i] += up.data()[i] * (1.0f - yi * yi);
      }
      Graph g;
      Graph::Var xv = g.Input(x);
      Graph::Var y = g.Tanh(xv);
      BackwardWith(&g, y, up);
      const std::string shape =
          std::to_string(rows) + "x" + std::to_string(cols);
      ExpectSameBits(want_y, g.Value(y), "value " + shape);
      ExpectSameBits(want_dx, g.Grad(xv), "dx " + shape);
    }
  });
}

TEST(TanhOpsExactnessTest, AdditiveAttentionMatchesThePerElementLoops) {
  OnEveryTier([] {
    Rng rng(62);
    for (int d : {10, 18, 24}) {
      for (int m = 1; m <= 6; ++m) {
        for (int l = 1; l <= 6; ++l) {
          const Tensor a = RandomTensor(m, d, 1.5f, &rng);
          const Tensor b = RandomTensor(l, d, 1.5f, &rng);
          const Tensor up = RandomTensor(m, l, 1.0f, &rng);
          ParameterStore store;
          Parameter* v = store.Create("v", d, 1,
                                      ParameterStore::Init::kGaussian, &rng,
                                      0.5f);
          const Tensor& vt = v->value;

          Tensor want(m, l), want_da(m, d), want_db(l, d), want_dv(d, 1);
          Tensor cache(m * l, d);
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < l; ++j) {
              float acc = 0.0f;
              float* c = cache.Row(i * l + j);
              for (int k = 0; k < d; ++k) {
                float th = RefTanh(a.At(i, k) + b.At(j, k));
                c[k] = th;
                acc += vt.At(k, 0) * th;
              }
              want.At(i, j) = acc;
            }
          }
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < l; ++j) {
              float gij = up.At(i, j);
              if (gij == 0.0f) continue;
              const float* c = cache.Row(i * l + j);
              for (int k = 0; k < d; ++k) {
                float th = c[k];
                float common = gij * vt.At(k, 0) * (1.0f - th * th);
                want_da.At(i, k) += common;
                want_db.At(j, k) += common;
                want_dv.At(k, 0) += gij * th;
              }
            }
          }

          Graph g;
          Graph::Var av = g.Input(a);
          Graph::Var bv = g.Input(b);
          Graph::Var out = g.AdditiveAttention(av, bv, g.Use(v));
          BackwardWith(&g, out, up);
          const std::string shape = std::to_string(m) + "x" +
                                    std::to_string(l) + "x" +
                                    std::to_string(d);
          ExpectSameBits(want, g.Value(out), "value " + shape);
          ExpectSameBits(want_da, g.Grad(av), "da " + shape);
          ExpectSameBits(want_db, g.Grad(bv), "db " + shape);
          ExpectSameBits(want_dv, v->grad, "dv " + shape);
        }
      }
    }
  });
}

TEST(TanhOpsExactnessTest, LstmStepMatchesThePerElementLoops) {
  OnEveryTier([] {
    Rng rng(63);
    const int in = 7;
    for (int hidden : {10, 18, 24}) {
      for (int rows : {1, 3}) {
        const int gate_cols = 4 * hidden;
        ParameterStore store;
        Parameter* wx = store.Create("wx", in, gate_cols,
                                     ParameterStore::Init::kXavier, &rng);
        Parameter* wh = store.Create("wh", hidden, gate_cols,
                                     ParameterStore::Init::kXavier, &rng);
        Parameter* b = store.Create("b", 1, gate_cols,
                                    ParameterStore::Init::kGaussian, &rng,
                                    0.5f);
        const Tensor x = RandomTensor(rows, in, 1.5f, &rng);
        const Tensor h_prev = RandomTensor(rows, hidden, 1.0f, &rng);
        const Tensor c_prev = RandomTensor(rows, hidden, 2.0f, &rng);
        const Tensor up = RandomTensor(rows, 2 * hidden, 1.0f, &rng);

        // Forward: gates = x*Wx + h_prev*Wh + b, activated per element.
        Tensor acts(rows, gate_cols);
        kernels::GemmAccum(rows, in, gate_cols, x.data(), wx->value.data(),
                           acts.data());
        kernels::GemmAccum(rows, hidden, gate_cols, h_prev.data(),
                           wh->value.data(), acts.data());
        kernels::AddBias(rows, gate_cols, acts.data(), b->value.data(),
                         acts.data());
        Tensor tanh_c(rows, hidden), want(rows, 2 * hidden);
        for (int r = 0; r < rows; ++r) {
          float* gate = acts.Row(r);
          for (int j = 0; j < gate_cols; ++j) {
            const float z = gate[j];
            gate[j] = j < 3 * hidden ? RefSigmoid(z) : RefTanh(z);
          }
          for (int j = 0; j < hidden; ++j) {
            const float c_new = gate[hidden + j] * c_prev.At(r, j) +
                                gate[j] * gate[3 * hidden + j];
            tanh_c.At(r, j) = RefTanh(c_new);
            want.At(r, j) = gate[2 * hidden + j] * tanh_c.At(r, j);
            want.At(r, hidden + j) = c_new;
          }
        }
        // Backward, with `up` as the output gradient.
        Tensor dgates(rows, gate_cols), want_dx(rows, in);
        Tensor want_dh(rows, hidden), want_dc(rows, hidden);
        Tensor want_dwx(in, gate_cols), want_dwh(hidden, gate_cols);
        Tensor want_db(1, gate_cols);
        for (int r = 0; r < rows; ++r) {
          const float* gate = acts.Row(r);
          const float* tc = tanh_c.Row(r);
          float* dg = dgates.Row(r);
          for (int j = 0; j < hidden; ++j) {
            const float i_g = gate[j];
            const float f_g = gate[hidden + j];
            const float o_g = gate[2 * hidden + j];
            const float g_g = gate[3 * hidden + j];
            const float dh = up.At(r, j);
            const float dc =
                up.At(r, hidden + j) + dh * o_g * (1.0f - tc[j] * tc[j]);
            dg[j] = dc * g_g * i_g * (1.0f - i_g);
            dg[hidden + j] = dc * c_prev.At(r, j) * f_g * (1.0f - f_g);
            dg[2 * hidden + j] = dh * tc[j] * o_g * (1.0f - o_g);
            dg[3 * hidden + j] = dc * i_g * (1.0f - g_g * g_g);
            want_dc.At(r, j) += dc * f_g;
          }
        }
        kernels::GemmTransBAccum(rows, gate_cols, in, dgates.data(),
                                 wx->value.data(), want_dx.data());
        kernels::GemmTransBAccum(rows, gate_cols, hidden, dgates.data(),
                                 wh->value.data(), want_dh.data());
        kernels::GemmTransAAccum(rows, in, gate_cols, x.data(), dgates.data(),
                                 want_dwx.data());
        kernels::GemmTransAAccum(rows, hidden, gate_cols, h_prev.data(),
                                 dgates.data(), want_dwh.data());
        for (int r = 0; r < rows; ++r) {
          for (int j = 0; j < gate_cols; ++j) {
            want_db.At(0, j) += dgates.At(r, j);
          }
        }

        Graph g;
        Graph::Var xv = g.Input(x);
        Graph::Var hv = g.Input(h_prev);
        Graph::Var cv = g.Input(c_prev);
        Graph::Var out = g.LstmStep(xv, hv, cv, wx, wh, b);
        BackwardWith(&g, out, up);
        const std::string shape =
            "rows " + std::to_string(rows) + " hidden " +
            std::to_string(hidden);
        ExpectSameBits(want, g.Value(out), "value " + shape);
        ExpectSameBits(want_dx, g.Grad(xv), "dx " + shape);
        ExpectSameBits(want_dh, g.Grad(hv), "dh_prev " + shape);
        ExpectSameBits(want_dc, g.Grad(cv), "dc_prev " + shape);
        ExpectSameBits(want_dwx, wx->grad, "dWx " + shape);
        ExpectSameBits(want_dwh, wh->grad, "dWh " + shape);
        ExpectSameBits(want_db, b->grad, "db " + shape);
      }
    }
  });
}

}  // namespace
}  // namespace alicoco::nn
