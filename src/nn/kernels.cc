#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace alicoco::nn::kernels {

namespace scalar {
namespace {

// Register tile: the micro-kernel accumulates a kMr x kNr patch of C in
// locals across the whole k pass (the compiler turns the fixed-width inner
// loops into SIMD accumulators), so C traffic is one load + one store per
// panel instead of one per k step. Cache tiles keep the active B panel
// (kKc x kNc floats) L1/L2-resident for large shapes while adding no
// overhead for the small ones the models use.
constexpr int kMr = 4;
constexpr int kNr = 8;
constexpr int kKc = 128;
constexpr int kNc = 128;

// C tile [R x kNr] at c0 += A rows [R x kb] at a0 * B panel at b0.
template <int R>
inline void MicroTile(int kb, const float* __restrict a0, int lda,
                      const float* __restrict b0, int ldb,
                      float* __restrict c0, int ldc) {
  float acc[R][kNr];
  for (int r = 0; r < R; ++r) {
    for (int j = 0; j < kNr; ++j) acc[r][j] = c0[r * ldc + j];
  }
  for (int p = 0; p < kb; ++p) {
    const float* __restrict br = b0 + static_cast<long>(p) * ldb;
    for (int r = 0; r < R; ++r) {
      const float av = a0[r * lda + p];
      for (int j = 0; j < kNr; ++j) acc[r][j] += av * br[j];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int j = 0; j < kNr; ++j) c0[r * ldc + j] = acc[r][j];
  }
}

// Ragged edge: rows < kMr and/or nb < kNr, accumulators still hoisted out
// of the k loop (variable-width, so scalar code — at most kMr*kNr locals).
inline void MicroEdge(int rows, int kb, int nb, const float* __restrict a0,
                      int lda, const float* __restrict b0, int ldb,
                      float* __restrict c0, int ldc) {
  float acc[kMr][kNr];
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < nb; ++j) acc[r][j] = c0[r * ldc + j];
  }
  for (int p = 0; p < kb; ++p) {
    const float* __restrict br = b0 + static_cast<long>(p) * ldb;
    for (int r = 0; r < rows; ++r) {
      const float av = a0[r * lda + p];
      for (int j = 0; j < nb; ++j) acc[r][j] += av * br[j];
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < nb; ++j) c0[r * ldc + j] = acc[r][j];
  }
}

// One panel: C [rows x nb] += A [rows x kb] * B [kb x nb], j chunked by
// the register tile width.
inline void MicroPanel(int rows, int kb, int nb, const float* __restrict a0,
                       int lda, const float* __restrict b0, int ldb,
                       float* __restrict c0, int ldc) {
  int j = 0;
  if (rows == kMr) {
    for (; j + kNr <= nb; j += kNr) {
      MicroTile<kMr>(kb, a0, lda, b0 + j, ldb, c0 + j, ldc);
    }
  } else {
    for (; j + kNr <= nb; j += kNr) {
      MicroEdge(rows, kb, kNr, a0, lda, b0 + j, ldb, c0 + j, ldc);
    }
  }
  if (j < nb) MicroEdge(rows, kb, nb - j, a0, lda, b0 + j, ldb, c0 + j, ldc);
}

}  // namespace

void GemmAccum(int m, int k, int n, const float* a, const float* b, float* c) {
  if (k <= kKc && n <= kNc) {
    // The whole problem is one cache tile (the common case for the model
    // dims in this repo); go straight to the micro-kernels.
    for (int i0 = 0; i0 < m; i0 += kMr) {
      const int rows = std::min(kMr, m - i0);
      MicroPanel(rows, k, n, a + static_cast<long>(i0) * k, k, b, n,
                 c + static_cast<long>(i0) * n, n);
    }
    return;
  }
  for (int j0 = 0; j0 < n; j0 += kNc) {
    const int nb = std::min(kNc, n - j0);
    for (int p0 = 0; p0 < k; p0 += kKc) {
      const int kb = std::min(kKc, k - p0);
      const float* bpanel = b + static_cast<long>(p0) * n + j0;
      for (int i0 = 0; i0 < m; i0 += kMr) {
        const int rows = std::min(kMr, m - i0);
        MicroPanel(rows, kb, nb, a + static_cast<long>(i0) * k + p0, k,
                   bpanel, n, c + static_cast<long>(i0) * n + j0, n);
      }
    }
  }
}

void GemmTransBAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  // C[i][j] += dot(A row i, B row j). Four j's at a time: four independent
  // accumulator chains per pass over k.
  for (int i = 0; i < m; ++i) {
    const float* __restrict ar = a + static_cast<long>(i) * k;
    float* __restrict cr = c + static_cast<long>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict b0 = b + static_cast<long>(j) * k;
      const float* __restrict b1 = b0 + k;
      const float* __restrict b2 = b1 + k;
      const float* __restrict b3 = b2 + k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = ar[p];
        acc0 += av * b0[p];
        acc1 += av * b1[p];
        acc2 += av * b2[p];
        acc3 += av * b3[p];
      }
      cr[j] += acc0;
      cr[j + 1] += acc1;
      cr[j + 2] += acc2;
      cr[j + 3] += acc3;
    }
    for (; j < n; ++j) {
      const float* __restrict br = b + static_cast<long>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += ar[p] * br[p];
      cr[j] += acc;
    }
  }
}

void GemmTransAAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  // C (k x n) += A^T * B: rank-1 updates per row of A/B, with the k
  // dimension register-tiled so each loaded B row feeds kMr C rows.
  for (int i = 0; i < m; ++i) {
    const float* __restrict ar = a + static_cast<long>(i) * k;
    const float* __restrict br = b + static_cast<long>(i) * n;
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const float av0 = ar[p];
      const float av1 = ar[p + 1];
      const float av2 = ar[p + 2];
      const float av3 = ar[p + 3];
      float* __restrict cr0 = c + static_cast<long>(p) * n;
      float* __restrict cr1 = cr0 + n;
      float* __restrict cr2 = cr1 + n;
      float* __restrict cr3 = cr2 + n;
      for (int j = 0; j < n; ++j) {
        const float bv = br[j];
        cr0[j] += av0 * bv;
        cr1[j] += av1 * bv;
        cr2[j] += av2 * bv;
        cr3[j] += av3 * bv;
      }
    }
    for (; p < k; ++p) {
      const float av = ar[p];
      float* __restrict cr = c + static_cast<long>(p) * n;
      for (int j = 0; j < n; ++j) cr[j] += av * br[j];
    }
  }
}

// `out` may alias `x` (the fused affine ops apply the bias in place), so
// only `bias` carries __restrict; the loops stay vectorizable because each
// element depends solely on its own index.
void AddBias(int rows, int cols, const float* x,
             const float* __restrict bias, float* out) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<long>(i) * cols;
    float* or_ = out + static_cast<long>(i) * cols;
    for (int j = 0; j < cols; ++j) or_[j] = xr[j] + bias[j];
  }
}

void AddBiasTanh(int rows, int cols, const float* x,
                 const float* __restrict bias, float* out) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<long>(i) * cols;
    float* or_ = out + static_cast<long>(i) * cols;
    for (int j = 0; j < cols; ++j) or_[j] = std::tanh(xr[j] + bias[j]);
  }
}

void AddBiasRelu(int rows, int cols, const float* x,
                 const float* __restrict bias, float* out) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<long>(i) * cols;
    float* or_ = out + static_cast<long>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      const float v = xr[j] + bias[j];
      or_[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

void AddInto(size_t n, const float* x, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

// fp-contract=off: on a target with FMA the compiler would otherwise fuse
// the multiply-adds and leave the order the AVX2 tier reproduces.
__attribute__((optimize("fp-contract=off"))) void AdamUpdate(
    size_t n, const float* g, float* m, float* v, float* w,
    const AdamCoeffs& c) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = c.beta1 * m[i] + c.one_minus_beta1 * g[i];
    v[i] = c.beta2 * v[i] + c.one_minus_beta2 * g[i] * g[i];
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    w[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

}  // namespace scalar

// ---- dispatch ------------------------------------------------------------

namespace {

constexpr KernelDispatch kScalarTable = {
    "scalar",
    scalar::GemmAccum,
    scalar::GemmTransBAccum,
    scalar::GemmTransAAccum,
    scalar::AddBias,
    scalar::AddBiasTanh,
    scalar::AddBiasRelu,
    scalar::AddInto,
    scalar::AdamUpdate,
};

// The CPUID-selected default, resolved once. ALICOCO_SIMD=scalar pins the
// portable tier (CI coverage of the fallback on AVX2 hosts).
const KernelDispatch* DetectTable() {
  const char* env = std::getenv("ALICOCO_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return &kScalarTable;
  }
  const KernelDispatch* simd = avx2::Table();
  return simd != nullptr ? simd : &kScalarTable;
}

std::atomic<const KernelDispatch*>& ActiveSlot() {
  static std::atomic<const KernelDispatch*> slot{DetectTable()};
  return slot;
}

}  // namespace

const KernelDispatch& ActiveKernels() {
  return *ActiveSlot().load(std::memory_order_relaxed);
}

const char* ActiveKernelTier() { return ActiveKernels().tier; }

void ForceScalarKernels(bool force) {
  ActiveSlot().store(force ? &kScalarTable : DetectTable(),
                     std::memory_order_relaxed);
}

bool KernelsHaveAvx2() { return avx2::Table() != nullptr; }

void GemmAccum(int m, int k, int n, const float* a, const float* b,
               float* c) {
  ActiveKernels().gemm(m, k, n, a, b, c);
}

void GemmTransBAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  ActiveKernels().gemm_transb(m, k, n, a, b, c);
}

void GemmTransAAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  ActiveKernels().gemm_transa(m, k, n, a, b, c);
}

void AddBias(int rows, int cols, const float* x, const float* bias,
             float* out) {
  ActiveKernels().add_bias(rows, cols, x, bias, out);
}

void AddBiasTanh(int rows, int cols, const float* x, const float* bias,
                 float* out) {
  ActiveKernels().add_bias_tanh(rows, cols, x, bias, out);
}

void AddBiasRelu(int rows, int cols, const float* x, const float* bias,
                 float* out) {
  ActiveKernels().add_bias_relu(rows, cols, x, bias, out);
}

void AddInto(size_t n, const float* x, float* y) {
  ActiveKernels().add_into(n, x, y);
}

void AdamUpdate(size_t n, const float* g, float* m, float* v, float* w,
                const AdamCoeffs& c) {
  ActiveKernels().adam_update(n, g, m, v, w, c);
}

// ---- naive reference -----------------------------------------------------

namespace naive {

// Starts on a 64-byte line, so where its inner loop falls relative to cache
// lines does not depend on where the linker puts this object. On a Xeon
// host the kernel smoke suite's gemm_naive_64 read 1.4-1.8x slower when a
// link order left the loop straddling two lines.
__attribute__((aligned(64))) void GemmAccum(int m, int k, int n,
                                            const float* a, const float* b,
                                            float* c) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<long>(i) * k;
    float* crow = c + static_cast<long>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      const float* brow = b + static_cast<long>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmTransBAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<long>(i) * k;
    float* crow = c + static_cast<long>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<long>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void GemmTransAAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<long>(i) * k;
    const float* brow = b + static_cast<long>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      float* crow = c + static_cast<long>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace naive

}  // namespace alicoco::nn::kernels
