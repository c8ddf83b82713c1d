#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
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
    for (int j = 0; j < cols; ++j) or_[j] = xr[j] + bias[j];
    Tanh(static_cast<size_t>(cols), or_, or_);
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

// ---- tanh ----------------------------------------------------------------
//
// A port of fdlibm's tanhf and expm1f (s_tanhf.c, s_expm1f.c), the
// functions glibc ships. Float operations only, in fdlibm's order, with
// contraction off: the AVX2 tier repeats these operations lane by lane.
//
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

namespace {

constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
// Scaled coefficients of expm1's rational approximation.
constexpr float kQ1 = -3.3333335072e-02f;  // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;   // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;  // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;   // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;  // 0xb457edbb
static_assert(std::bit_cast<uint32_t>(kLn2Hi) == 0x3f317180u &&
              std::bit_cast<uint32_t>(kLn2Lo) == 0x3717f7d1u &&
              std::bit_cast<uint32_t>(kInvLn2) == 0x3fb8aa3bu &&
              std::bit_cast<uint32_t>(kQ1) == 0xbd088889u &&
              std::bit_cast<uint32_t>(kQ2) == 0x3ad00d01u &&
              std::bit_cast<uint32_t>(kQ3) == 0xb8a670cdu &&
              std::bit_cast<uint32_t>(kQ4) == 0x36867e54u &&
              std::bit_cast<uint32_t>(kQ5) == 0xb457edbbu);

// y * 2^k, by adding k to y's exponent field.
inline float AddToExponent(float y, int32_t k) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(y) +
                              (static_cast<uint32_t>(k) << 23));
}

// expm1f for the arguments tanhf passes, which lie in (-2, 44): there
// fdlibm's filter for NaN, infinities, overflow and x < -27 ln2 never
// fires, so it is left out.
__attribute__((optimize("fp-contract=off"))) float Expm1f(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  const bool negative = (bits >> 31) != 0;
  const uint32_t hx = bits & 0x7fffffffu;
  int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2: reduce x to x - k ln2
    float hi = 0.0f, lo = 0.0f;
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: expm1(x) rounds to x
    return x;
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return 1.0f + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    return AddToExponent(1.0f - (e - x), k) - 1.0f;
  }
  if (k < 23) {
    const float one_minus = std::bit_cast<float>(
        0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return AddToExponent(one_minus - (e - x), k);
  }
  const float two_to_minus_k =
      std::bit_cast<float>(static_cast<uint32_t>(0x7f - k) << 23);
  return AddToExponent((x - (e + two_to_minus_k)) + 1.0f, k);
}

__attribute__((optimize("fp-contract=off"))) float TanhOne(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  const bool negative = (bits >> 31) != 0;
  const uint32_t ix = bits & 0x7fffffffu;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z = 1.0f - 1.0e-30f;  // |x| >= 22: +-1, inexact
  if (ix < 0x41b00000u) {      // |x| < 22
    if (ix == 0) return x;     // +-0
    if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {                      // |x| >= 1
      const float t = Expm1f(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1f(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  }
  return negative ? -z : z;
}

}  // namespace

__attribute__((optimize("fp-contract=off"))) void Tanh(size_t n,
                                                      const float* x,
                                                      float* y) {
  for (size_t i = 0; i < n; ++i) y[i] = TanhOne(x[i]);
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
    scalar::Tanh,
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

void Tanh(size_t n, const float* x, float* y) {
  ActiveKernels().tanh(n, x, y);
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
