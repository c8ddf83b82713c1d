// AVX2 + FMA tier of the kernel dispatch table (see kernels.h).
// Compiled with -mavx2 -mfma for this TU only; Table() gates on
// CPUID at runtime so the binary stays runnable on pre-AVX2 hardware.
// All memory access uses unaligned loads/stores (loadu/storeu discipline)
// — tensor buffers are plain std::vector allocations with no alignment
// guarantee beyond what the allocator gives.
#include "nn/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace alicoco::nn::kernels::avx2 {
namespace {

// ---- fp32 GEMM: C += A * B ----------------------------------------------
//
// Register tile: ROWS x 16 floats of C in ymm accumulators held across the
// whole k pass. ROWS=4 uses 8 accumulator registers + 2 B registers + 1
// broadcast, comfortably inside the 16 ymm registers.

template <int ROWS>
inline void GemmTile16(int k, const float* a, int lda, const float* b,
                       int ldb, float* c, int ldc) {
  __m256 acc0[ROWS], acc1[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc0[r] = _mm256_loadu_ps(c + r * ldc);
    acc1[r] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (int p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + static_cast<long>(p) * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + static_cast<long>(p) * ldb + 8);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc0[r]);
    _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
  }
}

template <int ROWS>
inline void GemmTile8(int k, const float* a, int lda, const float* b,
                      int ldb, float* c, int ldc) {
  __m256 acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc);
  for (int p = 0; p < k; ++p) {
    const __m256 bv = _mm256_loadu_ps(b + static_cast<long>(p) * ldb);
    for (int r = 0; r < ROWS; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), bv,
                               acc[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) _mm256_storeu_ps(c + r * ldc, acc[r]);
}

// Scalar tail columns (n % 8) for a block of ROWS rows.
inline void GemmTailCols(int rows, int k, int n0, int n, const float* a,
                         int lda, const float* b, int ldb, float* c,
                         int ldc) {
  for (int r = 0; r < rows; ++r) {
    for (int j = n0; j < n; ++j) {
      float acc = c[r * ldc + j];
      for (int p = 0; p < k; ++p) {
        acc += a[r * lda + p] * b[static_cast<long>(p) * ldb + j];
      }
      c[r * ldc + j] = acc;
    }
  }
}

template <int ROWS>
inline void GemmRowBlock(int k, int n, const float* a, int lda,
                         const float* b, int ldb, float* c, int ldc) {
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    GemmTile16<ROWS>(k, a, lda, b + j, ldb, c + j, ldc);
  }
  if (j + 8 <= n) {
    GemmTile8<ROWS>(k, a, lda, b + j, ldb, c + j, ldc);
    j += 8;
  }
  if (j < n) GemmTailCols(ROWS, k, j, n, a, lda, b, ldb, c, ldc);
}

void GemmAccum(int m, int k, int n, const float* a, const float* b,
               float* c) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmRowBlock<4>(k, n, a + static_cast<long>(i) * k, k, b, n,
                    c + static_cast<long>(i) * n, n);
  }
  switch (m - i) {
    case 3:
      GemmRowBlock<3>(k, n, a + static_cast<long>(i) * k, k, b, n,
                      c + static_cast<long>(i) * n, n);
      break;
    case 2:
      GemmRowBlock<2>(k, n, a + static_cast<long>(i) * k, k, b, n,
                      c + static_cast<long>(i) * n, n);
      break;
    case 1:
      GemmRowBlock<1>(k, n, a + static_cast<long>(i) * k, k, b, n,
                      c + static_cast<long>(i) * n, n);
      break;
    default:
      break;
  }
}

// ---- fp32 GEMM, B transposed: C[i][j] += dot(A row i, B row j) ----------

inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

void GemmTransBAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<long>(i) * k;
    float* cr = c + static_cast<long>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + static_cast<long>(j) * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      __m256 s0 = _mm256_setzero_ps();
      __m256 s1 = _mm256_setzero_ps();
      __m256 s2 = _mm256_setzero_ps();
      __m256 s3 = _mm256_setzero_ps();
      int p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m256 av = _mm256_loadu_ps(ar + p);
        s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + p), s0);
        s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + p), s1);
        s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + p), s2);
        s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + p), s3);
      }
      float acc0 = HSum(s0), acc1 = HSum(s1), acc2 = HSum(s2),
            acc3 = HSum(s3);
      for (; p < k; ++p) {
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
      const float* br = b + static_cast<long>(j) * k;
      __m256 s = _mm256_setzero_ps();
      int p = 0;
      for (; p + 8 <= k; p += 8) {
        s = _mm256_fmadd_ps(_mm256_loadu_ps(ar + p), _mm256_loadu_ps(br + p),
                            s);
      }
      float acc = HSum(s);
      for (; p < k; ++p) acc += ar[p] * br[p];
      cr[j] += acc;
    }
  }
}

// ---- fp32 GEMM, A transposed: C (k x n) += A^T * B ----------------------

void GemmTransAAccum(int m, int k, int n, const float* a, const float* b,
                     float* c) {
  for (int i = 0; i < m; ++i) {
    const float* ar = a + static_cast<long>(i) * k;
    const float* br = b + static_cast<long>(i) * n;
    for (int p = 0; p < k; ++p) {
      const __m256 av = _mm256_broadcast_ss(ar + p);
      float* cr = c + static_cast<long>(p) * n;
      int j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            cr + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(br + j),
                                    _mm256_loadu_ps(cr + j)));
      }
      const float avs = ar[p];
      for (; j < n; ++j) cr[j] += avs * br[j];
    }
  }
}

// ---- fused bias + activation --------------------------------------------

// Vectorized tanh via the rational polynomial from Eigen/Cephes
// (numerator degree 13 odd / denominator degree 6 even), accurate to a
// few ULP across the clamped range — the fused-op tests compare against
// std::tanh at 1e-6. Only AddBiasTanh's 8-wide blocks use it; every other
// tanh runs Tanh below, which equals the scalar tier bit for bit.
inline __m256 TanhPs(__m256 x) {
  const __m256 kClamp = _mm256_set1_ps(7.90531110763549805f);
  x = _mm256_max_ps(_mm256_min_ps(x, kClamp),
                    _mm256_sub_ps(_mm256_setzero_ps(), kClamp));
  const __m256 x2 = _mm256_mul_ps(x, x);

  __m256 p = _mm256_set1_ps(-2.76076847742355e-16f);
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(2.00018790482477e-13f));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(-8.60467152213735e-11f));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(5.12229709037114e-08f));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(1.48572235717979e-05f));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(6.37261928875436e-04f));
  p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(4.89352455891786e-03f));
  p = _mm256_mul_ps(p, x);

  __m256 q = _mm256_set1_ps(1.19825839466702e-06f);
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(1.18534705686654e-04f));
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(2.26843463243900e-03f));
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(4.89352518554385e-03f));

  return _mm256_div_ps(p, q);
}

void AddBias(int rows, int cols, const float* x, const float* bias,
             float* out) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<long>(i) * cols;
    float* or_ = out + static_cast<long>(i) * cols;
    int j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(or_ + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                              _mm256_loadu_ps(bias + j)));
    }
    for (; j < cols; ++j) or_[j] = xr[j] + bias[j];
  }
}

void AddBiasTanh(int rows, int cols, const float* x, const float* bias,
                 float* out) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<long>(i) * cols;
    float* or_ = out + static_cast<long>(i) * cols;
    int j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(or_ + j,
                       TanhPs(_mm256_add_ps(_mm256_loadu_ps(xr + j),
                                            _mm256_loadu_ps(bias + j))));
    }
    for (int c = j; c < cols; ++c) or_[c] = xr[c] + bias[c];
    scalar::Tanh(static_cast<size_t>(cols - j), or_ + j, or_ + j);
  }
}

void AddBiasRelu(int rows, int cols, const float* x, const float* bias,
                 float* out) {
  const __m256 zero = _mm256_setzero_ps();
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<long>(i) * cols;
    float* or_ = out + static_cast<long>(i) * cols;
    int j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(
          or_ + j, _mm256_max_ps(_mm256_add_ps(_mm256_loadu_ps(xr + j),
                                               _mm256_loadu_ps(bias + j)),
                                 zero));
    }
    for (; j < cols; ++j) {
      const float v = xr[j] + bias[j];
      or_[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

// ---- elementwise parameter sweep ----------------------------------------
//
// Both must equal the scalar tier bit for bit. Each lane issues the scalar
// loop's IEEE operations in its order (div and sqrt are correctly rounded
// in both forms), and fp-contract=off stops -mfma from fusing
// _mm256_add_ps(_mm256_mul_ps(...)) into a vfmadd, which rounds once
// instead of twice.

void AddInto(size_t n, const float* x, float* y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                          _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

__attribute__((optimize("fp-contract=off"))) void AdamUpdate(
    size_t n, const float* g, float* m, float* v, float* w,
    const AdamCoeffs& c) {
  const __m256 beta1 = _mm256_set1_ps(c.beta1);
  const __m256 one_minus_beta1 = _mm256_set1_ps(c.one_minus_beta1);
  const __m256 beta2 = _mm256_set1_ps(c.beta2);
  const __m256 one_minus_beta2 = _mm256_set1_ps(c.one_minus_beta2);
  const __m256 bc1 = _mm256_set1_ps(c.bc1);
  const __m256 bc2 = _mm256_set1_ps(c.bc2);
  const __m256 lr = _mm256_set1_ps(c.lr);
  const __m256 eps = _mm256_set1_ps(c.eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(one_minus_beta1, gv));
    const __m256 vv = _mm256_add_ps(
        _mm256_mul_ps(beta2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, gv), gv));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 mhat = _mm256_div_ps(mv, bc1);
    const __m256 vhat = _mm256_div_ps(vv, bc2);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
  }
  for (; i < n; ++i) {
    m[i] = c.beta1 * m[i] + c.one_minus_beta1 * g[i];
    v[i] = c.beta2 * v[i] + c.one_minus_beta2 * g[i] * g[i];
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    w[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

// ---- tanh: fdlibm's tanhf in eight lanes -------------------------------
//
// Every lane issues scalar::Tanh's IEEE operations (the port of fdlibm's
// tanhf and expm1f in kernels.cc) in their order, so it equals the scalar
// tier bit for bit. Each branch of the scalar code becomes a blend: every
// lane computes each branch's value and keeps the one its input selects.
// Blends, sign flips and exponent-field adds are exact. fp-contract=off
// stops -mfma from fusing steps such as invln2*x + 0.5 or x - k*ln2_hi,
// which fdlibm rounds twice.

inline __m256 Bits(uint32_t bits) {
  return _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(bits)));
}

// a in the lanes where mask is set, b elsewhere.
inline __m256 Select(__m256 mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(b, a, mask);
}

inline __m256 Select(__m256i mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(mask));
}

// y * 2^k per lane, by adding k to y's exponent field.
inline __m256 AddToExponent(__m256 y, __m256i k) {
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
}

// The scalar tier's Expm1f (kernels.cc) on eight arguments in (-2, 44).
__attribute__((optimize("fp-contract=off"))) inline __m256 Expm1Lanes(
    __m256 x) {
  const __m256 sign_bit = Bits(0x80000000u);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);

  // x = hi - lo + k ln2. k is 0 for |x| <= 0.5 ln2, +-1 below 1.5 ln2 and
  // (int)(invln2*x +- 0.5) above. One form serves all three: with k = +-1
  // it issues fdlibm's x -+ ln2_hi and lo = +-ln2_lo, and with k = 0 it
  // leaves x as it is and c = 0.
  const __m256 k_round = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(Bits(0x3fb8aa3bu), x),  // invln2
                    _mm256_or_ps(half, sign))));
  __m256 kf = Select(_mm256_cmp_ps(ax, Bits(0x3f851592u), _CMP_LT_OQ),
                     _mm256_or_ps(one, sign), k_round);
  kf = Select(_mm256_cmp_ps(ax, Bits(0x3eb17218u), _CMP_GT_OQ), kf,
              _mm256_setzero_ps());
  const __m256i k = _mm256_cvttps_epi32(kf);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(kf, Bits(0x3f317180u)));
  const __m256 lo = _mm256_mul_ps(kf, Bits(0x3717f7d1u));
  const __m256 r = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

  // r is in the primary range.
  const __m256 hfx = _mm256_mul_ps(half, r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 p = _mm256_add_ps(Bits(0x36867e54u),  // Q4 + hxs*Q5
                           _mm256_mul_ps(hxs, Bits(0xb457edbbu)));
  p = _mm256_add_ps(Bits(0xb8a670cdu), _mm256_mul_ps(hxs, p));  // Q3
  p = _mm256_add_ps(Bits(0x3ad00d01u), _mm256_mul_ps(hxs, p));  // Q2
  p = _mm256_add_ps(Bits(0xbd088889u), _mm256_mul_ps(hxs, p));  // Q1
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
  const __m256 t =
      _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e0 = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(r, t))));
  const __m256 y_k0 =
      _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e0), hxs));

  const __m256 e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e0, c)), c), hxs);
  const __m256 y_minus1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
  const __m256 y_plus1 = Select(
      _mm256_cmp_ps(r, _mm256_set1_ps(-0.25f), _CMP_LT_OQ),
      _mm256_mul_ps(_mm256_set1_ps(-2.0f),
                    _mm256_sub_ps(e, _mm256_add_ps(r, half))),
      _mm256_add_ps(one,
                    _mm256_mul_ps(_mm256_set1_ps(2.0f), _mm256_sub_ps(r, e))));
  const __m256 e_minus_r = _mm256_sub_ps(e, r);
  // k <= -2 or k > 56
  const __m256 y_far =
      _mm256_sub_ps(AddToExponent(_mm256_sub_ps(one, e_minus_r), k), one);
  // 2 <= k < 23: 1 - 2^-k
  const __m256 one_minus = _mm256_castsi256_ps(_mm256_sub_epi32(
      _mm256_set1_epi32(0x3f800000),
      _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 y_mid = AddToExponent(_mm256_sub_ps(one_minus, e_minus_r), k);
  // 23 <= k <= 56: 2^-k
  const __m256 two_to_minus_k = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 y_high = AddToExponent(
      _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, two_to_minus_k)), one),
      k);

  __m256 y = Select(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k), y_mid,
                    y_high);
  y = Select(_mm256_or_si256(_mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
                             _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k)),
             y_far, y);
  y = Select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(1)), y_plus1, y);
  y = Select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), y_minus1, y);
  y = Select(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), y_k0, y);
  // |x| < 2^-25: expm1(x) rounds to x.
  return Select(_mm256_cmp_ps(ax, Bits(0x33000000u), _CMP_LT_OQ), x, y);
}

__attribute__((optimize("fp-contract=off"))) inline __m256 TanhLanes(
    __m256 x) {
  const __m256 sign_bit = Bits(0x80000000u);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);
  // |x| >= 1: z = 1 - 2/(t + 2) with t = expm1(2|x|); below it
  // z = -t/(t + 2) with t = expm1(-2|x|).
  const __m256 big = _mm256_cmp_ps(ax, one, _CMP_GE_OQ);
  const __m256 t = Expm1Lanes(
      _mm256_mul_ps(Select(big, two, _mm256_set1_ps(-2.0f)), ax));
  const __m256 q = _mm256_div_ps(Select(big, two, _mm256_xor_ps(t, sign_bit)),
                                 _mm256_add_ps(t, two));
  __m256 z = Select(big, _mm256_sub_ps(one, q), q);
  // |x| >= 22, infinities included: +-1.
  z = Select(_mm256_cmp_ps(ax, _mm256_set1_ps(22.0f), _CMP_GE_OQ), one, z);
  z = _mm256_xor_ps(z, sign);
  // |x| < 2^-55, +-0 included: x * (1 + x).
  z = Select(_mm256_cmp_ps(ax, Bits(0x24000000u), _CMP_LT_OQ),
             _mm256_mul_ps(x, _mm256_add_ps(one, x)), z);
  // NaN in, NaN out.
  return Select(_mm256_cmp_ps(x, x, _CMP_UNORD_Q), _mm256_add_ps(x, x), z);
}

__attribute__((optimize("fp-contract=off"))) void Tanh(size_t n,
                                                      const float* x,
                                                      float* y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, TanhLanes(_mm256_loadu_ps(x + i)));
  }
  scalar::Tanh(n - i, x + i, y + i);
}

constexpr KernelDispatch kAvx2Table = {
    "avx2",
    GemmAccum,
    GemmTransBAccum,
    GemmTransAAccum,
    AddBias,
    AddBiasTanh,
    AddBiasRelu,
    AddInto,
    AdamUpdate,
    Tanh,
};

}  // namespace

const KernelDispatch* Table() {
  static const KernelDispatch* table = [] {
    const bool ok = __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma");
    return ok ? &kAvx2Table : nullptr;
  }();
  return table;
}

}  // namespace alicoco::nn::kernels::avx2

#else  // !x86

namespace alicoco::nn::kernels::avx2 {

const KernelDispatch* Table() { return nullptr; }

}  // namespace alicoco::nn::kernels::avx2

#endif
