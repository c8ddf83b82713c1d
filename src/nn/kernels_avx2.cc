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
// std::tanh at 1e-6.
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
    for (; j < cols; ++j) or_[j] = std::tanh(xr[j] + bias[j]);
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
