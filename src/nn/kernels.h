// Runtime-dispatched GEMM / fused-bias / elementwise micro-kernels — the
// compute substrate for every matmul in the autodiff graph, the fused layer
// ops, the gradient reduction and the optimizer step.
//
// All GEMM kernels ACCUMULATE into C (row-major, dense: leading dimension
// equals the logical column count) so they slot directly into reverse-mode
// gradient accumulation. Three orientations cover forward, dA and dB of a
// matmul:
//
//   GemmAccum:       C (m x n) += A (m x k)   * B (k x n)
//   GemmTransBAccum: C (m x n) += A (m x k)   * B^T, B stored (n x k)
//   GemmTransAAccum: C (k x n) += A^T * B,    A stored (m x k), B (m x n)
//
// Dispatch tiers. Every public kernel routes through a `KernelDispatch`
// table selected once at startup by CPUID: `avx2` (AVX2 + FMA vectorized
// implementations, kernels_avx2.cc) where the hardware supports it,
// `scalar` (portable blocked + register-tiled C++, this header's `scalar`
// namespace) everywhere else. `ALICOCO_SIMD=scalar` in the
// environment — or `ForceScalarKernels(true)` in tests — pins the scalar
// tier so CI without AVX2 hardware still covers every code path. The
// scalar tier is the correctness reference for the vectorized one; both
// may differ from `naive` (the original triple loops) only by float
// reassociation.
//
// Scalar blocking scheme: the n and k dimensions are tiled (kNc x kKc in
// kernels.cc) so the active B panel stays L1-resident, and the micro-kernel
// accumulates a kMr x kNr register tile of C across the whole k pass —
// C rows are loaded and stored once per panel instead of once per k step,
// which is what the pre-retune kernel got wrong (~1.1x over naive).
//
// Bit-exact elementwise kernels: `AddInto` (the gradient reduction),
// `AdamUpdate` (the optimizer step) and `Tanh` (every tanh of the graph
// ops: `Graph::Tanh`, `AdditiveAttention`, `LstmStep`). Unlike the GEMMs,
// every tier must equal the plain scalar loop bit for bit, so the AVX2
// versions issue the same IEEE operations in the same order and are
// compiled without multiply-add contraction (see kernels_avx2.cc).
// `scalar::Tanh` is a port of fdlibm's tanhf and expm1f (Sun Microsystems,
// 1993, as glibc ships them), so both tiers compute one function whatever
// the host's libm; the AVX2 tier runs it in eight lanes, each branch a
// blend.

#ifndef ALICOCO_NN_KERNELS_H_
#define ALICOCO_NN_KERNELS_H_

#include <cstddef>

namespace alicoco::nn::kernels {

/// Per-step constants of one Adam update. `bc1`/`bc2` are the bias
/// corrections 1 - beta^t.
struct AdamCoeffs {
  float beta1, one_minus_beta1;
  float beta2, one_minus_beta2;
  float bc1, bc2;
  float lr, eps;
};

// ---- dispatched fp32 kernels --------------------------------------------

void GemmAccum(int m, int k, int n, const float* a, const float* b, float* c);
void GemmTransBAccum(int m, int k, int n, const float* a, const float* b,
                     float* c);
void GemmTransAAccum(int m, int k, int n, const float* a, const float* b,
                     float* c);

/// Fused bias + activation: out[r][j] = act(x[r][j] + bias[j]).
/// `out` may alias `x`.
void AddBias(int rows, int cols, const float* x, const float* bias,
             float* out);
void AddBiasTanh(int rows, int cols, const float* x, const float* bias,
                 float* out);
void AddBiasRelu(int rows, int cols, const float* x, const float* bias,
                 float* out);

/// y[i] += x[i] for i < n.
void AddInto(size_t n, const float* x, float* y);

/// y[i] = tanh(x[i]) for i < n, as fdlibm's tanhf computes it. `y` may
/// alias `x`.
void Tanh(size_t n, const float* x, float* y);

/// One Adam step over n weights, per element in this order:
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
void AdamUpdate(size_t n, const float* g, float* m, float* v, float* w,
                const AdamCoeffs& c);

// ---- dispatch table ------------------------------------------------------

/// One entry per dispatched kernel; `ActiveKernels()` returns the table the
/// public functions above route through.
struct KernelDispatch {
  const char* tier;  ///< "scalar" or "avx2"
  void (*gemm)(int, int, int, const float*, const float*, float*);
  void (*gemm_transb)(int, int, int, const float*, const float*, float*);
  void (*gemm_transa)(int, int, int, const float*, const float*, float*);
  void (*add_bias)(int, int, const float*, const float*, float*);
  void (*add_bias_tanh)(int, int, const float*, const float*, float*);
  void (*add_bias_relu)(int, int, const float*, const float*, float*);
  void (*add_into)(size_t, const float*, float*);
  void (*adam_update)(size_t, const float*, float*, float*, float*,
                      const AdamCoeffs&);
  void (*tanh)(size_t, const float*, float*);
};

/// The active table: CPUID-selected at first use; `ALICOCO_SIMD=scalar`
/// in the environment pins the portable tier.
const KernelDispatch& ActiveKernels();

/// Name of the active tier ("scalar" / "avx2").
const char* ActiveKernelTier();

/// Test/CI hook: `true` forces the scalar table regardless of CPU,
/// `false` restores the CPUID choice. Not thread-safe against in-flight
/// kernels; flip only from single-threaded context.
void ForceScalarKernels(bool force);

/// Whether this build + CPU can run the AVX2 tier at all (independent of
/// the current force state).
bool KernelsHaveAvx2();

// ---- portable reference tier --------------------------------------------

namespace scalar {

void GemmAccum(int m, int k, int n, const float* a, const float* b, float* c);
void GemmTransBAccum(int m, int k, int n, const float* a, const float* b,
                     float* c);
void GemmTransAAccum(int m, int k, int n, const float* a, const float* b,
                     float* c);
void AddBias(int rows, int cols, const float* x, const float* bias,
             float* out);
void AddBiasTanh(int rows, int cols, const float* x, const float* bias,
                 float* out);
void AddBiasRelu(int rows, int cols, const float* x, const float* bias,
                 float* out);
void AddInto(size_t n, const float* x, float* y);
void AdamUpdate(size_t n, const float* g, float* m, float* v, float* w,
                const AdamCoeffs& c);
void Tanh(size_t n, const float* x, float* y);

}  // namespace scalar

// ---- AVX2 tier (kernels_avx2.cc, compiled with -mavx2 -mfma) ------------

namespace avx2 {

/// The AVX2 dispatch table, or nullptr when the build target or the
/// running CPU cannot execute it. Callers must not invoke table entries
/// obtained while this returned nullptr.
const KernelDispatch* Table();

}  // namespace avx2

// ---- original triple loops (oracle for the equivalence tests) -----------

namespace naive {

void GemmAccum(int m, int k, int n, const float* a, const float* b, float* c);
void GemmTransBAccum(int m, int k, int n, const float* a, const float* b,
                     float* c);
void GemmTransAAccum(int m, int k, int n, const float* a, const float* b,
                     float* c);

}  // namespace naive

}  // namespace alicoco::nn::kernels

#endif  // ALICOCO_NN_KERNELS_H_
