// Equivalence tests for the blocked GEMM kernels against the naive
// reference implementations, over shapes chosen to hit every edge of the
// blocking scheme: single rows/columns, sizes straddling the register tile
// (4) and the cache tiles (64 x 128), and a handful of random shapes.
// Blocked and naive kernels sum in different orders, so comparisons use a
// relative tolerance.

#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace alicoco::nn::kernels {
namespace {

struct Shape {
  int m, k, n;
};

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

void ExpectClose(const std::vector<float>& want, const std::vector<float>& got,
                 int m, int k) {
  ASSERT_EQ(want.size(), got.size());
  // Error grows with the reduction length; scale the tolerance by k.
  const float tol = 1e-5f * static_cast<float>(k + 8);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(want[i], got[i], tol + 1e-4f * std::fabs(want[i]))
        << "index " << i << " of " << m << "x? result";
  }
}

const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {7, 1, 1},   {1, 1, 7},    {4, 4, 4},
    {3, 5, 2},    {5, 64, 128}, {4, 65, 129}, {8, 63, 127}, {2, 24, 96},
    {1, 24, 96},  {17, 31, 23}, {6, 130, 5},  {9, 3, 260},  {13, 200, 40},
};

TEST(KernelsTest, GemmAccumMatchesNaive) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    auto a = RandomVec(static_cast<size_t>(s.m) * s.k, &rng);
    auto b = RandomVec(static_cast<size_t>(s.k) * s.n, &rng);
    auto c0 = RandomVec(static_cast<size_t>(s.m) * s.n, &rng);
    auto want = c0, got = c0;
    naive::GemmAccum(s.m, s.k, s.n, a.data(), b.data(), want.data());
    GemmAccum(s.m, s.k, s.n, a.data(), b.data(), got.data());
    ExpectClose(want, got, s.m, s.k);
  }
}

TEST(KernelsTest, GemmTransBAccumMatchesNaive) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    auto a = RandomVec(static_cast<size_t>(s.m) * s.k, &rng);
    auto b = RandomVec(static_cast<size_t>(s.n) * s.k, &rng);  // B is n x k
    auto c0 = RandomVec(static_cast<size_t>(s.m) * s.n, &rng);
    auto want = c0, got = c0;
    naive::GemmTransBAccum(s.m, s.k, s.n, a.data(), b.data(), want.data());
    GemmTransBAccum(s.m, s.k, s.n, a.data(), b.data(), got.data());
    ExpectClose(want, got, s.m, s.k);
  }
}

TEST(KernelsTest, GemmTransAAccumMatchesNaive) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    auto a = RandomVec(static_cast<size_t>(s.m) * s.k, &rng);  // A is m x k
    auto b = RandomVec(static_cast<size_t>(s.m) * s.n, &rng);
    auto c0 = RandomVec(static_cast<size_t>(s.k) * s.n, &rng);  // C is k x n
    auto want = c0, got = c0;
    naive::GemmTransAAccum(s.m, s.k, s.n, a.data(), b.data(), want.data());
    GemmTransAAccum(s.m, s.k, s.n, a.data(), b.data(), got.data());
    ExpectClose(want, got, s.k, s.m);
  }
}

TEST(KernelsTest, AddBiasVariantsMatchScalarMath) {
  Rng rng(104);
  const int rows = 5, cols = 33;
  auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
  auto bias = RandomVec(cols, &rng);
  std::vector<float> plain(x.size()), tanh_out(x.size()), relu(x.size());
  AddBias(rows, cols, x.data(), bias.data(), plain.data());
  AddBiasTanh(rows, cols, x.data(), bias.data(), tanh_out.data());
  AddBiasRelu(rows, cols, x.data(), bias.data(), relu.data());
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const float v = x[static_cast<size_t>(i) * cols + j] + bias[j];
      const size_t at = static_cast<size_t>(i) * cols + j;
      EXPECT_FLOAT_EQ(plain[at], v);
      EXPECT_NEAR(tanh_out[at], std::tanh(v), 1e-6f);
      EXPECT_FLOAT_EQ(relu[at], v > 0.0f ? v : 0.0f);
    }
  }
}

TEST(KernelsTest, ForcedScalarTierMatchesDispatched) {
  // Whatever tier CPUID picked, pinning the scalar table must keep every
  // dispatched kernel equivalent (up to float reassociation) — this is the
  // same guarantee CI checks by re-running the suite with
  // ALICOCO_SIMD=scalar, exercised here in-process via the test hook.
  Rng rng(106);
  const Shape s{9, 70, 33};  // straddles the 8-wide vector and tail lanes
  auto a = RandomVec(static_cast<size_t>(s.m) * s.k, &rng);
  auto b = RandomVec(static_cast<size_t>(s.k) * s.n, &rng);
  auto c0 = RandomVec(static_cast<size_t>(s.m) * s.n, &rng);
  auto dispatched = c0;
  GemmAccum(s.m, s.k, s.n, a.data(), b.data(), dispatched.data());
  ForceScalarKernels(true);
  EXPECT_STREQ(ActiveKernelTier(), "scalar");
  auto forced = c0;
  GemmAccum(s.m, s.k, s.n, a.data(), b.data(), forced.data());
  ForceScalarKernels(false);
  // Un-forcing restores the startup choice: avx2 on capable hardware
  // unless ALICOCO_SIMD=scalar pinned the portable tier for the process.
  const char* env = std::getenv("ALICOCO_SIMD");
  const bool env_pinned = env != nullptr && std::strcmp(env, "scalar") == 0;
  if (KernelsHaveAvx2() && !env_pinned) {
    EXPECT_STREQ(ActiveKernelTier(), "avx2");
  } else {
    EXPECT_STREQ(ActiveKernelTier(), "scalar");
  }
  ExpectClose(forced, dispatched, s.m, s.k);
}

TEST(KernelsTest, AddBiasInPlaceAliasing) {
  // The fused affine ops apply the bias in place (out == x); the kernels
  // must tolerate full aliasing.
  Rng rng(105);
  const int rows = 3, cols = 17;
  auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
  auto bias = RandomVec(cols, &rng);
  auto expect = x;
  AddBias(rows, cols, expect.data(), bias.data(), expect.data());
  auto inplace = x;
  AddBias(rows, cols, inplace.data(), bias.data(), inplace.data());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(inplace[i], x[i] + bias[i % cols]);
    EXPECT_FLOAT_EQ(inplace[i], expect[i]);
  }
}

// ---- elementwise parameter sweep: bit-exact across tiers ----------------

// Adam::Step's per-element loop before it called AdamUpdate, kept as the
// reference; fp-contract=off pins separate multiplies and adds even when
// this file is built for a target with FMA.
__attribute__((optimize("fp-contract=off"))) void ReferenceAdam(
    size_t n, const float* g, float* m, float* v, float* w, float beta1,
    float beta2, float bc1, float bc2, float lr, float eps) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    float mhat = m[i] / bc1;
    float vhat = v[i] / bc2;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

AdamCoeffs CoeffsAt(int step, float lr) {
  const float beta1 = 0.9f, beta2 = 0.999f;
  return AdamCoeffs{beta1,
                    1.0f - beta1,
                    beta2,
                    1.0f - beta2,
                    1.0f - std::pow(beta1, static_cast<float>(step)),
                    1.0f - std::pow(beta2, static_cast<float>(step)),
                    lr,
                    1e-8f};
}

// Random values with signed zeros and subnormals mixed in.
std::vector<float> EdgyVec(size_t n, bool non_negative, Rng* rng) {
  const float specials[] = {0.0f,    -0.0f,   1e-40f, -3e-42f,
                            1.4e-45f, 1e-38f, -1e-39f, 2.5e-44f};
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i % 3 == 1 ? specials[(i / 3) % 8] : rng->UniformFloat(-2.0f, 2.0f);
    if (non_negative) v[i] = std::fabs(v[i]);
  }
  return v;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Every tier the host can run, by name.
std::vector<std::pair<const char*, const KernelDispatch*>> Tiers() {
  std::vector<std::pair<const char*, const KernelDispatch*>> tiers = {
      {"dispatched", &ActiveKernels()}};
  if (const KernelDispatch* simd = avx2::Table()) {
    tiers.emplace_back("avx2", simd);
  }
  return tiers;
}

const size_t kSweepSizes[] = {0, 1, 7, 8, 9, 33, 1000};

TEST(KernelsTest, AddIntoEqualsTheScalarLoopOnEveryTier) {
  Rng rng(41);
  for (size_t n : kSweepSizes) {
    const auto x = EdgyVec(n, false, &rng);
    const auto y0 = EdgyVec(n, false, &rng);
    auto want = y0;
    for (size_t i = 0; i < n; ++i) want[i] += x[i];
    auto scalar_out = y0;
    scalar::AddInto(n, x.data(), scalar_out.data());
    EXPECT_TRUE(SameBits(scalar_out, want)) << "scalar n=" << n;
    for (const auto& [name, table] : Tiers()) {
      auto got = y0;
      table->add_into(n, x.data(), got.data());
      EXPECT_TRUE(SameBits(got, want)) << name << " n=" << n;
    }
  }
}

TEST(KernelsTest, AdamUpdateEqualsTheScalarLoopOnEveryTier) {
  Rng rng(42);
  for (size_t n : kSweepSizes) {
    for (int step : {1, 2, 37}) {
      const AdamCoeffs c = CoeffsAt(step, 0.01f);
      const auto g = EdgyVec(n, false, &rng);
      const auto m0 = EdgyVec(n, false, &rng);
      const auto v0 = EdgyVec(n, true, &rng);
      const auto w0 = EdgyVec(n, false, &rng);
      auto m_want = m0, v_want = v0, w_want = w0;
      ReferenceAdam(n, g.data(), m_want.data(), v_want.data(), w_want.data(),
                    c.beta1, c.beta2, c.bc1, c.bc2, c.lr, c.eps);
      auto check = [&](const char* name, auto update) {
        auto m = m0, v = v0, w = w0;
        update(n, g.data(), m.data(), v.data(), w.data(), c);
        EXPECT_TRUE(SameBits(m, m_want)) << name << " m, n=" << n;
        EXPECT_TRUE(SameBits(v, v_want)) << name << " v, n=" << n;
        EXPECT_TRUE(SameBits(w, w_want)) << name << " w, n=" << n;
      };
      check("scalar", scalar::AdamUpdate);
      for (const auto& [name, table] : Tiers()) check(name, table->adam_update);
    }
  }
}

// A contraction canary: inputs where a fused multiply-add of either Adam
// moment, in either operand order, rounds differently from the separate
// multiply and add. A tier compiled with contraction fails here.
__attribute__((optimize("fp-contract=off"))) bool FusedDiffers(float a,
                                                               float x,
                                                               float b,
                                                               float y) {
  const float separate = a * x + b * y;
  return std::fmaf(a, x, b * y) != separate &&
         std::fmaf(b, y, a * x) != separate;
}

TEST(KernelsTest, AdamUpdateDoesNotFuseMultiplyAdds) {
  const AdamCoeffs c = CoeffsAt(3, 0.001f);
  Rng rng(43);
  std::vector<float> g, m, v, w;
  while (g.size() < 64) {
    const float gi = rng.UniformFloat(-1.0f, 1.0f);
    const float mi = rng.UniformFloat(-1.0f, 1.0f);
    const float vi = rng.UniformFloat(0.0f, 1.0f);
    if (!FusedDiffers(c.beta1, mi, c.one_minus_beta1, gi)) continue;
    if (!FusedDiffers(c.beta2, vi, c.one_minus_beta2 * gi, gi)) continue;
    g.push_back(gi);
    m.push_back(mi);
    v.push_back(vi);
    w.push_back(rng.UniformFloat(-1.0f, 1.0f));
  }
  const size_t n = g.size();
  auto m_want = m, v_want = v, w_want = w;
  ReferenceAdam(n, g.data(), m_want.data(), v_want.data(), w_want.data(),
                c.beta1, c.beta2, c.bc1, c.bc2, c.lr, c.eps);
  for (const auto& [name, table] : Tiers()) {
    auto m_got = m, v_got = v, w_got = w;
    table->adam_update(n, g.data(), m_got.data(), v_got.data(), w_got.data(),
                       c);
    EXPECT_TRUE(SameBits(m_got, m_want)) << name;
    EXPECT_TRUE(SameBits(v_got, v_want)) << name;
    EXPECT_TRUE(SameBits(w_got, w_want)) << name;
  }
}

}  // namespace
}  // namespace alicoco::nn::kernels
