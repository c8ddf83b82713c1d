// Equivalence tests for the blocked GEMM kernels against the naive
// reference implementations, over shapes chosen to hit every edge of the
// blocking scheme: single rows/columns, sizes straddling the register tile
// (4) and the cache tiles (64 x 128), and a handful of random shapes.
// Blocked and naive kernels sum in different orders, so comparisons use a
// relative tolerance.

#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

// ---- tanh: one function on every tier ----------------------------------

// Branch edges of fdlibm's tanhf and of the expm1f it calls, as |x| bit
// patterns: 0 (subnormals above), the smallest normal, 2^-55 (tanhf's
// x * (1 + x) branch), 2^-26 (expm1f returns its argument below), 0.25 ln2
// (the last k = 0 input), 0.75 ln2 (the first with k <= -2), 1, ~7.80 (the
// first with k = 23), ~19.58 (the first with k = 57), 22, FLT_MAX and inf.
constexpr uint32_t kTanhEdges[] = {
    0x00000000u, 0x00800000u, 0x24000000u, 0x32800000u,
    0x3e317218u, 0x3f051592u, 0x3f800000u, 0x40f98872u,
    0x419ca6b9u, 0x41b00000u, 0x7f7fffffu, 0x7f800000u,
};

bool SameTanh(float want, float got) {
  return std::isnan(want) ? std::isnan(got)
                          : std::bit_cast<uint32_t>(want) ==
                                std::bit_cast<uint32_t>(got);
}

// Compares every tier with scalar::Tanh over x, out of place; returns the
// number of mismatches and reports the first.
size_t TanhMismatches(const std::vector<float>& x) {
  std::vector<float> want(x.size()), got(x.size());
  scalar::Tanh(x.size(), x.data(), want.data());
  size_t bad = 0;
  for (const auto& [name, table] : Tiers()) {
    table->tanh(x.size(), x.data(), got.data());
    for (size_t i = 0; i < x.size(); ++i) {
      if (SameTanh(want[i], got[i])) continue;
      if (bad++ == 0) {
        ADD_FAILURE() << name << ": tanh(0x" << std::hex
                      << std::bit_cast<uint32_t>(x[i]) << ") = 0x"
                      << std::bit_cast<uint32_t>(got[i]) << ", scalar 0x"
                      << std::bit_cast<uint32_t>(want[i]);
      }
    }
  }
  return bad;
}

TEST(KernelsTest, TanhEqualsTheScalarPortOnEveryTier) {
  // Every 251st bit pattern of all 2^32 (about 17 M inputs), in chunks.
  constexpr uint64_t kStride = 251;
  constexpr size_t kChunk = 4096;
  std::vector<float> x;
  x.reserve(kChunk);
  size_t bad = 0;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += kStride) {
    x.push_back(std::bit_cast<float>(static_cast<uint32_t>(bits)));
    if (x.size() == kChunk) {
      bad += TanhMismatches(x);
      x.clear();
    }
  }
  // Each branch edge and its three float neighbours either side, both signs.
  for (uint32_t edge : kTanhEdges) {
    for (uint32_t bits = edge < 3 ? 0 : edge - 3; bits <= edge + 3; ++bits) {
      x.push_back(std::bit_cast<float>(bits));
      x.push_back(-std::bit_cast<float>(bits));
    }
  }
  bad += TanhMismatches(x);
  EXPECT_EQ(bad, 0u);

  // Every size around the 8-lane width, out of place and in place.
  std::vector<float> in;
  for (int i = 0; i < 1000; ++i) in.push_back(-12.0f + 0.0241f * i);
  std::vector<float> want(in.size());
  scalar::Tanh(in.size(), in.data(), want.data());
  for (size_t n : kSweepSizes) {
    const std::vector<float> head(in.begin(), in.begin() + n);
    const std::vector<float> want_head(want.begin(), want.begin() + n);
    for (const auto& [name, table] : Tiers()) {
      std::vector<float> out(n);
      table->tanh(n, head.data(), out.data());
      EXPECT_TRUE(SameBits(out, want_head)) << name << " n=" << n;
      std::vector<float> inplace = head;
      table->tanh(n, inplace.data(), inplace.data());
      EXPECT_TRUE(SameBits(inplace, want_head)) << name << " in place n=" << n;
    }
  }
}

// tanhf(x) as bit patterns {x, tanhf(x)}, recorded from glibc 2.36's tanhf
// on x86-64: the ends and four interior points of every branch, both signs.
constexpr uint32_t kRecordedTanhf[][2] = {
    // |x| < 2^-55, +-0 and subnormals included: x * (1 + x)
    {0x00000000u, 0x00000000u}, {0x80000000u, 0x80000000u},
    {0x00000001u, 0x00000001u}, {0x80000001u, 0x80000001u},
    {0x23fffffeu, 0x23fffffeu}, {0xa3fffffeu, 0xa3fffffeu},
    {0x23ffffffu, 0x23ffffffu}, {0xa3ffffffu, 0xa3ffffffu},
    {0x07333333u, 0x07333333u}, {0x87333333u, 0x87333333u},
    {0x0e666666u, 0x0e666666u}, {0x8e666666u, 0x8e666666u},
    {0x15999999u, 0x15999999u}, {0x95999999u, 0x95999999u},
    {0x1cccccccu, 0x1cccccccu}, {0x9cccccccu, 0x9cccccccu},
    // 2^-55 <= |x| < 2^-26: expm1f returns its argument
    {0x24000000u, 0x24000000u}, {0xa4000000u, 0xa4000000u},
    {0x24000001u, 0x24000001u}, {0xa4000001u, 0xa4000001u},
    {0x327ffffeu, 0x327ffffeu}, {0xb27ffffeu, 0xb27ffffeu},
    {0x327fffffu, 0x327fffffu}, {0xb27fffffu, 0xb27fffffu},
    {0x26e66666u, 0x26e66666u}, {0xa6e66666u, 0xa6e66666u},
    {0x29ccccccu, 0x29ccccccu}, {0xa9ccccccu, 0xa9ccccccu},
    {0x2cb33332u, 0x2cb33332u}, {0xacb33332u, 0xacb33332u},
    {0x2f999998u, 0x2f999998u}, {0xaf999998u, 0xaf999998u},
    // k = 0
    {0x32800000u, 0x32800000u}, {0xb2800000u, 0xb2800000u},
    {0x32800001u, 0x32800001u}, {0xb2800001u, 0xb2800001u},
    {0x3e317217u, 0x3e2fb0ccu}, {0xbe317217u, 0xbe2fb0ccu},
    {0x3e317218u, 0x3e2fb0cdu}, {0xbe317218u, 0xbe2fb0cdu},
    {0x34d6b06bu, 0x34d6b06bu}, {0xb4d6b06bu, 0xb4d6b06bu},
    {0x372d60d6u, 0x372d60d6u}, {0xb72d60d6u, 0xb72d60d6u},
    {0x39841141u, 0x39841141u}, {0xb9841141u, 0xb9841141u},
    {0x3bdac1acu, 0x3bdac0d7u}, {0xbbdac1acu, 0xbbdac0d7u},
    // k = -1
    {0x3e317219u, 0x3e2fb0cdu}, {0xbe317219u, 0xbe2fb0cdu},
    {0x3e31721au, 0x3e2fb0cfu}, {0xbe31721au, 0xbe2fb0cfu},
    {0x3f051590u, 0x3ef486f5u}, {0xbf051590u, 0xbef486f5u},
    {0x3f051591u, 0x3ef486f8u}, {0xbf051591u, 0xbef486f8u},
    {0x3e5bc5fdu, 0x3e5875c1u}, {0xbe5bc5fdu, 0xbe5875c1u},
    {0x3e8619e2u, 0x3e831dd5u}, {0xbe8619e2u, 0xbe831dd5u},
    {0x3eb06dc7u, 0x3ea9c31eu}, {0xbeb06dc7u, 0xbea9c31eu},
    {0x3edac1acu, 0x3ece59aeu}, {0xbedac1acu, 0xbece59aeu},
    // k <= -2
    {0x3f051592u, 0x3ef486f8u}, {0xbf051592u, 0xbef486f8u},
    {0x3f051593u, 0x3ef486fbu}, {0xbf051593u, 0xbef486fbu},
    {0x3f7ffffeu, 0x3f42f7d5u}, {0xbf7ffffeu, 0xbf42f7d5u},
    {0x3f7fffffu, 0x3f42f7d5u}, {0xbf7fffffu, 0xbf42f7d5u},
    {0x3f1daadbu, 0x3f0c5aafu}, {0xbf1daadbu, 0xbf0c5aafu},
    {0x3f364024u, 0x3f1ca3fau}, {0xbf364024u, 0xbf1ca3fau},
    {0x3f4ed56du, 0x3f2b1fd8u}, {0xbf4ed56du, 0xbf2b1fd8u},
    {0x3f676ab6u, 0x3f37ddafu}, {0xbf676ab6u, 0xbf37ddafu},
    // 2 <= k < 23
    {0x3f800000u, 0x3f42f7d6u}, {0xbf800000u, 0xbf42f7d6u},
    {0x3f800001u, 0x3f42f7d6u}, {0xbf800001u, 0xbf42f7d6u},
    {0x40f98870u, 0x3f7ffffau}, {0xc0f98870u, 0xbf7ffffau},
    {0x40f98871u, 0x3f7ffffau}, {0xc0f98871u, 0xbf7ffffau},
    {0x3fcb81b0u, 0x3f6b8ddbu}, {0xbfcb81b0u, 0xbf6b8ddbu},
    {0x40170360u, 0x3f7b78d5u}, {0xc0170360u, 0xbf7b78d5u},
    {0x40628510u, 0x3f7f919fu}, {0xc0628510u, 0xbf7f919fu},
    {0x40ae06c0u, 0x3f7ffd86u}, {0xc0ae06c0u, 0xbf7ffd86u},
    // 23 <= k <= 56
    {0x40f98872u, 0x3f7ffffau}, {0xc0f98872u, 0xbf7ffffau},
    {0x40f98873u, 0x3f7ffffau}, {0xc0f98873u, 0xbf7ffffau},
    {0x419ca6b7u, 0x3f800000u}, {0xc19ca6b7u, 0xbf800000u},
    {0x419ca6b8u, 0x3f800000u}, {0xc19ca6b8u, 0xbf800000u},
    {0x411a2819u, 0x3f800000u}, {0xc11a2819u, 0xbf800000u},
    {0x413ac7c1u, 0x3f800000u}, {0xc13ac7c1u, 0xbf800000u},
    {0x415b6768u, 0x3f800000u}, {0xc15b6768u, 0xbf800000u},
    {0x417c0710u, 0x3f800000u}, {0xc17c0710u, 0xbf800000u},
    // k > 56
    {0x419ca6b9u, 0x3f800000u}, {0xc19ca6b9u, 0xbf800000u},
    {0x419ca6bau, 0x3f800000u}, {0xc19ca6bau, 0xbf800000u},
    {0x41affffeu, 0x3f800000u}, {0xc1affffeu, 0xbf800000u},
    {0x41afffffu, 0x3f800000u}, {0xc1afffffu, 0xbf800000u},
    {0x41a08560u, 0x3f800000u}, {0xc1a08560u, 0xbf800000u},
    {0x41a46408u, 0x3f800000u}, {0xc1a46408u, 0xbf800000u},
    {0x41a842afu, 0x3f800000u}, {0xc1a842afu, 0xbf800000u},
    {0x41ac2157u, 0x3f800000u}, {0xc1ac2157u, 0xbf800000u},
    // |x| >= 22: +-1
    {0x41b00000u, 0x3f800000u}, {0xc1b00000u, 0xbf800000u},
    {0x41b00001u, 0x3f800000u}, {0xc1b00001u, 0xbf800000u},
    {0x7f7ffffeu, 0x3f800000u}, {0xff7ffffeu, 0xbf800000u},
    {0x7f7fffffu, 0x3f800000u}, {0xff7fffffu, 0xbf800000u},
    {0x4e0cccccu, 0x3f800000u}, {0xce0cccccu, 0xbf800000u},
    {0x5a699999u, 0x3f800000u}, {0xda699999u, 0xbf800000u},
    {0x66c66665u, 0x3f800000u}, {0xe6c66665u, 0xbf800000u},
    {0x73233332u, 0x3f800000u}, {0xf3233332u, 0xbf800000u},
    // infinities and NaNs
    {0x7f800000u, 0x3f800000u}, {0xff800000u, 0xbf800000u},
    {0x7fc00000u, 0x7fc00000u}, {0xffc00000u, 0xffc00000u},
    {0x7f800001u, 0x7fc00001u}, {0xff800001u, 0xffc00001u},
    {0x7fa00000u, 0x7fe00000u}, {0x7fffffffu, 0x7fffffffu},
    {0xffffffffu, 0xffffffffu}, {0x7fc12345u, 0x7fc12345u},
    {0xffa54321u, 0xffe54321u}, {0x7f900000u, 0x7fd00000u},
};

TEST(KernelsTest, TanhMatchesRecordedLibmValues) {
  std::vector<float> x, want;
  for (const auto& pair : kRecordedTanhf) {
    x.push_back(std::bit_cast<float>(pair[0]));
    want.push_back(std::bit_cast<float>(pair[1]));
  }
  std::vector<std::pair<const char*, void (*)(size_t, const float*, float*)>>
      tanhs = {{"scalar", scalar::Tanh}};
  for (const auto& [name, table] : Tiers()) {
    tanhs.emplace_back(name, table->tanh);
  }
  for (const auto& [name, tanh] : tanhs) {
    std::vector<float> got(x.size());
    tanh(x.size(), x.data(), got.data());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(SameTanh(want[i], got[i]))
          << name << ": tanh(0x" << std::hex << std::bit_cast<uint32_t>(x[i])
          << ") = 0x" << std::bit_cast<uint32_t>(got[i]) << ", libm 0x"
          << std::bit_cast<uint32_t>(want[i]);
    }
  }
}

TEST(KernelsTest, AddBiasTanhTailsRunTheScalarPort) {
  // The scalar AddBiasTanh and the columns past the last full 8-lane block
  // of the AVX2 one equal scalar::Tanh(x + bias) bit for bit.
  Rng rng(107);
  const int rows = 3, cols = 13;
  auto x = RandomVec(static_cast<size_t>(rows) * cols, &rng);
  for (float& v : x) v *= 4.0f;
  auto bias = RandomVec(cols, &rng);
  std::vector<float> want(x.size());
  for (size_t i = 0; i < x.size(); ++i) want[i] = x[i] + bias[i % cols];
  scalar::Tanh(want.size(), want.data(), want.data());
  std::vector<float> got(x.size());
  scalar::AddBiasTanh(rows, cols, x.data(), bias.data(), got.data());
  EXPECT_TRUE(SameBits(got, want));
  if (const KernelDispatch* simd = avx2::Table()) {
    simd->add_bias_tanh(rows, cols, x.data(), bias.data(), got.data());
    for (size_t i = 0; i < x.size(); ++i) {
      if (static_cast<int>(i % cols) < 8) continue;
      EXPECT_TRUE(SameTanh(want[i], got[i])) << "avx2 tail index " << i;
    }
  }
}

}  // namespace
}  // namespace alicoco::nn::kernels
