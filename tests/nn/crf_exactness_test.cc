// The CRF's flat T x L lattice buffers and label masks compute exactly what
// the nested per-row vectors and label-set searches they replaced computed.
// The nested-vector forward-backward and Viterbi are kept here as the
// reference, and every figure must match bit for bit: log Z, the unary and
// pairwise marginals, and the path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory_resource>
#include <vector>

#include "common/rng.h"
#include "nn/crf.h"

namespace alicoco::nn {

class LinearChainCrfTestPeer {
 public:
  struct Lattice {
    double log_z;
    Tensor unary;
    Tensor pair;
  };
  static Lattice ForwardBackward(const LinearChainCrf& crf, const Tensor& e,
                                 const std::vector<std::vector<int>>* allowed,
                                 std::pmr::memory_resource* mr) {
    std::pmr::vector<unsigned char> mask(mr);
    if (allowed != nullptr) mask = crf.AllowedMask(*allowed, mr);
    LinearChainCrf::Lattice lat = crf.ForwardBackward(
        e, allowed != nullptr ? mask.data() : nullptr, mr);
    return {lat.log_z, Tensor(lat.unary), Tensor(lat.pair)};
  }
};

namespace {

constexpr double kNegInf = -1e30;

double RefLogSumExp(const std::vector<double>& v) {
  double mx = kNegInf;
  for (double x : v) mx = std::max(mx, x);
  if (mx <= kNegInf / 2) return kNegInf;
  double acc = 0.0;
  for (double x : v) acc += std::exp(x - mx);
  return mx + std::log(acc);
}

// The nested-vector forward-backward, as LinearChainCrf ran it before its
// tables became flat buffers.
LinearChainCrfTestPeer::Lattice RefForwardBackward(
    const Tensor& trans, const Tensor& start, const Tensor& end,
    const Tensor& emissions, const std::vector<std::vector<int>>* allowed) {
  int t_len = emissions.rows();
  int l = trans.rows();
  const size_t ls = static_cast<size_t>(l);
  auto is_allowed = [&](int t, int j) {
    if (allowed == nullptr) return true;
    const auto& set = (*allowed)[static_cast<size_t>(t)];
    return std::find(set.begin(), set.end(), j) != set.end();
  };
  auto emit = [&](int t, int j) -> double {
    return is_allowed(t, j) ? static_cast<double>(emissions.At(t, j))
                            : kNegInf;
  };
  std::vector<double> exp_trans(ls * ls);
  for (int i = 0; i < l; ++i) {
    for (int j = 0; j < l; ++j) {
      exp_trans[static_cast<size_t>(i) * ls + static_cast<size_t>(j)] =
          std::exp(static_cast<double>(trans.At(i, j)));
    }
  }
  std::vector<std::vector<double>> alpha(
      static_cast<size_t>(t_len), std::vector<double>(ls, kNegInf));
  std::vector<std::vector<double>> beta = alpha;
  std::vector<std::vector<double>> ua = alpha;
  std::vector<std::vector<double>> ub = alpha;
  std::vector<double> shift_a(static_cast<size_t>(t_len), kNegInf);
  std::vector<double> shift_b(static_cast<size_t>(t_len), kNegInf);
  auto scale_row = [l](const std::vector<double>& logs, double* shift,
                       std::vector<double>* out) {
    double mx = kNegInf;
    for (int j = 0; j < l; ++j) mx = std::max(mx, logs[static_cast<size_t>(j)]);
    *shift = mx;
    if (mx <= kNegInf / 2) {
      std::fill(out->begin(), out->end(), 0.0);
      return;
    }
    for (int j = 0; j < l; ++j) {
      double x = logs[static_cast<size_t>(j)];
      (*out)[static_cast<size_t>(j)] = x <= kNegInf / 2 ? 0.0
                                                        : std::exp(x - mx);
    }
  };
  for (int j = 0; j < l; ++j) {
    alpha[0][static_cast<size_t>(j)] =
        static_cast<double>(start.At(0, j)) + emit(0, j);
  }
  scale_row(alpha[0], &shift_a[0], &ua[0]);
  std::vector<double> scratch(ls);
  for (int t = 1; t < t_len; ++t) {
    const std::vector<double>& u = ua[static_cast<size_t>(t - 1)];
    const double shift = shift_a[static_cast<size_t>(t - 1)];
    std::fill(scratch.begin(), scratch.end(), 0.0);
    for (int i = 0; i < l; ++i) {
      const double ui = u[static_cast<size_t>(i)];
      if (ui == 0.0) continue;
      const double* __restrict er = exp_trans.data() +
                                    static_cast<size_t>(i) * ls;
      double* __restrict sr = scratch.data();
      for (int j = 0; j < l; ++j) sr[j] += ui * er[j];
    }
    for (int j = 0; j < l; ++j) {
      double ej = emit(t, j);
      double s = scratch[static_cast<size_t>(j)];
      alpha[static_cast<size_t>(t)][static_cast<size_t>(j)] =
          (ej <= kNegInf / 2 || s <= 0.0 || shift <= kNegInf / 2)
              ? kNegInf
              : shift + std::log(s) + ej;
    }
    scale_row(alpha[static_cast<size_t>(t)], &shift_a[static_cast<size_t>(t)],
              &ua[static_cast<size_t>(t)]);
  }
  for (int j = 0; j < l; ++j) {
    scratch[static_cast<size_t>(j)] =
        alpha[static_cast<size_t>(t_len - 1)][static_cast<size_t>(j)] +
        static_cast<double>(end.At(0, j));
  }
  double log_z = RefLogSumExp(scratch);
  std::vector<double> logs(ls);
  for (int j = 0; j < l; ++j) {
    beta[static_cast<size_t>(t_len - 1)][static_cast<size_t>(j)] =
        static_cast<double>(end.At(0, j));
    logs[static_cast<size_t>(j)] =
        beta[static_cast<size_t>(t_len - 1)][static_cast<size_t>(j)] +
        emit(t_len - 1, j);
  }
  scale_row(logs, &shift_b[static_cast<size_t>(t_len - 1)],
            &ub[static_cast<size_t>(t_len - 1)]);
  for (int t = t_len - 2; t >= 0; --t) {
    const std::vector<double>& w = ub[static_cast<size_t>(t + 1)];
    const double shift = shift_b[static_cast<size_t>(t + 1)];
    for (int i = 0; i < l; ++i) {
      const double* __restrict er = exp_trans.data() +
                                    static_cast<size_t>(i) * ls;
      const double* __restrict wr = w.data();
      double acc = 0.0;
      for (int j = 0; j < l; ++j) acc += er[j] * wr[j];
      beta[static_cast<size_t>(t)][static_cast<size_t>(i)] =
          (acc <= 0.0 || shift <= kNegInf / 2) ? kNegInf
                                               : shift + std::log(acc);
    }
    for (int j = 0; j < l; ++j) {
      logs[static_cast<size_t>(j)] =
          beta[static_cast<size_t>(t)][static_cast<size_t>(j)] + emit(t, j);
    }
    scale_row(logs, &shift_b[static_cast<size_t>(t)],
              &ub[static_cast<size_t>(t)]);
  }
  LinearChainCrfTestPeer::Lattice lat{log_z, Tensor(t_len, l), Tensor(l, l)};
  for (int t = 0; t < t_len; ++t) {
    for (int j = 0; j < l; ++j) {
      double lp = alpha[static_cast<size_t>(t)][static_cast<size_t>(j)] +
                  beta[static_cast<size_t>(t)][static_cast<size_t>(j)] - log_z;
      lat.unary.At(t, j) = lp <= kNegInf / 2
                               ? 0.0f
                               : static_cast<float>(std::exp(lp));
    }
  }
  for (int t = 1; t < t_len; ++t) {
    const double sa = shift_a[static_cast<size_t>(t - 1)];
    const double sb = shift_b[static_cast<size_t>(t)];
    if (sa <= kNegInf / 2 || sb <= kNegInf / 2) continue;
    const double scale_t = std::exp(sa + sb - log_z);
    const std::vector<double>& u = ua[static_cast<size_t>(t - 1)];
    const std::vector<double>& w = ub[static_cast<size_t>(t)];
    for (int i = 0; i < l; ++i) {
      const double uf = u[static_cast<size_t>(i)] * scale_t;
      if (uf == 0.0) continue;
      const double* __restrict er = exp_trans.data() +
                                    static_cast<size_t>(i) * ls;
      const double* __restrict wr = w.data();
      float* __restrict pr = lat.pair.Row(i);
      for (int j = 0; j < l; ++j) {
        pr[j] += static_cast<float>(uf * er[j] * wr[j]);
      }
    }
  }
  return lat;
}

// The nested-vector Viterbi, as LinearChainCrf ran it before.
std::vector<int> RefViterbi(const Tensor& trans, const Tensor& start,
                            const Tensor& end, const Tensor& emissions) {
  int t_len = emissions.rows();
  int l = trans.rows();
  std::vector<std::vector<double>> delta(
      static_cast<size_t>(t_len), std::vector<double>(static_cast<size_t>(l)));
  std::vector<std::vector<int>> back(
      static_cast<size_t>(t_len), std::vector<int>(static_cast<size_t>(l), 0));
  for (int j = 0; j < l; ++j) {
    delta[0][static_cast<size_t>(j)] =
        static_cast<double>(start.At(0, j)) +
        static_cast<double>(emissions.At(0, j));
  }
  for (int t = 1; t < t_len; ++t) {
    for (int j = 0; j < l; ++j) {
      double best = kNegInf;
      int arg = 0;
      for (int i = 0; i < l; ++i) {
        double s = delta[static_cast<size_t>(t - 1)][static_cast<size_t>(i)] +
                   static_cast<double>(trans.At(i, j));
        if (s > best) {
          best = s;
          arg = i;
        }
      }
      delta[static_cast<size_t>(t)][static_cast<size_t>(j)] =
          best + static_cast<double>(emissions.At(t, j));
      back[static_cast<size_t>(t)][static_cast<size_t>(j)] = arg;
    }
  }
  double best = kNegInf;
  int arg = 0;
  for (int j = 0; j < l; ++j) {
    double s = delta[static_cast<size_t>(t_len - 1)][static_cast<size_t>(j)] +
               static_cast<double>(end.At(0, j));
    if (s > best) {
      best = s;
      arg = j;
    }
  }
  std::vector<int> path(static_cast<size_t>(t_len));
  path[static_cast<size_t>(t_len - 1)] = arg;
  for (int t = t_len - 1; t > 0; --t) {
    arg = back[static_cast<size_t>(t)][static_cast<size_t>(arg)];
    path[static_cast<size_t>(t - 1)] = arg;
  }
  return path;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void FillUniform(Tensor* t, float lo, float hi, Rng* rng) {
  for (size_t i = 0; i < t->size(); ++i) t->data()[i] = rng->UniformFloat(lo, hi);
}

// One label per step (the plain CRF's numerator) or a random non-empty
// subset per step (the fuzzy CRF's).
std::vector<std::vector<int>> LabelSets(int t_len, int l, bool fuzzy,
                                        Rng* rng) {
  std::vector<std::vector<int>> sets(static_cast<size_t>(t_len));
  for (auto& set : sets) {
    if (!fuzzy) {
      set.push_back(static_cast<int>(rng->UniformInt(0, l - 1)));
      continue;
    }
    for (int j = 0; j < l; ++j) {
      if (rng->Bernoulli(0.3)) set.push_back(j);
    }
    if (set.empty()) set.push_back(static_cast<int>(rng->UniformInt(0, l - 1)));
  }
  return sets;
}

TEST(CrfExactnessTest, FlatLatticeEqualsNestedReference) {
  std::pmr::unsynchronized_pool_resource pool;
  for (int l : {2, 5, 41}) {
    for (int t_len = 1; t_len <= 12; ++t_len) {
      // At scale 400, terms more than ~745 below a row's max underflow to
      // zero, which covers the recurrences' underflow branches.
      for (float scale : {1.0f, 4.0f, 400.0f}) {
        Rng rng(static_cast<uint64_t>(1000 * l + 10 * t_len) +
                static_cast<uint64_t>(scale));
        ParameterStore store;
        LinearChainCrf crf(&store, "crf", l, &rng);
        Tensor& trans = store.Get("crf.trans")->value;
        Tensor& start = store.Get("crf.start")->value;
        Tensor& end = store.Get("crf.end")->value;
        FillUniform(&trans, -2.0f, 2.0f, &rng);
        FillUniform(&start, -1.0f, 1.0f, &rng);
        FillUniform(&end, -1.0f, 1.0f, &rng);
        Tensor emissions(t_len, l);
        FillUniform(&emissions, -scale, scale, &rng);

        const auto plain = LabelSets(t_len, l, false, &rng);
        const auto fuzzy = LabelSets(t_len, l, true, &rng);
        for (const auto* allowed : {static_cast<const decltype(plain)*>(nullptr),
                                    &plain, &fuzzy}) {
          const auto want =
              RefForwardBackward(trans, start, end, emissions, allowed);
          // The heap and a pooled resource: where the buffers live must not
          // matter.
          for (std::pmr::memory_resource* mr :
               {std::pmr::get_default_resource(),
                static_cast<std::pmr::memory_resource*>(&pool)}) {
            const auto got =
                LinearChainCrfTestPeer::ForwardBackward(crf, emissions,
                                                        allowed, mr);
            const char* which = allowed == nullptr ? "full"
                                : allowed == &plain ? "plain"
                                                    : "fuzzy";
            EXPECT_EQ(std::memcmp(&got.log_z, &want.log_z, sizeof(double)), 0)
                << which << " L=" << l << " T=" << t_len << " scale=" << scale;
            EXPECT_TRUE(SameBits(got.unary, want.unary))
                << which << " L=" << l << " T=" << t_len << " scale=" << scale;
            EXPECT_TRUE(SameBits(got.pair, want.pair))
                << which << " L=" << l << " T=" << t_len << " scale=" << scale;
          }
        }
        EXPECT_EQ(crf.Viterbi(emissions),
                  RefViterbi(trans, start, end, emissions))
            << "L=" << l << " T=" << t_len << " scale=" << scale;
      }
    }
  }
}

}  // namespace
}  // namespace alicoco::nn
