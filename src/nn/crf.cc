#include "nn/crf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>
#include <utility>

namespace alicoco::nn {
namespace {
constexpr double kNegInf = -1e30;

double LogSumExp(const std::pmr::vector<double>& v) {
  double mx = kNegInf;
  for (double x : v) mx = std::max(mx, x);
  if (mx <= kNegInf / 2) return kNegInf;
  double acc = 0.0;
  for (double x : v) acc += std::exp(x - mx);
  return mx + std::log(acc);
}
}  // namespace

LinearChainCrf::LinearChainCrf(ParameterStore* store, const std::string& name,
                               int num_labels, Rng* rng)
    : num_labels_(num_labels) {
  trans_ = store->Create(name + ".trans", num_labels, num_labels,
                         ParameterStore::Init::kGaussian, rng, 0.05f);
  start_ = store->Create(name + ".start", 1, num_labels,
                         ParameterStore::Init::kGaussian, rng, 0.05f);
  end_ = store->Create(name + ".end", 1, num_labels,
                       ParameterStore::Init::kGaussian, rng, 0.05f);
}

std::pmr::vector<unsigned char> LinearChainCrf::AllowedMask(
    const std::vector<std::vector<int>>& sets,
    std::pmr::memory_resource* mr) const {
  const size_t ls = static_cast<size_t>(num_labels_);
  std::pmr::vector<unsigned char> mask(sets.size() * ls, 0, mr);
  for (size_t t = 0; t < sets.size(); ++t) {
    for (int j : sets[t]) {
      // A label outside [0, L) matches no state.
      if (j >= 0 && j < num_labels_) mask[t * ls + static_cast<size_t>(j)] = 1;
    }
  }
  return mask;
}

LinearChainCrf::Lattice LinearChainCrf::ForwardBackward(
    const Tensor& emissions, const unsigned char* allowed,
    std::pmr::memory_resource* mr) const {
  // Scaled-domain forward-backward: exp(trans) is materialized once and the
  // per-step recurrences become matrix-vector products over it, so the
  // transcendental count drops from O(T*L^2) to O(T*L + L^2). Each step
  // keeps a log-domain shift (the running max) for numerical stability —
  // terms far below the shift underflow to zero exactly as the log-domain
  // LogSumExp ignored them.
  int t_len = emissions.rows();
  int l = num_labels_;
  ALICOCO_CHECK(t_len > 0 && emissions.cols() == l);
  const size_t ls = static_cast<size_t>(l);
  const size_t cells = static_cast<size_t>(t_len) * ls;

  auto emit = [&](int t, int j) -> double {
    const bool ok = allowed == nullptr ||
                    allowed[static_cast<size_t>(t) * ls +
                            static_cast<size_t>(j)] != 0;
    return ok ? static_cast<double>(emissions.At(t, j)) : kNegInf;
  };

  // exp_trans[i][j] = exp(trans[i][j]); row-major.
  std::pmr::vector<double> exp_trans(ls * ls, mr);
  for (int i = 0; i < l; ++i) {
    for (int j = 0; j < l; ++j) {
      exp_trans[static_cast<size_t>(i) * ls + static_cast<size_t>(j)] =
          std::exp(static_cast<double>(trans_->value.At(i, j)));
    }
  }

  // Four T x L tables, row t at t * L: alpha[t][j] (log domain), beta, and
  // the scaled rows ua[t][j] = exp(alpha[t][j] - shift_a[t]) and ub (beta
  // + emit) reused by the recurrences and the marginals.
  std::pmr::vector<double> alpha(cells, kNegInf, mr);
  std::pmr::vector<double> beta(cells, kNegInf, mr);
  std::pmr::vector<double> ua(cells, kNegInf, mr);
  std::pmr::vector<double> ub(cells, kNegInf, mr);
  std::pmr::vector<double> shift_a(static_cast<size_t>(t_len), kNegInf, mr);
  std::pmr::vector<double> shift_b(static_cast<size_t>(t_len), kNegInf, mr);
  auto row = [ls](std::pmr::vector<double>& table, int t) {
    return table.data() + static_cast<size_t>(t) * ls;
  };

  auto scale_row = [l](const double* logs, double* shift, double* out) {
    double mx = kNegInf;
    for (int j = 0; j < l; ++j) mx = std::max(mx, logs[j]);
    *shift = mx;
    if (mx <= kNegInf / 2) {
      std::fill(out, out + l, 0.0);
      return;
    }
    for (int j = 0; j < l; ++j) {
      double x = logs[j];
      out[j] = x <= kNegInf / 2 ? 0.0 : std::exp(x - mx);
    }
  };

  for (int j = 0; j < l; ++j) {
    row(alpha, 0)[j] =
        static_cast<double>(start_->value.At(0, j)) + emit(0, j);
  }
  scale_row(row(alpha, 0), &shift_a[0], row(ua, 0));
  std::pmr::vector<double> scratch(ls, mr);
  for (int t = 1; t < t_len; ++t) {
    const double* u = row(ua, t - 1);
    const double shift = shift_a[static_cast<size_t>(t - 1)];
    // scratch[j] = sum_i u[i] * exp_trans[i][j]  (vector * matrix).
    std::fill(scratch.begin(), scratch.end(), 0.0);
    for (int i = 0; i < l; ++i) {
      const double ui = u[i];
      if (ui == 0.0) continue;
      const double* __restrict er = exp_trans.data() +
                                    static_cast<size_t>(i) * ls;
      double* __restrict sr = scratch.data();
      for (int j = 0; j < l; ++j) sr[j] += ui * er[j];
    }
    double* at = row(alpha, t);
    for (int j = 0; j < l; ++j) {
      double ej = emit(t, j);
      double s = scratch[static_cast<size_t>(j)];
      at[j] = (ej <= kNegInf / 2 || s <= 0.0 || shift <= kNegInf / 2)
                  ? kNegInf
                  : shift + std::log(s) + ej;
    }
    scale_row(at, &shift_a[static_cast<size_t>(t)], row(ua, t));
  }
  for (int j = 0; j < l; ++j) {
    scratch[static_cast<size_t>(j)] =
        row(alpha, t_len - 1)[j] + static_cast<double>(end_->value.At(0, j));
  }
  double log_z = LogSumExp(scratch);
  ALICOCO_CHECK(log_z > kNegInf / 2) << "CRF lattice has no allowed path";

  // Backward pass; ub[t][j] = exp(emit(t, j) + beta[t][j] - shift_b[t]).
  std::pmr::vector<double> logs(ls, mr);
  for (int j = 0; j < l; ++j) {
    row(beta, t_len - 1)[j] = static_cast<double>(end_->value.At(0, j));
    logs[static_cast<size_t>(j)] =
        row(beta, t_len - 1)[j] + emit(t_len - 1, j);
  }
  scale_row(logs.data(), &shift_b[static_cast<size_t>(t_len - 1)],
            row(ub, t_len - 1));
  for (int t = t_len - 2; t >= 0; --t) {
    const double* w = row(ub, t + 1);
    const double shift = shift_b[static_cast<size_t>(t + 1)];
    double* bt = row(beta, t);
    for (int i = 0; i < l; ++i) {
      const double* __restrict er = exp_trans.data() +
                                    static_cast<size_t>(i) * ls;
      const double* __restrict wr = w;
      double acc = 0.0;
      for (int j = 0; j < l; ++j) acc += er[j] * wr[j];
      bt[i] = (acc <= 0.0 || shift <= kNegInf / 2) ? kNegInf
                                                   : shift + std::log(acc);
    }
    for (int j = 0; j < l; ++j) {
      logs[static_cast<size_t>(j)] = bt[j] + emit(t, j);
    }
    scale_row(logs.data(), &shift_b[static_cast<size_t>(t)], row(ub, t));
  }

  Lattice lat{log_z, Tensor(t_len, l, mr), Tensor(l, l, mr)};
  for (int t = 0; t < t_len; ++t) {
    const double* at = row(alpha, t);
    const double* bt = row(beta, t);
    for (int j = 0; j < l; ++j) {
      double lp = at[j] + bt[j] - log_z;
      lat.unary.At(t, j) = lp <= kNegInf / 2
                               ? 0.0f
                               : static_cast<float>(std::exp(lp));
    }
  }
  // pair[i][j] += exp(alpha[t-1][i] + trans[i][j] + emit(t,j) + beta[t][j]
  //                   - log_z)
  //            = ua[t-1][i] * exp_trans[i][j] * ub[t][j] * scale_t:
  // a rank-1-weighted Hadamard accumulation, no transcendentals.
  for (int t = 1; t < t_len; ++t) {
    const double sa = shift_a[static_cast<size_t>(t - 1)];
    const double sb = shift_b[static_cast<size_t>(t)];
    if (sa <= kNegInf / 2 || sb <= kNegInf / 2) continue;
    const double scale_t = std::exp(sa + sb - log_z);
    const double* u = row(ua, t - 1);
    const double* w = row(ub, t);
    for (int i = 0; i < l; ++i) {
      const double uf = u[i] * scale_t;
      if (uf == 0.0) continue;
      const double* __restrict er = exp_trans.data() +
                                    static_cast<size_t>(i) * ls;
      const double* __restrict wr = w;
      float* __restrict pr = lat.pair.Row(i);
      for (int j = 0; j < l; ++j) {
        pr[j] += static_cast<float>(uf * er[j] * wr[j]);
      }
    }
  }
  return lat;
}

Graph::Var LinearChainCrf::LatticeLoss(Graph* g, Graph::Var emissions,
                                        const unsigned char* numerator) {
  const Tensor& e = g->Value(emissions);
  int t_len = e.rows();
  std::pmr::memory_resource* mr = g->arena();
  Lattice full = ForwardBackward(e, nullptr, mr);
  Lattice restricted = ForwardBackward(e, numerator, mr);

  Tensor loss(1, 1, mr);
  loss.At(0, 0) = static_cast<float>(full.log_z - restricted.log_z);

  // d loss / d emissions = unary_full - unary_restricted (x upstream grad);
  // same pattern for transitions, start, end.
  Tensor d_start(1, num_labels_, mr);
  Tensor d_end(1, num_labels_, mr);
  for (int j = 0; j < num_labels_; ++j) {
    d_start.At(0, j) = full.unary.At(0, j) - restricted.unary.At(0, j);
    d_end.At(0, j) =
        full.unary.At(t_len - 1, j) - restricted.unary.At(t_len - 1, j);
  }
  Tensor d_emit = std::move(full.unary);
  d_emit.Axpy(-1.0f, restricted.unary);
  Tensor d_trans = std::move(full.pair);
  d_trans.Axpy(-1.0f, restricted.pair);

  Parameter* trans = trans_;
  Parameter* start = start_;
  Parameter* end = end_;
  return g->Custom(
      std::move(loss),
      [g, emissions, trans, start, end, d_emit = std::move(d_emit),
       d_trans = std::move(d_trans), d_start = std::move(d_start),
       d_end = std::move(d_end)](const Tensor& out_grad) {
        float go = out_grad.At(0, 0);
        if (go == 0.0f) return;
        Tensor scaled(d_emit, g->arena());
        scaled.Scale(go);
        g->AccumulateGrad(emissions, scaled);
        g->ParamGrad(trans)->Axpy(go, d_trans);
        g->ParamGrad(start)->Axpy(go, d_start);
        g->ParamGrad(end)->Axpy(go, d_end);
      });
}

Graph::Var LinearChainCrf::NegLogLikelihood(Graph* g, Graph::Var emissions,
                                            const std::vector<int>& gold) {
  const size_t ls = static_cast<size_t>(num_labels_);
  std::pmr::vector<unsigned char> numerator(gold.size() * ls, 0, g->arena());
  for (size_t t = 0; t < gold.size(); ++t) {
    const int y = gold[t];
    ALICOCO_CHECK(y >= 0 && y < num_labels_) << "gold label out of range";
    numerator[t * ls + static_cast<size_t>(y)] = 1;
  }
  ALICOCO_CHECK(static_cast<int>(gold.size()) == g->Value(emissions).rows())
      << "numerator set size mismatch";
  return LatticeLoss(g, emissions, numerator.data());
}

Graph::Var LinearChainCrf::FuzzyNegLogLikelihood(
    Graph* g, Graph::Var emissions,
    const std::vector<std::vector<int>>& allowed) {
  for (const auto& set : allowed) {
    ALICOCO_CHECK(!set.empty()) << "fuzzy CRF requires non-empty label sets";
  }
  ALICOCO_CHECK(static_cast<int>(allowed.size()) ==
                g->Value(emissions).rows())
      << "numerator set size mismatch";
  return LatticeLoss(g, emissions, AllowedMask(allowed, g->arena()).data());
}

std::vector<int> LinearChainCrf::Viterbi(const Tensor& emissions) const {
  int t_len = emissions.rows();
  int l = num_labels_;
  ALICOCO_CHECK(t_len > 0 && emissions.cols() == l);
  // T x L tables, row t at t * L.
  const size_t ls = static_cast<size_t>(l);
  std::vector<double> delta(static_cast<size_t>(t_len) * ls);
  std::vector<int> back(static_cast<size_t>(t_len) * ls, 0);
  for (int j = 0; j < l; ++j) {
    delta[static_cast<size_t>(j)] =
        static_cast<double>(start_->value.At(0, j)) +
        static_cast<double>(emissions.At(0, j));
  }
  for (int t = 1; t < t_len; ++t) {
    const double* prev = delta.data() + static_cast<size_t>(t - 1) * ls;
    double* cur = delta.data() + static_cast<size_t>(t) * ls;
    int* bt = back.data() + static_cast<size_t>(t) * ls;
    for (int j = 0; j < l; ++j) {
      double best = kNegInf;
      int arg = 0;
      for (int i = 0; i < l; ++i) {
        double s = prev[i] + static_cast<double>(trans_->value.At(i, j));
        if (s > best) {
          best = s;
          arg = i;
        }
      }
      cur[j] = best + static_cast<double>(emissions.At(t, j));
      bt[j] = arg;
    }
  }
  const double* last = delta.data() + static_cast<size_t>(t_len - 1) * ls;
  double best = kNegInf;
  int arg = 0;
  for (int j = 0; j < l; ++j) {
    double s = last[j] + static_cast<double>(end_->value.At(0, j));
    if (s > best) {
      best = s;
      arg = j;
    }
  }
  std::vector<int> path(static_cast<size_t>(t_len));
  path[static_cast<size_t>(t_len - 1)] = arg;
  for (int t = t_len - 1; t > 0; --t) {
    arg = back[static_cast<size_t>(t) * ls + static_cast<size_t>(arg)];
    path[static_cast<size_t>(t - 1)] = arg;
  }
  return path;
}

}  // namespace alicoco::nn
