#include "eval/metrics.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"

namespace alicoco::eval {
namespace {

// Candidate indices sorted by descending score (stable for determinism).
std::vector<size_t> RankOrder(const std::vector<double>& scores) {
  std::vector<size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return scores[a] > scores[b]; });
  return idx;
}

}  // namespace

double AveragePrecision(const RankedQuery& q) {
  ALICOCO_CHECK(q.scores.size() == q.labels.size());
  auto order = RankOrder(q.scores);
  size_t hits = 0;
  double sum = 0.0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    if (q.labels[order[rank]] > 0) {
      ++hits;
      sum += static_cast<double>(hits) / static_cast<double>(rank + 1);
    }
  }
  return hits == 0 ? 0.0 : sum / static_cast<double>(hits);
}

double ReciprocalRank(const RankedQuery& q) {
  ALICOCO_CHECK(q.scores.size() == q.labels.size());
  auto order = RankOrder(q.scores);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    if (q.labels[order[rank]] > 0) return 1.0 / static_cast<double>(rank + 1);
  }
  return 0.0;
}

double PrecisionAtK(const RankedQuery& q, size_t k) {
  ALICOCO_CHECK(q.scores.size() == q.labels.size());
  if (k == 0) return 0.0;
  auto order = RankOrder(q.scores);
  size_t take = std::min(k, order.size());
  size_t hits = 0;
  for (size_t rank = 0; rank < take; ++rank) {
    if (q.labels[order[rank]] > 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

double MeanAveragePrecision(const std::vector<RankedQuery>& qs) {
  if (qs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& q : qs) sum += AveragePrecision(q);
  return sum / static_cast<double>(qs.size());
}

double MeanReciprocalRank(const std::vector<RankedQuery>& qs) {
  if (qs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& q : qs) sum += ReciprocalRank(q);
  return sum / static_cast<double>(qs.size());
}

double MeanPrecisionAtK(const std::vector<RankedQuery>& qs, size_t k) {
  if (qs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& q : qs) sum += PrecisionAtK(q, k);
  return sum / static_cast<double>(qs.size());
}

double Auc(const std::vector<double>& scores, const std::vector<int>& labels) {
  ALICOCO_CHECK(scores.size() == labels.size());
  size_t n = scores.size();
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  // Assign average ranks to ties, accumulate positive-rank sum
  // (Mann-Whitney U statistic).
  double rank_sum_pos = 0.0;
  size_t n_pos = 0, n_neg = 0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && scores[idx[j]] == scores[idx[i]]) ++j;
    double avg_rank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k < j; ++k) {
      if (labels[idx[k]] > 0) {
        rank_sum_pos += avg_rank;
        ++n_pos;
      } else {
        ++n_neg;
      }
    }
    i = j;
  }
  if (n_pos == 0 || n_neg == 0) return 0.5;
  double u = rank_sum_pos - static_cast<double>(n_pos) *
                                (static_cast<double>(n_pos) + 1) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

BinaryMetrics ComputeBinaryMetrics(const std::vector<double>& scores,
                                   const std::vector<int>& labels,
                                   double threshold) {
  ALICOCO_CHECK(scores.size() == labels.size());
  BinaryMetrics m;
  for (size_t i = 0; i < scores.size(); ++i) {
    bool pred = scores[i] >= threshold;
    bool gold = labels[i] > 0;
    if (pred && gold) ++m.tp;
    else if (pred && !gold) ++m.fp;
    else if (!pred && gold) ++m.fn;
    else ++m.tn;
  }
  double tp = static_cast<double>(m.tp);
  m.precision = (m.tp + m.fp) ? tp / static_cast<double>(m.tp + m.fp) : 0.0;
  m.recall = (m.tp + m.fn) ? tp / static_cast<double>(m.tp + m.fn) : 0.0;
  m.f1 = (m.precision + m.recall) > 0
             ? 2 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  size_t total = m.tp + m.fp + m.tn + m.fn;
  m.accuracy = total ? static_cast<double>(m.tp + m.tn) /
                           static_cast<double>(total)
                     : 0.0;
  return m;
}

std::vector<Span> DecodeIob(const std::vector<std::string>& tags) {
  std::vector<Span> spans;
  bool open = false;
  Span cur;
  auto close = [&](size_t end) {
    if (open) {
      cur.end = end;
      spans.push_back(cur);
      open = false;
    }
  };
  for (size_t i = 0; i < tags.size(); ++i) {
    const std::string& t = tags[i];
    if (t == "O" || t.empty()) {
      close(i);
    } else if (t.size() > 2 && t[1] == '-') {
      std::string type = t.substr(2);
      if (t[0] == 'B' || !open || cur.type != type) {
        close(i);
        cur = Span{i, i + 1, type};
        open = true;
      }
      // 'I-' of the same type extends the open span.
    } else {
      close(i);
    }
  }
  close(tags.size());
  return spans;
}

BinaryMetrics SpanF1(const std::vector<std::vector<std::string>>& gold,
                     const std::vector<std::vector<std::string>>& pred) {
  ALICOCO_CHECK(gold.size() == pred.size());
  BinaryMetrics m;
  for (size_t s = 0; s < gold.size(); ++s) {
    auto g = DecodeIob(gold[s]);
    auto p = DecodeIob(pred[s]);
    std::vector<bool> matched(g.size(), false);
    for (const auto& ps : p) {
      bool hit = false;
      for (size_t i = 0; i < g.size(); ++i) {
        if (!matched[i] && g[i] == ps) {
          matched[i] = true;
          hit = true;
          break;
        }
      }
      if (hit) ++m.tp;
      else ++m.fp;
    }
    for (bool b : matched) {
      if (!b) ++m.fn;
    }
  }
  double tp = static_cast<double>(m.tp);
  m.precision = (m.tp + m.fp) ? tp / static_cast<double>(m.tp + m.fp) : 0.0;
  m.recall = (m.tp + m.fn) ? tp / static_cast<double>(m.tp + m.fn) : 0.0;
  m.f1 = (m.precision + m.recall) > 0
             ? 2 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  return m;
}

ConfidenceInterval BootstrapCi(const std::vector<double>& values,
                               int iterations, double confidence,
                               uint64_t seed) {
  ALICOCO_CHECK_GT(confidence, 0.0);
  ALICOCO_CHECK_LT(confidence, 1.0);
  ConfidenceInterval ci;
  if (values.empty() || iterations <= 0) return ci;
  ci.mean = Mean(values);
  Rng rng(seed);
  std::vector<double> means;
  means.reserve(static_cast<size_t>(iterations));
  for (int it = 0; it < iterations; ++it) {
    double acc = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      acc += values[rng.Uniform(values.size())];
    }
    means.push_back(acc / static_cast<double>(values.size()));
  }
  std::sort(means.begin(), means.end());
  double alpha = (1.0 - confidence) / 2.0;
  auto pick = [&](double q) {
    double pos = q * static_cast<double>(means.size() - 1);
    size_t idx = static_cast<size_t>(pos);
    return means[std::min(idx, means.size() - 1)];
  };
  ci.lo = pick(alpha);
  ci.hi = pick(1.0 - alpha);
  return ci;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace alicoco::eval
