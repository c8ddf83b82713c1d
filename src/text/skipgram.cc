#include "text/skipgram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace alicoco::text {
namespace {
constexpr size_t kNegTableSize = 1 << 18;

inline float FastSigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}
}  // namespace

SkipgramModel::SkipgramModel(int vocab_size, const SkipgramConfig& config)
    : vocab_size_(vocab_size), config_(config) {
  ALICOCO_CHECK(vocab_size > 0 && config.dim > 0);
  Rng rng(config.seed);
  size_t total = static_cast<size_t>(vocab_size) * config.dim;
  in_.resize(total);
  out_.assign(total, 0.0f);
  float bound = 0.5f / static_cast<float>(config.dim);
  for (auto& v : in_) v = rng.UniformFloat(-bound, bound);
}

void SkipgramModel::BuildNegativeTable(const Vocabulary& vocab) {
  neg_table_.clear();
  neg_table_.reserve(kNegTableSize);
  double total = 0.0;
  std::vector<double> pow_counts(static_cast<size_t>(vocab_size_), 0.0);
  for (int id = 2; id < vocab_size_; ++id) {  // skip <pad>/<unk>
    double c = std::pow(static_cast<double>(std::max<int64_t>(vocab.Count(id), 1)),
                        0.75);
    pow_counts[static_cast<size_t>(id)] = c;
    total += c;
  }
  if (total <= 0) {
    for (size_t i = 0; i < kNegTableSize; ++i) {
      neg_table_.push_back(2 + static_cast<int>(i % std::max(1, vocab_size_ - 2)));
    }
    return;
  }
  int id = 2;
  double acc = pow_counts[2] / total;
  for (size_t i = 0; i < kNegTableSize; ++i) {
    neg_table_.push_back(id);
    double frac = static_cast<double>(i + 1) / kNegTableSize;
    while (frac > acc && id < vocab_size_ - 1) {
      ++id;
      acc += pow_counts[static_cast<size_t>(id)] / total;
    }
  }
}

void SkipgramModel::TrainPair(int center, int context, float lr, Rng* rng) {
  int d = config_.dim;
  float* v_in = &in_[static_cast<size_t>(center) * d];
  std::vector<float> grad_in(static_cast<size_t>(d), 0.0f);
  constexpr int kNegatives = 5;  ///< negative samples per positive
  constexpr int kRows = kNegatives + 1;
  // The positive row, then the negatives, all drawn before any arithmetic
  // (no draw depends on a dot); -1 marks a negative equal to the context,
  // which is skipped.
  int targets[kRows] = {context};
  bool distinct = true;
  for (int n = 1; n < kRows; ++n) {
    targets[n] = neg_table_[rng->Uniform(neg_table_.size())];
    if (targets[n] == context) {
      targets[n] = -1;
      distinct = false;
    }
    for (int m = 1; m < n; ++m) distinct &= targets[m] != targets[n];
  }
  // v_in changes only after the loop below, and row n's update touches only
  // row n. So when the six rows differ, each dot can be taken before any
  // update: one pass over k with six accumulators, each adding in the same
  // k order as the loop. Otherwise a row's dot must see the updates before
  // it, and the loop takes it in turn.
  float dots[kRows] = {};
  if (distinct) {
    const float* rows[kRows];
    for (int n = 0; n < kRows; ++n) {
      rows[n] = &out_[static_cast<size_t>(targets[n]) * d];
    }
    for (int k = 0; k < d; ++k) {
      const float x = v_in[k];
      dots[0] += x * rows[0][k];
      dots[1] += x * rows[1][k];
      dots[2] += x * rows[2][k];
      dots[3] += x * rows[3][k];
      dots[4] += x * rows[4][k];
      dots[5] += x * rows[5][k];
    }
  }
  for (int n = 0; n < kRows; ++n) {
    const int target = targets[n];
    if (target < 0) continue;
    const float label = n == 0 ? 1.0f : 0.0f;
    float* v_out = &out_[static_cast<size_t>(target) * d];
    float dot = dots[n];
    if (!distinct) {
      for (int k = 0; k < d; ++k) dot += v_in[k] * v_out[k];
    }
    float g = (label - FastSigmoid(dot)) * lr;
    for (int k = 0; k < d; ++k) {
      grad_in[static_cast<size_t>(k)] += g * v_out[k];
      v_out[k] += g * v_in[k];
    }
  }
  for (int k = 0; k < d; ++k) v_in[k] += grad_in[static_cast<size_t>(k)];
}

void SkipgramModel::Train(const std::vector<std::vector<int>>& corpus,
                          const Vocabulary& vocab) {
  BuildNegativeTable(vocab);
  Rng rng(config_.seed ^ 0xABCDEF);
  int64_t total_tokens = 0;
  for (const auto& s : corpus) total_tokens += static_cast<int64_t>(s.size());
  int64_t trained = 0;
  int64_t budget = total_tokens * config_.epochs;
  double corpus_total = 0;
  for (int id = 0; id < vocab_size_; ++id) {
    corpus_total += static_cast<double>(vocab.Count(id));
  }

  constexpr float kLr = 0.05f;  ///< initial learning rate (linearly decayed)
  constexpr int kWindow = 4;    ///< max context offset
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const auto& sentence : corpus) {
      // Apply frequent-word subsampling to a working copy.
      std::vector<int> kept;
      kept.reserve(sentence.size());
      for (int id : sentence) {
        if (id <= Vocabulary::kUnkId || id >= vocab_size_) {
          ++trained;
          continue;
        }
        if (config_.subsample > 0 && corpus_total > 0) {
          double f = static_cast<double>(vocab.Count(id)) / corpus_total;
          if (f > config_.subsample) {
            double keep = std::sqrt(config_.subsample / f);
            if (rng.NextDouble() > keep) {
              ++trained;
              continue;
            }
          }
        }
        kept.push_back(id);
      }
      for (size_t i = 0; i < kept.size(); ++i) {
        float progress = static_cast<float>(trained) /
                         static_cast<float>(std::max<int64_t>(budget, 1));
        float lr = kLr * std::max(0.05f, 1.0f - progress);
        int win = 1 + static_cast<int>(
                          rng.Uniform(static_cast<uint64_t>(kWindow)));
        for (int off = -win; off <= win; ++off) {
          if (off == 0) continue;
          int64_t j = static_cast<int64_t>(i) + off;
          if (j < 0 || j >= static_cast<int64_t>(kept.size())) continue;
          TrainPair(kept[i], kept[static_cast<size_t>(j)], lr, &rng);
        }
        ++trained;
      }
    }
  }
}

const float* SkipgramModel::Embedding(int id) const {
  ALICOCO_CHECK(id >= 0 && id < vocab_size_);
  return &in_[static_cast<size_t>(id) * config_.dim];
}

float SkipgramModel::Cosine(int a, int b) const {
  const float* va = Embedding(a);
  const float* vb = Embedding(b);
  float dot = 0, na = 0, nb = 0;
  for (int k = 0; k < config_.dim; ++k) {
    dot += va[k] * vb[k];
    na += va[k] * va[k];
    nb += vb[k] * vb[k];
  }
  if (na <= 0 || nb <= 0) return 0.0f;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<int> SkipgramModel::Nearest(int id, size_t k) const {
  std::vector<std::pair<float, int>> scored;
  scored.reserve(static_cast<size_t>(vocab_size_));
  for (int other = 2; other < vocab_size_; ++other) {
    if (other == id) continue;
    scored.emplace_back(Cosine(id, other), other);
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + std::min(k, scored.size()), scored.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<int> out;
  for (size_t i = 0; i < std::min(k, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace alicoco::text
