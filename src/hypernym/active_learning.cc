#include "hypernym/active_learning.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace alicoco::hypernym {

const char* StrategyName(SamplingStrategy s) {
  switch (s) {
    case SamplingStrategy::kRandom:
      return "Random";
    case SamplingStrategy::kUncertainty:
      return "US";
    case SamplingStrategy::kConfidence:
      return "CS";
    case SamplingStrategy::kUcs:
      return "UCS";
  }
  return "?";
}

HypernymDataset BuildHypernymDataset(
    const std::vector<datagen::HypernymGold>& gold,
    const std::vector<std::string>& vocabulary, int negatives_per_positive,
    int test_candidates, uint64_t seed) {
  ALICOCO_CHECK(!gold.empty() && !vocabulary.empty());
  Rng rng(seed);
  HypernymDataset ds;

  // Gold hypernym lookup for clean negative sampling.
  std::unordered_set<std::string> positive_keys;
  for (const auto& g : gold) positive_keys.insert(g.hypo + "\t" + g.hyper);
  auto is_positive = [&](const std::string& hypo, const std::string& hyper) {
    return positive_keys.count(hypo + "\t" + hyper) > 0;
  };
  auto random_negative = [&](const std::string& hypo) -> std::string {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::string& cand = vocabulary[rng.Uniform(vocabulary.size())];
      if (cand != hypo && !is_positive(hypo, cand)) return cand;
    }
    return vocabulary[rng.Uniform(vocabulary.size())];
  };

  // 7:2:1 split of positives.
  std::vector<size_t> order(gold.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  size_t n_train = gold.size() * 7 / 10;
  size_t n_val = gold.size() * 2 / 10;

  for (size_t i = 0; i < order.size(); ++i) {
    const auto& g = gold[order[i]];
    if (i < n_train) {
      ds.pool.push_back(LabeledPair{g.hypo, g.hyper, 1});
      for (int k = 0; k < negatives_per_positive; ++k) {
        ds.pool.push_back(LabeledPair{g.hypo, random_negative(g.hypo), 0});
      }
    } else if (i < n_train + n_val) {
      ds.validation.push_back(LabeledPair{g.hypo, g.hyper, 1});
      for (int k = 0; k < negatives_per_positive; ++k) {
        ds.validation.push_back(
            LabeledPair{g.hypo, random_negative(g.hypo), 0});
      }
    } else {
      RankingTestQuery q;
      q.hypo = g.hypo;
      q.candidates.push_back(g.hyper);
      q.labels.push_back(1);
      // Other gold hypernyms of this hyponym count as relevant too.
      for (const auto& g2 : gold) {
        if (g2.hypo == g.hypo && g2.hyper != g.hyper) {
          q.candidates.push_back(g2.hyper);
          q.labels.push_back(1);
        }
      }
      for (int k = 0; k < test_candidates; ++k) {
        q.candidates.push_back(random_negative(g.hypo));
        q.labels.push_back(0);
      }
      ds.test.push_back(std::move(q));
    }
  }
  return ds;
}

RankingMetrics TrainOnPoolAndEvaluate(const text::SkipgramModel* embeddings,
                                      const text::Vocabulary* vocab,
                                      const ProjectionConfig& model_config,
                                      const HypernymDataset& dataset) {
  ProjectionModel model(embeddings, vocab, model_config);
  model.Train(dataset.pool);
  return EvaluateRanking(model, dataset.test);
}

size_t ActiveLearningResult::LabeledToReach(double target_map) const {
  for (const auto& r : rounds) {
    if (r.metrics.map >= target_map) return r.labeled_total;
  }
  return 0;
}

ActiveLearner::ActiveLearner(const text::SkipgramModel* embeddings,
                             const text::Vocabulary* vocab,
                             const ActiveLearningConfig& config)
    : embeddings_(embeddings), vocab_(vocab), config_(config) {
  ALICOCO_CHECK(embeddings != nullptr && vocab != nullptr);
}

ActiveLearningResult ActiveLearner::Run(SamplingStrategy strategy,
                                        const HypernymDataset& dataset,
                                        uint64_t seed) const {
  Rng rng(seed);
  ActiveLearningResult result;

  std::vector<size_t> unlabeled(dataset.pool.size());
  std::iota(unlabeled.begin(), unlabeled.end(), 0);
  rng.Shuffle(&unlabeled);
  std::vector<LabeledPair> labeled;

  // Initial random batch (Algorithm 1, lines 3-7).
  size_t take = std::min(config_.per_round, unlabeled.size());
  for (size_t i = 0; i < take; ++i) {
    labeled.push_back(dataset.pool[unlabeled[unlabeled.size() - 1 - i]]);
  }
  unlabeled.resize(unlabeled.size() - take);

  double best_map = -1;
  int stale = 0;
  uint64_t round_seed = seed;
  for (int round = 0; round < config_.max_rounds; ++round) {
    ProjectionConfig mc = config_.model;
    mc.seed = round_seed++;  // fresh init each retrain, as in Algorithm 1
    ProjectionModel model(embeddings_, vocab_, mc);
    model.Train(labeled);
    RoundStats stats;
    stats.labeled_total = labeled.size();
    stats.metrics = EvaluateRanking(model, dataset.test);
    result.rounds.push_back(stats);

    if (stats.metrics.map > best_map + 1e-6) {
      best_map = stats.metrics.map;
      result.best_map = best_map;
      result.labeled_at_best = labeled.size();
      stale = 0;
    } else if (++stale >= config_.patience) {
      break;
    }
    if (unlabeled.empty()) break;

    // Score the remaining pool and pick the next batch (lines 9-12).
    std::vector<double> scores(unlabeled.size());
    for (size_t i = 0; i < unlabeled.size(); ++i) {
      const auto& pair = dataset.pool[unlabeled[i]];
      scores[i] = model.Score(pair.hypo, pair.hyper);
    }
    std::vector<size_t> pick_order(unlabeled.size());
    std::iota(pick_order.begin(), pick_order.end(), 0);
    size_t k = std::min(config_.per_round, unlabeled.size());

    auto certainty = [&](size_t i) { return std::fabs(scores[i] - 0.5) / 0.5; };
    switch (strategy) {
      case SamplingStrategy::kRandom:
        rng.Shuffle(&pick_order);
        pick_order.resize(k);
        break;
      case SamplingStrategy::kUncertainty:
        std::partial_sort(pick_order.begin(), pick_order.begin() + k,
                          pick_order.end(), [&](size_t a, size_t b) {
                            return certainty(a) < certainty(b);
                          });
        pick_order.resize(k);
        break;
      case SamplingStrategy::kConfidence:
        std::partial_sort(pick_order.begin(), pick_order.begin() + k,
                          pick_order.end(), [&](size_t a, size_t b) {
                            return scores[a] > scores[b];
                          });
        pick_order.resize(k);
        break;
      case SamplingStrategy::kUcs: {
        constexpr double kAlpha = 0.5;  ///< UCS mix
        size_t k_unc = static_cast<size_t>(kAlpha * k);
        size_t k_conf = k - k_unc;
        std::vector<size_t> by_unc = pick_order;
        std::partial_sort(by_unc.begin(),
                          by_unc.begin() + std::min(k_unc, by_unc.size()),
                          by_unc.end(), [&](size_t a, size_t b) {
                            return certainty(a) < certainty(b);
                          });
        std::unordered_set<size_t> chosen(by_unc.begin(),
                                          by_unc.begin() + k_unc);
        std::vector<size_t> by_conf = pick_order;
        std::sort(by_conf.begin(), by_conf.end(), [&](size_t a, size_t b) {
          return scores[a] > scores[b];
        });
        for (size_t i : by_conf) {
          if (chosen.size() >= k_unc + k_conf) break;
          chosen.insert(i);
        }
        pick_order.assign(chosen.begin(), chosen.end());
        break;
      }
    }

    // Move picked items into the labeled set (oracle reveals labels).
    std::unordered_set<size_t> picked_positions(pick_order.begin(),
                                                pick_order.end());
    std::vector<size_t> remaining;
    remaining.reserve(unlabeled.size());
    for (size_t i = 0; i < unlabeled.size(); ++i) {
      if (picked_positions.count(i)) {
        labeled.push_back(dataset.pool[unlabeled[i]]);
      } else {
        remaining.push_back(unlabeled[i]);
      }
    }
    unlabeled = std::move(remaining);
  }
  return result;
}

}  // namespace alicoco::hypernym
