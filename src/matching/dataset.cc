#include "matching/dataset.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace alicoco::matching {

MatchingDataset BuildMatchingDataset(const datagen::World& world,
                                     const MatchingDatasetConfig& config) {
  Rng rng(config.seed);
  const auto& net = world.net();
  MatchingDataset ds;

  // Concepts with at least one associated item.
  std::vector<const datagen::EcGold*> usable;
  usable.reserve(world.ec_gold().size());
  for (const auto& g : world.ec_gold()) {
    if (!g.items.empty()) usable.push_back(&g);
  }
  ALICOCO_CHECK(!usable.empty()) << "world has no associated concepts";
  std::vector<size_t> order(usable.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  constexpr double kTestConceptFraction = 0.3;  // concepts held out for test
  size_t n_test = static_cast<size_t>(kTestConceptFraction *
                                      static_cast<double>(usable.size()));

  const auto& items = world.item_profiles();
  auto add_pairs = [&](const datagen::EcGold& gold,
                       std::vector<MatchingExample>* out) {
    const auto& concept_tokens = net.Get(gold.id).tokens;
    std::unordered_set<uint32_t> positive_ids;
    for (kg::ItemId item : gold.items) positive_ids.insert(item.value);

    std::vector<kg::ItemId> positives = gold.items;
    rng.Shuffle(&positives);
    if (positives.size() > config.max_positives_per_concept) {
      positives.resize(config.max_positives_per_concept);
    }
    for (kg::ItemId item : positives) {
      out->push_back(MatchingExample{concept_tokens, net.Get(item).title,
                                     item.value, 1});
      constexpr int kNegativesPerPositive = 1;
      for (int n = 0; n < kNegativesPerPositive; ++n) {
        for (int attempt = 0; attempt < 32; ++attempt) {
          const auto& neg = items[rng.Uniform(items.size())];
          if (positive_ids.count(neg.id.value)) continue;
          out->push_back(MatchingExample{concept_tokens,
                                         net.Get(neg.id).title,
                                         neg.id.value, 0});
          break;
        }
      }
    }
  };

  // Scratch reused across ranking queries so the loop doesn't rebuild the
  // hash set and positive list per concept.
  std::unordered_set<uint32_t> positive_ids;
  std::vector<kg::ItemId> positives;
  for (size_t i = 0; i < order.size(); ++i) {
    const datagen::EcGold& gold = *usable[order[i]];
    bool is_test = i < n_test;
    add_pairs(gold, is_test ? &ds.test : &ds.train);
    if (is_test) {
      // Ranking query: a few positives among many random negatives.
      RankQuery q;
      q.concept_tokens = net.Get(gold.id).tokens;
      positive_ids.clear();
      for (kg::ItemId item : gold.items) positive_ids.insert(item.value);
      positives = gold.items;
      rng.Shuffle(&positives);
      size_t take = std::min<size_t>(positives.size(), 10);
      for (size_t p = 0; p < take; ++p) {
        q.item_tokens.push_back(net.Get(positives[p]).title);
        q.item_ids.push_back(positives[p].value);
        q.labels.push_back(1);
      }
      for (int n = 0; n < config.rank_candidates; ++n) {
        for (int attempt = 0; attempt < 32; ++attempt) {
          const auto& neg = items[rng.Uniform(items.size())];
          if (positive_ids.count(neg.id.value)) continue;
          q.item_tokens.push_back(net.Get(neg.id).title);
          q.item_ids.push_back(neg.id.value);
          q.labels.push_back(0);
          break;
        }
      }
      ds.rank_queries.push_back(std::move(q));
    }
  }
  return ds;
}

MatcherMetrics EvaluateMatcher(const Matcher& matcher,
                               const MatchingDataset& dataset,
                               double threshold) {
  MatcherMetrics m;
  std::vector<double> scores;
  std::vector<int> labels;
  scores.reserve(dataset.test.size());
  labels.reserve(dataset.test.size());
  for (const auto& ex : dataset.test) {
    scores.push_back(
        matcher.Score(ex.concept_tokens, ex.item_tokens, ex.item_id));
    labels.push_back(ex.label);
  }
  m.auc = eval::Auc(scores, labels);
  m.f1 = eval::ComputeBinaryMetrics(scores, labels, threshold).f1;

  std::vector<eval::RankedQuery> ranked;
  ranked.reserve(dataset.rank_queries.size());
  for (const auto& q : dataset.rank_queries) {
    eval::RankedQuery rq;
    rq.labels = q.labels;
    for (size_t i = 0; i < q.item_tokens.size(); ++i) {
      rq.scores.push_back(
          matcher.Score(q.concept_tokens, q.item_tokens[i], q.item_ids[i]));
    }
    ranked.push_back(std::move(rq));
  }
  m.p_at_10 = eval::MeanPrecisionAtK(ranked, 10);
  return m;
}

}  // namespace alicoco::matching
