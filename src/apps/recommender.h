// Cognitive recommendation (Section 8.2.1) vs item-CF.
//
// Baseline: classic item-based collaborative filtering over user click
// histories (Sarwar et al. 2001), the paper's "recommend items similar to
// those you viewed". Cognitive recommendation infers the user's needs —
// e-commerce concepts whose item sets the history hits most — and
// recommends the concept card plus its associated items. Metrics: needs-hit
// rate (did we surface a gold latent need?) and novelty (fraction of
// recommended items outside the history's category heads).

#ifndef ALICOCO_APPS_RECOMMENDER_H_
#define ALICOCO_APPS_RECOMMENDER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "datagen/world.h"
#include "kg/concept_net.h"
#include "obs/metrics.h"

namespace alicoco::apps {

/// Item-based CF on co-click counts with cosine normalization.
class ItemCf {
 public:
  /// Builds the similarity model from user histories.
  void Fit(const std::vector<datagen::UserHistory>& users);

  /// Top-k items similar to the user's clicked items (excluding them).
  std::vector<kg::ItemId> Recommend(const datagen::UserHistory& user,
                                    size_t k) const;

 private:
  // item -> (co-clicked item -> count)
  std::unordered_map<uint32_t, std::unordered_map<uint32_t, double>> sim_;
  std::unordered_map<uint32_t, double> norm_;
};

/// Concept-card recommendation over the concept net. Serving-path latency
/// lands in `metrics` under `serving.recommender.*` (Recommend latency
/// histogram plus request/card counters); nullptr, the default, records
/// none.
class CognitiveRecommender {
 public:
  /// Builds the read tables from `net` once. `net` must outlive the
  /// recommender and must not change after it is built: the tables are not
  /// refreshed, and recommending on a net that has gained e-commerce
  /// concepts or item-concept links since fails a CHECK.
  explicit CognitiveRecommender(const kg::ConceptNet* net,
                                obs::Registry* metrics = nullptr);

  struct ConceptCard {
    kg::EcConceptId concept_id;
    std::vector<kg::ItemId> items;  ///< representative associated items
    double score = 0;               ///< needs-inference strength
  };

  /// Infers the user's needs from clicked items (votes from item->concept
  /// edges, normalized by concept popularity) and returns the top cards.
  std::vector<ConceptCard> Recommend(const datagen::UserHistory& user,
                                     size_t num_cards,
                                     size_t items_per_card) const;

 private:
  const kg::ConceptNet* net_;
  // The read tables, indexed by e-commerce concept id: the vote weight
  // 1 / log2(2 + |items|) that damps popular concepts, and the concept's
  // items by descending edge probability (ItemsForEcRanked order) in
  // ranked_items_[row_begin_[ec] .. row_begin_[ec + 1]). A clicked item's
  // concepts are read from the net's own row.
  std::vector<double> vote_weight_;
  std::vector<uint32_t> row_begin_;
  std::vector<kg::ItemId> ranked_items_;
  size_t num_item_ec_links_ = 0;
  obs::Histogram* recommend_latency_us_ = nullptr;
  obs::Counter* requests_served_ = nullptr;
  obs::Counter* cards_returned_ = nullptr;
};

/// Comparison metrics over a user population.
struct RecommendationReport {
  double cf_novelty = 0;         ///< item-CF: new-category fraction
  double cognitive_novelty = 0;  ///< concept cards: new-category fraction
  double needs_hit_rate = 0;     ///< fraction of users with a gold need
                                 ///< among their cards
  double cf_need_item_rate = 0;  ///< CF items that satisfy a gold need
  double cog_need_item_rate = 0; ///< card items that satisfy a gold need
  /// Items that get a concept-grounded reason (Section 8.2.2,
  /// RecommendationExplainer::ExplainableRate), for item-CF and for cards.
  double cf_explainable_rate = 0;
  double cog_explainable_rate = 0;
};

RecommendationReport CompareRecommenders(
    const datagen::World& world, size_t k_items, size_t num_cards);

}  // namespace alicoco::apps

#endif  // ALICOCO_APPS_RECOMMENDER_H_
