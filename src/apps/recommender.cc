#include "apps/recommender.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "apps/explanation.h"
#include "common/logging.h"

namespace alicoco::apps {

void ItemCf::Fit(const std::vector<datagen::UserHistory>& users) {
  std::unordered_map<uint32_t, double> item_count;
  for (const auto& user : users) {
    // Deduplicate within one user's history.
    std::vector<uint32_t> items;
    std::unordered_set<uint32_t> seen;
    for (kg::ItemId item : user.clicked) {
      if (seen.insert(item.value).second) items.push_back(item.value);
    }
    for (uint32_t a : items) {
      ++item_count[a];
      for (uint32_t b : items) {
        if (a != b) sim_[a][b] += 1.0;
      }
    }
  }
  for (auto& [item, count] : item_count) {
    norm_[item] = std::sqrt(count);
  }
  // Cosine normalization: sim(a,b) /= sqrt(n_a * n_b).
  for (auto& [a, row] : sim_) {
    for (auto& [b, v] : row) {
      double denom = norm_[a] * norm_[b];
      if (denom > 0) v /= denom;
    }
  }
}

std::vector<kg::ItemId> ItemCf::Recommend(const datagen::UserHistory& user,
                                          size_t k) const {
  std::unordered_set<uint32_t> owned;
  for (kg::ItemId item : user.clicked) owned.insert(item.value);
  std::unordered_map<uint32_t, double> scores;
  for (kg::ItemId item : user.clicked) {
    auto it = sim_.find(item.value);
    if (it == sim_.end()) continue;
    for (const auto& [candidate, s] : it->second) {
      if (!owned.count(candidate)) scores[candidate] += s;
    }
  }
  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(scores.size());
  for (const auto& [item, s] : scores) ranked.emplace_back(s, item);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<kg::ItemId> out;
  for (size_t i = 0; i < std::min(k, ranked.size()); ++i) {
    out.push_back(kg::ItemId(ranked[i].second));
  }
  return out;
}

CognitiveRecommender::CognitiveRecommender(const kg::ConceptNet* net,
                                           obs::Registry* metrics)
    : net_(net) {
  ALICOCO_CHECK(net != nullptr);
  vote_weight_.reserve(net->num_ec_concepts());
  row_begin_.reserve(net->num_ec_concepts() + 1);
  row_begin_.push_back(0);
  for (const kg::EcommerceConcept& ec : net->ec_concepts()) {
    const auto ranked = net->ItemsForEcRanked(ec.id);
    const double size = static_cast<double>(ranked.size());
    vote_weight_.push_back(1.0 / std::log2(2.0 + size));
    for (const auto& edge : ranked) ranked_items_.push_back(edge.first);
    row_begin_.push_back(static_cast<uint32_t>(ranked_items_.size()));
  }
  num_item_ec_links_ = net->num_item_ec_links();
  if (metrics != nullptr) {
    recommend_latency_us_ =
        metrics->GetHistogram("serving.recommender.recommend_latency_us");
    requests_served_ = metrics->GetCounter("serving.recommender.requests");
    cards_returned_ = metrics->GetCounter("serving.recommender.cards");
  }
}

std::vector<CognitiveRecommender::ConceptCard>
CognitiveRecommender::Recommend(const datagen::UserHistory& user,
                                size_t num_cards,
                                size_t items_per_card) const {
  std::chrono::steady_clock::time_point start;
  if (recommend_latency_us_ != nullptr) {
    start = std::chrono::steady_clock::now();
  }
  ALICOCO_CHECK_EQ(net_->num_ec_concepts(), vote_weight_.size())
      << "concept added to the net after the recommender was built";
  ALICOCO_CHECK_EQ(net_->num_item_ec_links(), num_item_ec_links_)
      << "item-concept link added to the net after the recommender was built";
  // Vote for concepts linked to the clicked items; damp by concept size so
  // huge generic concepts don't dominate. Each concept's votes add up in
  // clicked-item and edge order. An item the net does not hold reads as an
  // empty row.
  std::vector<double> votes(vote_weight_.size(), 0.0);
  std::vector<uint32_t> voted;  // concept ids, in order of first vote
  for (kg::ItemId item : user.clicked) {
    for (kg::EcConceptId concept_id : net_->EcConceptsForItem(item)) {
      const uint32_t ec = concept_id.value;
      if (votes[ec] == 0.0) voted.push_back(ec);
      votes[ec] += vote_weight_[ec];
    }
  }
  // A total order, so the top cards do not depend on the vote order.
  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(voted.size());
  for (uint32_t ec : voted) ranked.emplace_back(votes[ec], ec);
  const size_t num_ranked = std::min(num_cards, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + num_ranked, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });

  std::vector<uint32_t> owned;
  owned.reserve(user.clicked.size());
  for (kg::ItemId item : user.clicked) owned.push_back(item.value);
  std::sort(owned.begin(), owned.end());

  std::vector<ConceptCard> cards;
  cards.reserve(num_ranked);
  for (size_t i = 0; i < num_ranked; ++i) {
    ConceptCard card;
    card.concept_id = kg::EcConceptId(ranked[i].second);
    card.score = ranked[i].first;
    // Highest-probability edges first (probabilistic associations).
    const uint32_t ec = card.concept_id.value;
    for (uint32_t k = row_begin_[ec]; k < row_begin_[ec + 1]; ++k) {
      const kg::ItemId item = ranked_items_[k];
      if (std::binary_search(owned.begin(), owned.end(), item.value)) continue;
      card.items.push_back(item);
      if (card.items.size() >= items_per_card) break;
    }
    cards.push_back(std::move(card));
  }
  if (recommend_latency_us_ != nullptr) {
    recommend_latency_us_->Observe(std::chrono::duration<double, std::micro>(
                                       std::chrono::steady_clock::now() -
                                       start)
                                       .count());
  }
  if (requests_served_ != nullptr) requests_served_->Increment();
  if (cards_returned_ != nullptr) cards_returned_->Add(cards.size());
  return cards;
}

RecommendationReport CompareRecommenders(const datagen::World& world,
                                         size_t k_items, size_t num_cards) {
  const auto& users = world.user_histories();
  ALICOCO_CHECK(!users.empty());
  ItemCf cf;
  cf.Fit(users);
  CognitiveRecommender cognitive(&world.net());

  // Category-head of an item for novelty accounting.
  auto head_of = [&](kg::ItemId item) -> uint32_t {
    return world.item_profiles()[item.value].head.value;
  };
  auto need_items = [&](const datagen::UserHistory& user) {
    std::unordered_set<uint32_t> gold;
    for (kg::EcConceptId need : user.needs) {
      for (kg::ItemId item : world.net().ItemsForEc(need)) {
        gold.insert(item.value);
      }
    }
    return gold;
  };

  RecommendationReport report;
  size_t cf_total = 0, cf_novel = 0, cf_need = 0;
  size_t cog_total = 0, cog_novel = 0, cog_need = 0;
  size_t users_with_hit = 0, users_counted = 0;
  size_t items_per_card = std::max<size_t>(1, k_items / num_cards);
  // Each user's recommended items, for the explainer.
  std::vector<std::vector<kg::ItemId>> cf_items, cog_items;

  for (const auto& user : users) {
    std::unordered_set<uint32_t> history_heads;
    for (kg::ItemId item : user.clicked) history_heads.insert(head_of(item));
    auto gold_items = need_items(user);

    auto cf_rec = cf.Recommend(user, k_items);
    for (kg::ItemId item : cf_rec) {
      ++cf_total;
      if (!history_heads.count(head_of(item))) ++cf_novel;
      if (gold_items.count(item.value)) ++cf_need;
    }
    cf_items.push_back(std::move(cf_rec));

    auto cards = cognitive.Recommend(user, num_cards, items_per_card);
    std::vector<kg::ItemId>& card_items = cog_items.emplace_back();
    bool hit = false;
    for (const auto& card : cards) {
      if (std::find(user.needs.begin(), user.needs.end(), card.concept_id) !=
          user.needs.end()) {
        hit = true;
      }
      for (kg::ItemId item : card.items) {
        card_items.push_back(item);
        ++cog_total;
        if (!history_heads.count(head_of(item))) ++cog_novel;
        if (gold_items.count(item.value)) ++cog_need;
      }
    }
    ++users_counted;
    users_with_hit += hit;
  }

  if (cf_total > 0) {
    report.cf_novelty = static_cast<double>(cf_novel) / cf_total;
    report.cf_need_item_rate = static_cast<double>(cf_need) / cf_total;
  }
  if (cog_total > 0) {
    report.cognitive_novelty = static_cast<double>(cog_novel) / cog_total;
    report.cog_need_item_rate = static_cast<double>(cog_need) / cog_total;
  }
  if (users_counted > 0) {
    report.needs_hit_rate =
        static_cast<double>(users_with_hit) / users_counted;
  }
  const RecommendationExplainer explainer(&world.net());
  report.cf_explainable_rate = explainer.ExplainableRate(users, cf_items);
  report.cog_explainable_rate = explainer.ExplainableRate(users, cog_items);
  return report;
}

}  // namespace alicoco::apps
