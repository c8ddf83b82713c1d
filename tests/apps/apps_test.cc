// Application-layer tests: coverage (7.1), search relevance (8.1.1),
// cognitive recommendation (8.2.1).

#include <gtest/gtest.h>

#include "apps/coverage.h"
#include "apps/recommender.h"
#include "apps/search_relevance.h"
#include "datagen/world.h"
#include "shared_world.h"

namespace alicoco::apps {
namespace {

TEST(CoverageTest, AliCoCoBeatsLegacyByWideMargin) {
  const auto& world = SharedWorld();
  datagen::LegacyOntology legacy(world);
  CoverageEvaluator evaluator(&world.net(), &legacy);
  auto report = evaluator.Run(world.needs_queries(), /*num_days=*/10,
                              /*per_day=*/100, 3);
  ASSERT_EQ(report.days.size(), 10u);
  EXPECT_GT(report.mean_alicoco, 0.6);
  EXPECT_LT(report.mean_legacy, 0.45);
  EXPECT_GT(report.mean_alicoco, report.mean_legacy + 0.25);
  // Daily numbers are stable, not degenerate.
  for (const auto& d : report.days) {
    EXPECT_GT(d.alicoco, 0.4);
    EXPECT_LT(d.legacy, 0.6);
  }
}

TEST(CoverageTest, QueryCoverageBounds) {
  const auto& world = SharedWorld();
  datagen::LegacyOntology legacy(world);
  CoverageEvaluator evaluator(&world.net(), &legacy);
  EXPECT_EQ(evaluator.QueryCoverage({}), 0.0);
  EXPECT_EQ(evaluator.QueryCoverage({"zzzz_not_a_word"}), 0.0);
}

TEST(SearchRelevanceTest, IsaExpansionImprovesAucAndBadCases) {
  const auto& world = SharedWorld();
  SearchRelevance relevance(&world.net());
  auto queries = relevance.BuildQueries(world, /*max_queries=*/8,
                                        /*items_per_query=*/40, 5);
  ASSERT_FALSE(queries.empty());
  auto without = relevance.Evaluate(queries, /*expand_isa=*/false);
  auto with = relevance.Evaluate(queries, /*expand_isa=*/true);
  // Group-concept queries share no tokens with item titles: without isA
  // expansion, every relevant item is a bad case.
  EXPECT_GT(without.bad_cases, 0u);
  EXPECT_GT(with.auc, without.auc);
  EXPECT_LT(with.bad_cases, without.bad_cases);
  EXPECT_GT(with.auc, 0.9);
}

TEST(SearchRelevanceTest, QueriesHaveBothLabels) {
  const auto& world = SharedWorld();
  SearchRelevance relevance(&world.net());
  auto queries = relevance.BuildQueries(world, 8, 40, 5);
  for (const auto& q : queries) {
    EXPECT_EQ(q.items.size(), q.relevant.size());
    int pos = 0, neg = 0;
    for (int r : q.relevant) (r ? pos : neg)++;
    EXPECT_GT(pos, 0);
    EXPECT_GT(neg, 0);
  }
}

TEST(ItemCfTest, RecommendsCoClickedItems) {
  std::vector<datagen::UserHistory> users(30);
  // Items 1 and 2 always co-clicked; item 9 isolated.
  for (size_t u = 0; u < users.size(); ++u) {
    users[u].clicked = {kg::ItemId(1), kg::ItemId(2)};
    if (u % 3 == 0) users[u].clicked.push_back(kg::ItemId(3));
  }
  ItemCf cf;
  cf.Fit(users);
  datagen::UserHistory probe;
  probe.clicked = {kg::ItemId(1)};
  auto recs = cf.Recommend(probe, 2);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].value, 2u);  // strongest co-click first
  // Never recommends items already clicked.
  for (auto r : recs) EXPECT_NE(r.value, 1u);
}

TEST(RecommendationTest, CognitiveCardsSurfaceLatentNeeds) {
  const auto& world = SharedWorld();
  auto report = CompareRecommenders(world, /*k_items=*/10, /*num_cards=*/3);
  // The cognitive recommender should surface a gold need for most users,
  // satisfy needs with its items far better than item-CF, and still bring
  // category novelty (cards span a scenario's categories, not just lookalike
  // items).
  EXPECT_GT(report.needs_hit_rate, 0.5);
  EXPECT_GT(report.cognitive_novelty, 0.1);
  EXPECT_GT(report.cog_need_item_rate, report.cf_need_item_rate);
  // A card's items come from a concept the history votes for, so each has
  // a concept-grounded reason (Section 8.2.2); item-CF's items need not.
  EXPECT_EQ(report.cog_explainable_rate, 1.0);
  EXPECT_LT(report.cf_explainable_rate, report.cog_explainable_rate);
}

TEST(CognitiveRecommenderTest, CardsExcludeOwnedItems) {
  const auto& world = SharedWorld();
  CognitiveRecommender rec(&world.net());
  const auto& user = world.user_histories()[0];
  auto cards = rec.Recommend(user, 3, 5);
  ASSERT_FALSE(cards.empty());
  for (const auto& card : cards) {
    EXPECT_LE(card.items.size(), 5u);
    for (auto item : card.items) {
      EXPECT_EQ(std::count(user.clicked.begin(), user.clicked.end(), item),
                0);
    }
  }
}

}  // namespace
}  // namespace alicoco::apps
