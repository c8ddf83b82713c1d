// The serving apps answer from read tables built once per net. These tests
// pin every response to the per-call computation the tables replaced, kept
// here as references: on the shared generated world, under concurrent
// serving, and when the net grows after the apps were built.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/question_answering.h"
#include "apps/recommender.h"
#include "apps/search_relevance.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "shared_world.h"
#include "text/tokenizer.h"

namespace alicoco::apps {
namespace {

using Cards = std::vector<CognitiveRecommender::ConceptCard>;

// ---- references: the per-call bodies the read tables replaced ----

/// SearchRelevance::Score's item terms: the title tokens, plus with
/// expansion the hypernym-closure surfaces of the item's primitives.
std::unordered_set<std::string> ReferenceTerms(const kg::ConceptNet& net,
                                               kg::ItemId item,
                                               bool expand_isa) {
  const auto& title = net.Get(item).title;
  std::unordered_set<std::string> terms(title.begin(), title.end());
  if (expand_isa) {
    for (kg::ConceptId prim : net.PrimitivesForItem(item)) {
      for (kg::ConceptId hyper : net.HypernymClosure(prim)) {
        terms.insert(net.Get(hyper).surface);
      }
    }
  }
  return terms;
}

/// CognitiveRecommender::Recommend: votes damped by ItemsForEc(ec).size(),
/// card items from ItemsForEcRanked.
Cards ReferenceRecommend(const kg::ConceptNet& net,
                         const datagen::UserHistory& user, size_t num_cards,
                         size_t items_per_card) {
  std::unordered_map<uint32_t, double> votes;
  for (kg::ItemId item : user.clicked) {
    for (kg::EcConceptId ec : net.EcConceptsForItem(item)) {
      double size = static_cast<double>(net.ItemsForEc(ec).size());
      votes[ec.value] += 1.0 / std::log2(2.0 + size);
    }
  }
  std::vector<std::pair<double, uint32_t>> ranked;
  for (const auto& [ec, v] : votes) ranked.emplace_back(v, ec);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::unordered_set<uint32_t> owned;
  for (kg::ItemId item : user.clicked) owned.insert(item.value);
  Cards cards;
  for (size_t i = 0; i < ranked.size() && cards.size() < num_cards; ++i) {
    CognitiveRecommender::ConceptCard card;
    card.concept_id = kg::EcConceptId(ranked[i].second);
    card.score = ranked[i].first;
    for (const auto& [item, probability] :
         net.ItemsForEcRanked(card.concept_id)) {
      (void)probability;
      if (owned.count(item.value)) continue;
      card.items.push_back(item);
      if (card.items.size() >= items_per_card) break;
    }
    cards.push_back(std::move(card));
  }
  return cards;
}

NeedsAnswer ReferenceBuildAnswer(const kg::ConceptNet& net,
                                 kg::EcConceptId id, double score,
                                 size_t max_items) {
  NeedsAnswer answer;
  answer.concept_id = id;
  answer.concept_surface = net.Get(id).surface;
  answer.score = score;
  const auto& tax = net.taxonomy();
  for (kg::ConceptId prim : net.PrimitivesForEc(id)) {
    const auto& concept_info = net.Get(prim);
    answer.interpretation.emplace_back(
        tax.Get(tax.Domain(concept_info.cls)).name, concept_info.surface);
  }
  for (kg::ItemId item : net.ItemsForEc(id)) {
    answer.items.push_back(item);
    if (answer.items.size() >= max_items) break;
  }
  for (kg::EcConceptId parent : net.EcParents(id)) {
    answer.related_needs.push_back(net.Get(parent).surface);
  }
  for (kg::EcConceptId child : net.EcChildren(id)) {
    answer.related_needs.push_back(net.Get(child).surface);
    if (answer.related_needs.size() >= 5) break;
  }
  return answer;
}

/// NeedsQuestionAnswerer::AnswerAll: five full answers, best first.
std::vector<NeedsAnswer> ReferenceAnswerAll(const kg::ConceptNet& net,
                                            const std::string& question,
                                            size_t max_items) {
  std::vector<std::string> tokens = text::Tokenize(question);
  std::vector<NeedsAnswer> out;
  if (tokens.empty()) return out;
  std::map<uint32_t, double> matched;
  constexpr size_t kMaxSpan = 6;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string key;
    for (size_t len = 1; len <= kMaxSpan && i + len <= tokens.size(); ++len) {
      if (len > 1) key += ' ';
      key += tokens[i + len - 1];
      auto ec = net.FindEcConcept(key);
      if (ec.has_value()) {
        double score = 1.0 + 0.1 * static_cast<double>(len);
        auto it = matched.find(ec->value);
        if (it == matched.end() || it->second < score) {
          matched[ec->value] = score;
        }
      }
    }
  }
  std::map<uint32_t, double> votes;
  std::map<uint32_t, size_t> interp_size;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string key;
    for (size_t len = 1; len <= kMaxSpan && i + len <= tokens.size(); ++len) {
      if (len > 1) key += ' ';
      key += tokens[i + len - 1];
      for (kg::ConceptId prim : net.FindPrimitive(key)) {
        for (kg::EcConceptId ec : net.EcConceptsForPrimitive(prim)) {
          votes[ec.value] += static_cast<double>(len);
          if (!interp_size.count(ec.value)) {
            interp_size[ec.value] = net.PrimitivesForEc(ec).size();
          }
        }
      }
    }
  }
  for (const auto& [ec, vote] : votes) {
    size_t interp = std::max<size_t>(1, interp_size[ec]);
    double coverage = vote / static_cast<double>(interp);
    double score = std::min(0.99, 0.5 * coverage);
    auto it = matched.find(ec);
    if (it == matched.end() || it->second < score) {
      matched[ec] = std::max(it == matched.end() ? 0.0 : it->second, score);
    }
  }
  std::vector<std::pair<double, uint32_t>> ranked;
  for (const auto& [ec, score] : matched) ranked.emplace_back(score, ec);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (const auto& [score, ec] : ranked) {
    out.push_back(
        ReferenceBuildAnswer(net, kg::EcConceptId(ec), score, max_items));
    if (out.size() >= 5) break;
  }
  return out;
}

// ---- exact comparison ----

bool SameCards(const Cards& a, const Cards& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].concept_id != b[i].concept_id || a[i].score != b[i].score ||
        a[i].items != b[i].items) {
      return false;
    }
  }
  return true;
}

bool SameAnswer(const NeedsAnswer& a, const NeedsAnswer& b) {
  return a.concept_id == b.concept_id &&
         a.concept_surface == b.concept_surface &&
         a.interpretation == b.interpretation && a.items == b.items &&
         a.related_needs == b.related_needs && a.score == b.score;
}

bool SameAnswers(const std::vector<NeedsAnswer>& a,
                 const std::vector<NeedsAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameAnswer(a[i], b[i])) return false;
  }
  return true;
}

bool SameAnswer(const std::optional<NeedsAnswer>& a,
                const std::optional<NeedsAnswer>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || SameAnswer(*a, *b);
}

std::vector<std::string> NeedsQuestions(const datagen::World& world) {
  std::vector<std::string> out;
  for (const auto& tokens : world.needs_queries()) {
    out.push_back(JoinStrings(tokens, " "));
  }
  return out;
}

// ---- equivalence with the references ----

TEST(AppsReferenceTest, ScoreEqualsTitleAndClosureSet) {
  const auto& world = SharedWorld();
  const kg::ConceptNet& net = world.net();
  const SearchRelevance search(&net, /*metrics=*/nullptr);
  std::set<std::string> queries = {"zzzz_not_a_term"};
  for (const auto& prim : net.primitives()) queries.insert(prim.surface);
  for (const auto& item : net.items()) {
    queries.insert(item.title.begin(), item.title.end());
  }
  size_t checked = 0, mismatches = 0, plain_hits = 0, expanded_hits = 0;
  for (const auto& item : net.items()) {
    for (bool expand : {false, true}) {
      const auto terms = ReferenceTerms(net, item.id, expand);
      for (const std::string& q : queries) {
        const double want = terms.count(q) ? 1.0 : 0.0;
        const double got = search.Score(q, item.id, expand);
        ++checked;
        if (got != want) {
          ADD_FAILURE() << "item " << item.id.value << " query '" << q
              << "' expand=" << expand << ": " << got << " vs " << want;
          if (++mismatches >= 10) return;
        }
        (expand ? expanded_hits : plain_hits) += got == 1.0;
      }
    }
  }
  EXPECT_EQ(checked, 2 * net.num_items() * queries.size());
  // The world exercises the closure: expansion matches more pairs.
  EXPECT_GT(expanded_hits, plain_hits);
}

TEST(AppsReferenceTest, RecommendEqualsReference) {
  const auto& world = SharedWorld();
  const kg::ConceptNet& net = world.net();
  const CognitiveRecommender recommender(&net, /*metrics=*/nullptr);
  const std::pair<size_t, size_t> shapes[] = {{3, 4}, {1, 1}, {5, 500}};
  size_t cards_seen = 0;
  for (const auto& [num_cards, items_per_card] : shapes) {
    for (size_t u = 0; u < world.user_histories().size(); ++u) {
      const auto& user = world.user_histories()[u];
      const Cards got = recommender.Recommend(user, num_cards, items_per_card);
      EXPECT_TRUE(SameCards(
          got, ReferenceRecommend(net, user, num_cards, items_per_card)))
          << "user " << u << " at (" << num_cards << ", " << items_per_card
          << ")";
      cards_seen += got.size();
    }
  }
  EXPECT_GT(cards_seen, 0u);
}

TEST(AppsReferenceTest, AnswerIsTheFirstOfAnswerAllAndBothEqualReference) {
  const auto& world = SharedWorld();
  const kg::ConceptNet& net = world.net();
  const NeedsQuestionAnswerer qa(&net);
  size_t answered = 0;
  for (const std::string& question : NeedsQuestions(world)) {
    const std::vector<NeedsAnswer> all = qa.AnswerAll(question);
    EXPECT_TRUE(SameAnswers(all, ReferenceAnswerAll(net, question, 8)))
        << question;
    const std::optional<NeedsAnswer> best = qa.Answer(question);
    ASSERT_EQ(best.has_value(), !all.empty()) << question;
    if (best.has_value()) {
      EXPECT_TRUE(SameAnswer(*best, all.front())) << question;
      ++answered;
    }
  }
  EXPECT_GT(answered, 0u);
}

// ---- concurrent serving ----

/// One response per endpoint, for request slot `i` of a 1:1:1 interleave.
struct Response {
  std::vector<double> scores;
  RelevanceReport report;
  Cards cards;
  std::optional<NeedsAnswer> answer;
};

TEST(AppsRaceTest, ConcurrentServingMatchesSerial) {
  const auto& world = SharedWorld();
  const kg::ConceptNet& net = world.net();
  // Non-null registries, so the serving histograms and counters race too.
  obs::Registry registry;
  const SearchRelevance search(&net, &registry);
  const CognitiveRecommender recommender(&net, &registry);
  const NeedsQuestionAnswerer qa(&net);
  const auto queries = search.BuildQueries(world, 8, 40, 5);
  const auto& users = world.user_histories();
  const std::vector<std::string> questions = NeedsQuestions(world);
  ASSERT_FALSE(queries.empty());
  const size_t slots = 2 * users.size();

  auto serve = [&](size_t i) {
    Response r;
    const RelevanceQuery& q = queries[i % queries.size()];
    for (kg::ItemId item : q.items) {
      r.scores.push_back(search.Score(q.query, item, true));
    }
    r.report = search.Evaluate({q}, /*expand_isa=*/true);
    r.cards = recommender.Recommend(users[i % users.size()], 3, 4);
    r.answer = qa.Answer(questions[i % questions.size()]);
    return r;
  };
  std::vector<Response> serial(slots), parallel(slots);
  for (size_t i = 0; i < slots; ++i) serial[i] = serve(i);
  {
    ThreadPool pool(4);
    pool.ParallelFor(slots, [&](size_t i) { parallel[i] = serve(i); });
  }
  for (size_t i = 0; i < slots; ++i) {
    EXPECT_EQ(parallel[i].scores, serial[i].scores) << "slot " << i;
    EXPECT_EQ(parallel[i].report.auc, serial[i].report.auc) << "slot " << i;
    EXPECT_EQ(parallel[i].report.bad_cases, serial[i].report.bad_cases)
        << "slot " << i;
    EXPECT_TRUE(SameCards(parallel[i].cards, serial[i].cards))
        << "slot " << i;
    EXPECT_TRUE(SameAnswer(parallel[i].answer, serial[i].answer))
        << "slot " << i;
  }
  // Every request of both passes landed in the shared metrics.
  EXPECT_EQ(registry.GetCounter("serving.recommender.requests")->value(),
            2 * slots);
  EXPECT_EQ(registry.GetCounter("serving.search_relevance.queries")->value(),
            2 * slots);
  EXPECT_EQ(
      registry.GetHistogram("serving.recommender.recommend_latency_us")
          ->count(),
      2 * slots);
}

// ---- a net that grew after the apps were built ----

TEST(AppsDeathTest, ScoringAnItemAddedAfterConstructionFails) {
  kg::ConceptNet net;
  kg::ClassId category = *net.taxonomy().AddDomain("Category");
  kg::ItemId grill = *net.AddItem({"steel", "grill"}, category);
  const SearchRelevance search(&net, /*metrics=*/nullptr);
  EXPECT_EQ(search.Score("grill", grill, /*expand_isa=*/true), 1.0);
  kg::ItemId pan = *net.AddItem({"iron", "pan"}, category);
  EXPECT_DEATH(search.Score("pan", pan, /*expand_isa=*/true),
               "added to the net after the scorer was built");
}

TEST(AppsDeathTest, VotingForAConceptAddedAfterConstructionFails) {
  kg::ConceptNet net;
  kg::ClassId category = *net.taxonomy().AddDomain("Category");
  kg::ItemId grill = *net.AddItem({"steel", "grill"}, category);
  const CognitiveRecommender recommender(&net, /*metrics=*/nullptr);
  kg::EcConceptId barbecue = *net.GetOrAddEcConcept({"outdoor", "barbecue"});
  ASSERT_TRUE(net.LinkItemToEc(grill, barbecue).ok());
  datagen::UserHistory user;
  user.clicked = {grill};
  EXPECT_DEATH(recommender.Recommend(user, 3, 4),
               "added to the net after the recommender was built");
}

}  // namespace
}  // namespace alicoco::apps
