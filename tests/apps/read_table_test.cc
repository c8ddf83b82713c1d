// The serving apps answer from read tables built once per net. These tests
// pin every response to the per-call computation the tables replaced, kept
// here as references: on the shared generated world, on a hand-built net of
// edge cases, under concurrent serving, and when the net grows after the
// apps were built.

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

// ---- edge cases on a hand-built net ----

/// The paper's barbecue scenario plus the surfaces a generated world rarely
/// or never holds: hyphenated tokens, surfaces of six and seven tokens,
/// surfaces no tokenized question can spell, a primitive surface with two
/// senses, and surfaces that are prefixes of others.
struct EdgeCaseNet {
  kg::ConceptNet net;
  kg::EcConceptId outdoor_barbecue, barbecue, padded_trousers, reunion,
      spring_outing, spring_mattress, spring_sale;
  std::vector<kg::ItemId> items;

  EdgeCaseNet() {
    auto& tax = net.taxonomy();
    const kg::ClassId category = *tax.AddDomain("Category");
    const kg::ClassId location = *tax.AddDomain("Location");
    const kg::ClassId event = *tax.AddDomain("Event");
    const kg::ClassId time = *tax.AddDomain("Time");
    auto prim = [&](const std::string& surface, kg::ClassId cls) {
      return *net.GetOrAddPrimitiveConcept(surface, cls);
    };
    auto ec = [&](const std::vector<std::string>& tokens,
                  const std::vector<kg::ConceptId>& interpretation) {
      const kg::EcConceptId id = *net.GetOrAddEcConcept(tokens);
      for (kg::ConceptId p : interpretation) {
        EXPECT_TRUE(net.LinkEcToPrimitive(id, p).ok());
      }
      return id;
    };
    const kg::ConceptId outdoor = prim("outdoor", location);
    const kg::ConceptId bbq = prim("barbecue", event);
    const kg::ConceptId padded = prim("cotton-padded", category);
    const kg::ConceptId trousers = prim("trousers", category);
    const kg::ConceptId winter = prim("winter", time);
    const kg::ConceptId family = prim("family reunion", event);
    // One surface, two senses in two classes, each interpreting a concept
    // of its own and both interpreting a third.
    const kg::ConceptId spring_season = prim("spring", time);
    const kg::ConceptId spring_part = prim("spring", category);
    const kg::ConceptId mattress = prim("mattress", category);
    // Spelled with an uppercase letter or a double space: Tokenize never
    // produces these, so no question can match them.
    const kg::ConceptId grill_upper = prim("Grill", category);
    const kg::ConceptId blanket = prim("picnic  blanket", category);

    outdoor_barbecue = ec({"outdoor", "barbecue"}, {outdoor, bbq});
    barbecue = ec({"barbecue"}, {bbq});
    padded_trousers =
        ec({"cotton-padded", "trousers"}, {padded, trousers, winter});
    reunion = ec({"gifts", "for", "a", "big", "family", "reunion"}, {family});
    ec({"what", "to", "bring", "to", "a", "family", "reunion"}, {family});
    spring_outing = ec({"spring", "outing"}, {spring_season, outdoor});
    spring_mattress = ec({"spring", "mattress"}, {spring_part, mattress});
    spring_sale =
        ec({"spring", "bedding", "sale"}, {spring_season, spring_part});
    ec({"Grill", "party"}, {grill_upper, bbq});
    ec({"picnic", "", "blanket"}, {blanket, outdoor});
    // A concept with no interpretation, named only by its own surface.
    ec({"outdoor", "barbecue", "party"}, {});
    EXPECT_TRUE(net.AddEcIsA(outdoor_barbecue, barbecue).ok());

    for (int i = 0; i < 6; ++i) {
      items.push_back(
          *net.AddItem({"item", std::to_string(i)}, category));
    }
    const std::pair<int, kg::EcConceptId> links[] = {
        {0, outdoor_barbecue}, {0, barbecue}, {1, outdoor_barbecue},
        {2, padded_trousers},  {3, reunion},  {3, spring_outing},
        {4, spring_mattress},  {4, barbecue}, {5, barbecue}};
    double probability = 1.0;
    for (const auto& [item, concept_id] : links) {
      EXPECT_TRUE(net.LinkItemToEc(items[item], concept_id, probability).ok());
      probability -= 0.05;
    }
  }
};

TEST(AppsReferenceTest, HandBuiltEdgeCasesEqualReference) {
  EdgeCaseNet edge;
  const kg::ConceptNet& net = edge.net;
  const NeedsQuestionAnswerer qa(&net);
  const std::vector<std::string> questions = {
      // Punctuation and uppercase in the question.
      "What should I prepare for hosting next week's OUTDOOR Barbecue?!",
      // A hyphenated token, as a primitive and inside a concept surface.
      "warm cotton-padded trousers for winter",
      "cotton-padded",
      "cotton - padded trousers",
      // Surfaces of six and seven tokens; kMaxSpan is six.
      "gifts for a big family reunion",
      "what to bring to a family reunion",
      "family reunion",
      // Two senses of "spring", voting for their concepts.
      "spring",
      "a new spring mattress for spring",
      "spring bedding sale",
      // Surfaces a question cannot spell.
      "grill party",
      "Grill party",
      "picnic  blanket",
      "picnic blanket",
      // A surface that is a prefix of others.
      "outdoor barbecue party",
      "outdoor barbecue",
      "outdoor",
      // An unknown token inside a span.
      "outdoor zzzz barbecue",
      "gifts for a big zzzz family reunion",
      // Nothing to recognize.
      "",
      "?!",
      "zzzz",
  };
  for (const std::string& question : questions) {
    for (size_t max_items : {size_t{0}, size_t{1}, size_t{8}}) {
      const std::vector<NeedsAnswer> want =
          ReferenceAnswerAll(net, question, max_items);
      EXPECT_TRUE(SameAnswers(qa.AnswerAll(question, max_items), want))
          << "'" << question << "' max_items " << max_items;
      const std::optional<NeedsAnswer> best = qa.Answer(question, max_items);
      EXPECT_TRUE(want.empty() ? !best.has_value()
                               : SameAnswer(best, want.front()))
          << "'" << question << "' max_items " << max_items;
    }
  }
  // The edge cases are reached, not just agreed on.
  auto best = [&](const std::string& question) {
    std::optional<NeedsAnswer> answer = qa.Answer(question);
    return answer.has_value() ? answer->concept_id.value : UINT32_MAX;
  };
  EXPECT_EQ(best("What should I prepare for an OUTDOOR Barbecue?!"),
            edge.outdoor_barbecue.value);
  EXPECT_EQ(best("warm cotton-padded trousers for winter"),
            edge.padded_trousers.value);
  EXPECT_EQ(best("gifts for a big family reunion"), edge.reunion.value);
  EXPECT_EQ(qa.Answer("gifts for a big family reunion")->score,
            1.0 + 0.1 * 6.0);
  // Each sense of "spring" votes once: twice for the concept both
  // interpret, once for each of the others.
  const std::vector<NeedsAnswer> spring = qa.AnswerAll("spring");
  ASSERT_EQ(spring.size(), 3u);
  EXPECT_EQ(spring[0].concept_id, edge.spring_sale);
  EXPECT_EQ(spring[0].score, 0.5);
  EXPECT_EQ(spring[1].concept_id, edge.spring_outing);
  EXPECT_EQ(spring[2].concept_id, edge.spring_mattress);
  EXPECT_EQ(spring[1].score, spring[2].score);
  EXPECT_FALSE(qa.Answer("Grill party").has_value());
  EXPECT_FALSE(qa.Answer("picnic  blanket").has_value());

  // Recommendation on the same net, with clicks on an item added after the
  // recommender (no edges) and on an id the net does not hold.
  const CognitiveRecommender recommender(&net, /*metrics=*/nullptr);
  const kg::ItemId late =
      *edge.net.AddItem({"late", "item"}, net.Get(edge.items[0]).category);
  const std::vector<std::vector<kg::ItemId>> histories = {
      {},
      {edge.items[0]},
      {edge.items[0], edge.items[4], edge.items[3]},
      {edge.items[5], edge.items[5], late, kg::ItemId(1000)},
      {late}};
  const std::pair<size_t, size_t> shapes[] = {{3, 4}, {1, 1}, {8, 0}};
  for (const auto& clicked : histories) {
    datagen::UserHistory user;
    user.clicked = clicked;
    for (const auto& [num_cards, items_per_card] : shapes) {
      EXPECT_TRUE(SameCards(
          recommender.Recommend(user, num_cards, items_per_card),
          ReferenceRecommend(net, user, num_cards, items_per_card)))
          << clicked.size() << " clicks at (" << num_cards << ", "
          << items_per_card << ")";
    }
  }
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

TEST(AppsDeathTest, ScoringAfterAnIsAEdgeOrTagWasAddedFails) {
  kg::ConceptNet net;
  kg::ClassId category = *net.taxonomy().AddDomain("Category");
  kg::ConceptId jacket = *net.GetOrAddPrimitiveConcept("jacket", category);
  kg::ConceptId top = *net.GetOrAddPrimitiveConcept("top", category);
  kg::ConceptId coat = *net.GetOrAddPrimitiveConcept("coat", category);
  kg::ItemId warm_jacket = *net.AddItem({"warm", "jacket"}, category);
  ASSERT_TRUE(net.LinkItemToPrimitive(warm_jacket, jacket).ok());
  const SearchRelevance search(&net, /*metrics=*/nullptr);
  EXPECT_EQ(search.Score("top", warm_jacket, /*expand_isa=*/true), 0.0);
  // Each kind of growth fails on its own. Grown in this order, each one is
  // the first the scorer checks.
  ASSERT_TRUE(net.AddIsA(jacket, top).ok());
  EXPECT_DEATH(search.Score("top", warm_jacket, /*expand_isa=*/true),
               "isA edge added to the net after the scorer was built");
  ASSERT_TRUE(net.LinkItemToPrimitive(warm_jacket, coat).ok());
  EXPECT_DEATH(search.Score("coat", warm_jacket, /*expand_isa=*/true),
               "item-primitive link added to the net after the scorer was "
               "built");
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

TEST(AppsDeathTest, RecommendingAfterALinkWasAddedFails) {
  kg::ConceptNet net;
  kg::ClassId category = *net.taxonomy().AddDomain("Category");
  kg::ItemId grill = *net.AddItem({"steel", "grill"}, category);
  kg::EcConceptId barbecue = *net.GetOrAddEcConcept({"outdoor", "barbecue"});
  const CognitiveRecommender recommender(&net, /*metrics=*/nullptr);
  datagen::UserHistory user;
  user.clicked = {grill};
  EXPECT_TRUE(recommender.Recommend(user, 3, 4).empty());
  ASSERT_TRUE(net.LinkItemToEc(grill, barbecue).ok());
  EXPECT_DEATH(recommender.Recommend(user, 3, 4),
               "item-concept link added to the net after the recommender "
               "was built");
}

TEST(AppsDeathTest, AnsweringOnANetThatGrewAfterConstructionFails) {
  kg::ConceptNet net;
  kg::ClassId event = *net.taxonomy().AddDomain("Event");
  kg::ConceptId barbecue = *net.GetOrAddPrimitiveConcept("barbecue", event);
  kg::EcConceptId outdoor_barbecue =
      *net.GetOrAddEcConcept({"outdoor", "barbecue"});
  const NeedsQuestionAnswerer qa(&net);
  ASSERT_TRUE(qa.Answer("an outdoor barbecue").has_value());
  // Each kind of growth fails on its own. Grown in this order, each one is
  // the first the answerer checks.
  ASSERT_TRUE(net.LinkEcToPrimitive(outdoor_barbecue, barbecue).ok());
  EXPECT_DEATH(qa.Answer("barbecue"),
               "interpretation link added to the net after the answerer was "
               "built");
  ASSERT_TRUE(net.GetOrAddPrimitiveConcept("outdoor", event).ok());
  EXPECT_DEATH(qa.Answer("outdoor"),
               "primitive concept added to the net after the answerer was "
               "built");
  ASSERT_TRUE(net.GetOrAddEcConcept({"barbecue"}).ok());
  EXPECT_DEATH(qa.AnswerAll("barbecue"),
               "concept added to the net after the answerer was built");
}


}  // namespace
}  // namespace alicoco::apps
