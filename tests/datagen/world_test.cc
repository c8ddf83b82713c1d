#include "datagen/world.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "datagen/legacy_ontology.h"
#include "eval/metrics.h"
#include "kg/stats.h"
#include "text/tokenizer.h"

namespace alicoco::datagen {
namespace {

WorldConfig SmallConfig() {
  WorldConfig cfg;
  cfg.seed = 7;
  cfg.heads_per_leaf = 2;
  cfg.derived_per_head = 3;
  cfg.per_domain_vocab = 12;
  cfg.num_events = 10;
  cfg.num_items = 400;
  cfg.num_good_ec_concepts = 60;
  cfg.num_bad_ec_concepts = 60;
  cfg.titles = 500;
  cfg.reviews = 300;
  cfg.guides = 200;
  cfg.queries = 200;
  cfg.num_users = 30;
  cfg.num_needs_queries = 100;
  return cfg;
}

const World& SharedWorld() {
  static const World world = World::Generate(SmallConfig());
  return world;
}

TEST(WorldTest, TaxonomyHasTwentyDomains) {
  const World& w = SharedWorld();
  EXPECT_EQ(w.net().taxonomy().Domains().size(), 20u);
  EXPECT_EQ(DomainNames().size(), 20u);
  // Category carries the deepest subtree.
  const kg::Taxonomy& tax = w.net().taxonomy();
  size_t leaves = 0;
  for (kg::ClassId cls : tax.Subtree(w.handles().category)) {
    leaves += tax.Get(cls).children.empty();
  }
  EXPECT_GT(leaves, 15u);
}

TEST(WorldTest, DeterministicForSeed) {
  World a = World::Generate(SmallConfig());
  World b = World::Generate(SmallConfig());
  EXPECT_EQ(a.net().num_primitive_concepts(), b.net().num_primitive_concepts());
  EXPECT_EQ(a.net().num_ec_concepts(), b.net().num_ec_concepts());
  ASSERT_EQ(a.sentences().size(), b.sentences().size());
  for (size_t i = 0; i < 50 && i < a.sentences().size(); ++i) {
    EXPECT_EQ(a.sentences()[i].tokens, b.sentences()[i].tokens);
  }
}

TEST(WorldTest, CountsMatchConfig) {
  const World& w = SharedWorld();
  const auto& cfg = w.config();
  EXPECT_EQ(w.net().num_items(), static_cast<size_t>(cfg.num_items));
  EXPECT_EQ(w.item_profiles().size(), static_cast<size_t>(cfg.num_items));
  // Good compound concepts + single-event concepts.
  EXPECT_GE(w.net().num_ec_concepts(),
            static_cast<size_t>(cfg.num_good_ec_concepts));
  EXPECT_EQ(w.concept_candidates().size(),
            static_cast<size_t>(cfg.num_good_ec_concepts +
                                cfg.num_bad_ec_concepts));
  EXPECT_EQ(w.tagged_concepts().size(),
            static_cast<size_t>(cfg.num_good_ec_concepts));
}

TEST(WorldTest, HypernymGoldConsistentWithNet) {
  const World& w = SharedWorld();
  ASSERT_FALSE(w.hypernym_gold().empty());
  for (const auto& pair : w.hypernym_gold()) {
    auto hypo = w.net().FindPrimitive(pair.hypo);
    auto hyper = w.net().FindPrimitive(pair.hyper);
    ASSERT_FALSE(hypo.empty()) << pair.hypo;
    ASSERT_FALSE(hyper.empty()) << pair.hyper;
    // The isA edge exists in the net.
    auto hs = w.net().Hypernyms(hypo[0]);
    EXPECT_TRUE(std::find(hs.begin(), hs.end(), hyper[0]) != hs.end());
    // Two-token hyponyms obey the suffix-head rule ("rain boot" isA
    // "boot"); one-token hyponyms are head->group pairs with disjoint
    // surfaces ("jacket" isA "top").
    if (text::Tokenize(pair.hypo).size() > 1) {
      EXPECT_EQ(pair.hypo.substr(pair.hypo.size() - pair.hyper.size()),
                pair.hyper);
    } else {
      EXPECT_EQ(pair.hypo.find(pair.hyper), std::string::npos);
    }
  }
}

TEST(WorldTest, SentencesHaveAlignedGoldLabels) {
  const World& w = SharedWorld();
  ASSERT_FALSE(w.sentences().empty());
  for (const auto& s : w.sentences()) {
    ASSERT_EQ(s.tokens.size(), s.gold_iob.size());
    ASSERT_FALSE(s.tokens.empty());
    // Labels decode into valid spans.
    auto spans = eval::DecodeIob(s.gold_iob);
    for (const auto& span : spans) {
      EXPECT_LE(span.end, s.tokens.size());
    }
  }
}

TEST(WorldTest, AllFourSourcesPresent) {
  const World& w = SharedWorld();
  std::map<Sentence::Source, size_t> per_source;
  for (const Sentence& s : w.sentences()) ++per_source[s.source];
  EXPECT_GT(per_source[Sentence::Source::kTitle], 0u);
  EXPECT_GT(per_source[Sentence::Source::kQuery], 0u);
  EXPECT_GT(per_source[Sentence::Source::kReview], 0u);
  EXPECT_GT(per_source[Sentence::Source::kGuide], 0u);
}

TEST(WorldTest, HoldoutSurfacesAppearInCorpusButNotSeedDict) {
  const World& w = SharedWorld();
  ASSERT_FALSE(w.holdout_surfaces().empty());
  std::unordered_set<std::string> seed;
  for (const auto& [surface, domain] : w.seed_dictionary()) {
    seed.insert(surface);
  }
  // Count holdout surfaces that occur somewhere in the corpus.
  size_t found = 0;
  for (const auto& surface : w.holdout_surfaces()) {
    EXPECT_EQ(seed.count(surface), 0u) << surface << " leaked into seed";
    auto toks = text::Tokenize(surface);
    for (const auto& s : w.sentences()) {
      bool hit = false;
      for (size_t i = 0; i + toks.size() <= s.tokens.size(); ++i) {
        bool match = true;
        for (size_t j = 0; j < toks.size(); ++j) {
          if (s.tokens[i + j] != toks[j]) {
            match = false;
            break;
          }
        }
        if (match) {
          hit = true;
          break;
        }
      }
      if (hit) {
        ++found;
        break;
      }
    }
  }
  // Most holdout concepts occur in text (items/guides mention them).
  EXPECT_GT(found, w.holdout_surfaces().size() / 2);
}

TEST(WorldTest, GoodCandidatesBalancedWithBad) {
  const World& w = SharedWorld();
  size_t good = 0, bad = 0;
  for (const auto& c : w.concept_candidates()) {
    if (c.good) {
      ++good;
      EXPECT_EQ(c.flaw, ConceptCandidate::Flaw::kNone);
    } else {
      ++bad;
      EXPECT_NE(c.flaw, ConceptCandidate::Flaw::kNone);
    }
    EXPECT_FALSE(c.tokens.empty());
  }
  EXPECT_EQ(good, bad);
}

TEST(WorldTest, BadCandidatesCoverAllFlawKinds) {
  const World& w = SharedWorld();
  std::unordered_set<int> flaws;
  for (const auto& c : w.concept_candidates()) {
    if (!c.good) flaws.insert(static_cast<int>(c.flaw));
  }
  EXPECT_GE(flaws.size(), 3u);  // at least 3 of the 4 flaw kinds realized
}

TEST(WorldTest, TaggedConceptsHaveValidFuzzySets) {
  const World& w = SharedWorld();
  size_t with_ambiguity = 0;
  for (const auto& t : w.tagged_concepts()) {
    ASSERT_EQ(t.tokens.size(), t.gold_iob.size());
    ASSERT_EQ(t.tokens.size(), t.allowed_iob.size());
    for (size_t i = 0; i < t.tokens.size(); ++i) {
      ASSERT_FALSE(t.allowed_iob[i].empty());
      // Gold label always among the allowed ones.
      EXPECT_TRUE(std::find(t.allowed_iob[i].begin(), t.allowed_iob[i].end(),
                            t.gold_iob[i]) != t.allowed_iob[i].end());
      if (t.allowed_iob[i].size() > 1) ++with_ambiguity;
    }
  }
  // The ambiguous senses must generate some fuzzy positions.
  EXPECT_GT(with_ambiguity, 0u);
}

TEST(WorldTest, EcGoldAssociationsExistInNet) {
  const World& w = SharedWorld();
  size_t drift = 0, with_items = 0;
  for (const auto& g : w.ec_gold()) {
    for (kg::ConceptId p : g.interpretation) {
      auto prims = w.net().PrimitivesForEc(g.id);
      EXPECT_TRUE(std::find(prims.begin(), prims.end(), p) != prims.end());
    }
    if (!g.items.empty()) ++with_items;
    if (g.event_driven) ++drift;
    for (kg::ItemId item : g.items) {
      auto ecs = w.net().EcConceptsForItem(item);
      EXPECT_TRUE(std::find(ecs.begin(), ecs.end(), g.id) != ecs.end());
    }
  }
  EXPECT_GT(drift, 0u);
  EXPECT_GT(with_items, w.ec_gold().size() / 3);
}

TEST(WorldTest, SemanticDriftItemsShareNoTokens) {
  // For event-driven concepts, most associated items must share zero title
  // tokens with the concept surface (that is the drift).
  const World& w = SharedWorld();
  size_t checked = 0, no_overlap = 0;
  for (const auto& g : w.ec_gold()) {
    if (!g.event_driven || g.items.empty()) continue;
    const auto& ec = w.net().Get(g.id);
    std::unordered_set<std::string> concept_tokens(ec.tokens.begin(),
                                                   ec.tokens.end());
    for (kg::ItemId item : g.items) {
      ++checked;
      bool overlap = false;
      for (const auto& t : w.net().Get(item).title) {
        if (concept_tokens.count(t)) overlap = true;
      }
      if (!overlap) ++no_overlap;
    }
  }
  ASSERT_GT(checked, 0u);
  // Pattern-4 concepts ([Holiday] gifts for [Audience]) legitimately share
  // the audience token with some item titles; everything else is pure drift.
  EXPECT_GT(no_overlap, checked * 4 / 5);
}

TEST(WorldTest, ItemsLinkedToPrimitives) {
  const World& w = SharedWorld();
  for (const auto& item : w.item_profiles()) {
    auto prims = w.net().PrimitivesForItem(item.id);
    EXPECT_FALSE(prims.empty());
    // Category link present.
    EXPECT_TRUE(std::find(prims.begin(), prims.end(), item.category) !=
                prims.end());
  }
}

TEST(WorldTest, UsersHaveNeedsAndClicks) {
  const World& w = SharedWorld();
  ASSERT_FALSE(w.user_histories().empty());
  for (const auto& u : w.user_histories()) {
    EXPECT_FALSE(u.needs.empty());
    EXPECT_GE(u.clicked.size(), 3u);
  }
}

TEST(WorldTest, AmbiguousSurfacesExist) {
  const World& w = SharedWorld();
  size_t multi_sense = 0;
  for (const auto& p : w.net().primitives()) {
    if (w.net().FindPrimitive(p.surface).size() > 1) ++multi_sense;
  }
  EXPECT_GT(multi_sense, 0u);
}

TEST(WorldTest, GlossesMentionNeededCategories) {
  // Event glosses must name their needed category heads (the moon-cake
  // knowledge channel of Section 7.6).
  const World& w = SharedWorld();
  size_t checked = 0;
  for (const auto& g : w.ec_gold()) {
    if (!g.event_driven || g.interpretation.size() != 1) continue;
    const auto& event_concept = w.net().Get(g.interpretation[0]);
    if (event_concept.gloss.empty()) continue;
    ++checked;
    std::unordered_set<std::string> gloss_tokens(event_concept.gloss.begin(),
                                                 event_concept.gloss.end());
    // At least one associated item's category head token in the gloss.
    bool hit = false;
    for (kg::ItemId item : g.items) {
      for (const auto& t : w.net().Get(item).title) {
        if (gloss_tokens.count(t)) hit = true;
      }
    }
    if (!g.items.empty()) {
      EXPECT_TRUE(hit);
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(WorldTest, StatisticsPopulateAllDomains) {
  const World& w = SharedWorld();
  auto stats = kg::ComputeStatistics(w.net());
  EXPECT_EQ(stats.per_domain.size(), 20u);
  for (const auto& [name, count] : stats.per_domain) {
    EXPECT_GT(count, 0u) << "empty domain " << name;
  }
  EXPECT_GT(stats.isa_primitive, 0u);
  EXPECT_GT(stats.isa_ec, 0u);
  EXPECT_GT(stats.item_ec, 0u);
  EXPECT_GT(stats.typed_relations, 0u);
}

TEST(LegacyOntologyTest, KnowsOnlyCpvVocabulary) {
  const World& w = SharedWorld();
  LegacyOntology legacy(w);
  EXPECT_GT(legacy.vocabulary_size(), 0u);
  // Every category surface token is known; event tokens are not.
  const auto& net = w.net();
  const auto& tax = net.taxonomy();
  for (const auto& p : net.primitives()) {
    std::string domain = tax.Get(tax.Domain(p.cls)).name;
    auto toks = text::Tokenize(p.surface);
    if (domain == "Category") {
      for (const auto& t : toks) EXPECT_TRUE(legacy.Knows(t)) << t;
    }
    if (domain == "Event") {
      // Event words are exclusive to events unless surface is ambiguous.
      if (net.FindPrimitive(p.surface).size() == 1) {
        for (const auto& t : toks) {
          EXPECT_FALSE(legacy.Knows(t)) << t;
        }
      }
    }
  }
}

TEST(LegacyOntologyTest, CoverageGapOnNeedsQueries) {
  const World& w = SharedWorld();
  LegacyOntology legacy(w);
  // Token-level coverage of needs queries: the full net beats CPV by a wide
  // margin (paper: 75% vs 30%).
  size_t total = 0, net_known = 0, legacy_known = 0;
  for (const auto& q : w.needs_queries()) {
    for (const auto& t : q) {
      ++total;
      if (!w.net().FindPrimitive(t).empty() ||
          std::any_of(w.net().primitives().begin(),
                      w.net().primitives().end(),
                      [&](const kg::PrimitiveConcept& p) {
                        return p.surface == t;
                      })) {
        ++net_known;
      }
      if (legacy.Knows(t)) ++legacy_known;
    }
  }
  ASSERT_GT(total, 0u);
  double net_cov = double(net_known) / total;
  double legacy_cov = double(legacy_known) / total;
  EXPECT_GT(net_cov, legacy_cov + 0.2);
}

}  // namespace
}  // namespace alicoco::datagen
