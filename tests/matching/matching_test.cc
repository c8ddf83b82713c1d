// Matching module tests (Section 7.6): dataset construction, every matcher
// trains and beats chance, and the key paper claims hold on the synthetic
// world — lexical matching fails on semantic drift, knowledge bridges it.

#include <gtest/gtest.h>

#include "datagen/resources.h"
#include "datagen/world.h"
#include "matching/bm25_matcher.h"
#include "matching/dssm.h"
#include "matching/knowledge_matcher.h"
#include "matching/match_pyramid.h"
#include "matching/re2_matcher.h"
#include "text/tokenizer.h"

namespace alicoco::matching {
namespace {

struct Fixture {
  datagen::World world;
  datagen::WorldResources resources;
  MatchingDataset dataset;

  static datagen::WorldConfig WorldCfg() {
    datagen::WorldConfig cfg;
    cfg.seed = 61;
    cfg.heads_per_leaf = 2;
    cfg.derived_per_head = 3;
    cfg.per_domain_vocab = 12;
    cfg.num_events = 10;
    cfg.num_items = 700;
    cfg.num_good_ec_concepts = 120;
    cfg.num_bad_ec_concepts = 40;
    cfg.titles = 1000;
    cfg.reviews = 500;
    cfg.guides = 400;
    cfg.queries = 200;
    cfg.num_users = 10;
    cfg.num_needs_queries = 50;
    return cfg;
  }

  Fixture()
      : world(datagen::World::Generate(WorldCfg())),
        resources(world, datagen::ResourcesConfig{}) {
    MatchingDatasetConfig mc;
    mc.max_positives_per_concept = 6;
    mc.rank_candidates = 15;
    dataset = BuildMatchingDataset(world, mc);
  }

  KnowledgeResources KnowRes() const {
    return NetKnowledge(world, resources, world.net());
  }
};

Fixture& SharedFixture() {
  static Fixture f;
  return f;
}

TEST(MatchingDatasetTest, SplitsAndLabels) {
  Fixture& f = SharedFixture();
  EXPECT_FALSE(f.dataset.train.empty());
  EXPECT_FALSE(f.dataset.test.empty());
  EXPECT_FALSE(f.dataset.rank_queries.empty());
  // Test concepts are disjoint from train concepts.
  std::unordered_set<std::string> train_concepts;
  for (const auto& ex : f.dataset.train) {
    train_concepts.insert(text::JoinTokens(ex.concept_tokens));
  }
  for (const auto& ex : f.dataset.test) {
    EXPECT_EQ(train_concepts.count(text::JoinTokens(ex.concept_tokens)), 0u);
  }
  // Labels are consistent with the gold net.
  for (const auto& ex : f.dataset.test) {
    auto ec = f.world.net().FindEcConcept(text::JoinTokens(ex.concept_tokens));
    ASSERT_TRUE(ec.has_value());
    auto items = f.world.net().ItemsForEc(*ec);
    bool linked = std::find(items.begin(), items.end(),
                            kg::ItemId(static_cast<uint32_t>(ex.item_id))) !=
                  items.end();
    EXPECT_EQ(linked, ex.label == 1);
  }
}

TEST(MatchingTest, Bm25ScoresLexicalOverlapOnly) {
  Fixture& f = SharedFixture();
  Bm25Matcher bm25;
  bm25.Train(f.dataset);
  auto m = EvaluateMatcher(bm25, f.dataset);
  // BM25 is better than random ordering but far from the learned models.
  EXPECT_GT(m.p_at_10, 0.1);
  EXPECT_LT(m.p_at_10, 0.85);
}

TEST(MatchingTest, EveryNeuralMatcherBeatsChance) {
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 2;
  std::vector<std::unique_ptr<Matcher>> models;
  models.push_back(std::make_unique<DssmMatcher>(
      cfg, &f.resources.embeddings(), &f.resources.vocab()));
  models.push_back(std::make_unique<MatchPyramidMatcher>(
      cfg, &f.resources.embeddings(), &f.resources.vocab()));
  models.push_back(std::make_unique<Re2Matcher>(
      cfg, &f.resources.embeddings(), &f.resources.vocab()));
  for (auto& model : models) {
    model->Train(f.dataset);
    auto m = EvaluateMatcher(*model, f.dataset);
    EXPECT_GT(m.auc, 0.6) << model->name();
  }
}

TEST(MatchingTest, KnowledgeMatcherLearns) {
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 3;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  EXPECT_EQ(model.name(), "Ours + Knowledge");
  model.Train(f.dataset);
  auto m = EvaluateMatcher(model, f.dataset);
  EXPECT_GT(m.auc, 0.7);
  EXPECT_GT(m.p_at_10, 0.4);
}

TEST(MatchingTest, KnowledgeBridgesSemanticDrift) {
  // On event-driven test pairs (zero token overlap), the knowledge variant
  // must outscore the no-knowledge variant.
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig with_cfg;
  with_cfg.base.epochs = 3;
  KnowledgeMatcher with_k(with_cfg, f.KnowRes(), &f.resources.embeddings(),
                          &f.resources.vocab());
  with_k.Train(f.dataset);

  KnowledgeMatcherConfig without_cfg;
  without_cfg.base.epochs = 3;
  without_cfg.use_knowledge = false;
  KnowledgeResources no_know;
  no_know.pos_tagger = &f.world.pos_tagger();
  KnowledgeMatcher without_k(without_cfg, no_know, &f.resources.embeddings(),
                             &f.resources.vocab());
  EXPECT_EQ(without_k.name(), "Ours");
  without_k.Train(f.dataset);

  // Collect drift test pairs: positive pairs with no token overlap.
  std::vector<double> with_scores, without_scores;
  std::vector<int> labels;
  for (const auto& ex : f.dataset.test) {
    std::unordered_set<std::string> ct(ex.concept_tokens.begin(),
                                       ex.concept_tokens.end());
    bool overlap = false;
    for (const auto& t : ex.item_tokens) {
      if (ct.count(t)) overlap = true;
    }
    if (overlap) continue;
    with_scores.push_back(
        with_k.Score(ex.concept_tokens, ex.item_tokens, ex.item_id));
    without_scores.push_back(
        without_k.Score(ex.concept_tokens, ex.item_tokens, ex.item_id));
    labels.push_back(ex.label);
  }
  ASSERT_GT(labels.size(), 20u);
  double with_auc = eval::Auc(with_scores, labels);
  double without_auc = eval::Auc(without_scores, labels);
  EXPECT_GT(with_auc, 0.6);
  EXPECT_GT(with_auc, without_auc - 0.05);
}

TEST(MatchingTest, ScoreBeforeTrainAborts) {
  NeuralMatcherConfig cfg;
  DssmMatcher model(cfg, nullptr, nullptr);
  EXPECT_DEATH(model.Score({"a"}, {"b"}, 0), "before Train");
}

}  // namespace
}  // namespace alicoco::matching
