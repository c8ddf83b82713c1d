// Concept-classifier learning tests over a generated world (Section 7.4).

#include "concepts/classifier.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/resources.h"
#include "datagen/world.h"

namespace alicoco::concepts {
namespace {

struct Fixture {
  datagen::World world;
  datagen::WorldResources resources;
  std::vector<LabeledConcept> train, test;

  static datagen::WorldConfig WorldCfg() {
    datagen::WorldConfig cfg;
    cfg.seed = 41;
    cfg.heads_per_leaf = 2;
    cfg.derived_per_head = 3;
    cfg.per_domain_vocab = 12;
    cfg.num_events = 10;
    cfg.num_items = 500;
    cfg.num_good_ec_concepts = 150;
    cfg.num_bad_ec_concepts = 150;
    cfg.titles = 1000;
    cfg.reviews = 500;
    cfg.guides = 400;
    cfg.queries = 300;
    cfg.num_users = 10;
    cfg.num_needs_queries = 50;
    return cfg;
  }

  Fixture()
      : world(datagen::World::Generate(WorldCfg())),
        resources(world, datagen::ResourcesConfig{}) {
    Rng rng(3);
    auto candidates = world.concept_candidates();
    std::vector<size_t> order(candidates.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    for (size_t i = 0; i < order.size(); ++i) {
      const auto& c = candidates[order[i]];
      LabeledConcept sample{c.tokens, c.good ? 1 : 0};
      if (i < order.size() * 7 / 10) {
        train.push_back(std::move(sample));
      } else {
        test.push_back(std::move(sample));
      }
    }
  }

  ClassifierResources Res() const {
    ClassifierResources r;
    r.embeddings = &resources.embeddings();
    r.corpus_vocab = &resources.vocab();
    r.lm = &resources.lm();
    r.gloss_encoder = &resources.gloss_encoder();
    r.gloss_lookup = [this](const std::string& w) {
      return resources.GlossOf(w);
    };
    return r;
  }
};

Fixture& SharedFixture() {
  static Fixture f;
  return f;
}

TEST(ConceptClassifierTest, FullModelBeatsChance) {
  Fixture& f = SharedFixture();
  ConceptClassifierConfig cfg;
  cfg.epochs = 4;
  ConceptClassifier model(cfg, f.Res());
  model.Train(f.train);
  auto m = model.Evaluate(f.test);
  EXPECT_GT(m.auc, 0.75);
  EXPECT_GT(m.binary.accuracy, 0.7);
}

TEST(ConceptClassifierTest, KnowledgeImprovesOverBaseline) {
  Fixture& f = SharedFixture();
  ConceptClassifierConfig base;
  base.use_wide = false;
  base.use_pretrained = false;
  base.use_knowledge = false;
  base.epochs = 4;
  ConceptClassifier baseline(base, f.Res());
  baseline.Train(f.train);
  double base_auc = baseline.Evaluate(f.test).auc;

  ConceptClassifierConfig full;
  full.epochs = 4;
  ConceptClassifier full_model(full, f.Res());
  full_model.Train(f.train);
  double full_auc = full_model.Evaluate(f.test).auc;

  EXPECT_GT(full_auc, base_auc - 0.02);  // full model at least on par
  EXPECT_GT(full_auc, 0.75);
}

TEST(ConceptClassifierTest, ScoreInUnitInterval) {
  Fixture& f = SharedFixture();
  ConceptClassifierConfig cfg;
  cfg.epochs = 1;
  ConceptClassifier model(cfg, f.Res());
  model.Train(f.train);
  for (size_t i = 0; i < 20 && i < f.test.size(); ++i) {
    double s = model.Score(f.test[i].tokens);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  EXPECT_EQ(model.Score({}), 0.0);
}

// Every pool size trains the same classifier: its scores are bit-identical
// at 1, 2, 4 and 8 threads, because nn::Train cuts each pooled batch into
// the same shards whatever the pool's size.
TEST(ConceptClassifierTest, EveryPoolSizeGivesTheSameScores) {
  Fixture& f = SharedFixture();
  auto scores = [&](size_t threads) {
    ThreadPool pool(threads);
    ConceptClassifierConfig cfg;
    cfg.epochs = 1;
    cfg.pool = &pool;
    ConceptClassifier model(cfg, f.Res());
    model.Train(f.train);
    std::vector<double> out;
    for (const LabeledConcept& c : f.test) out.push_back(model.Score(c.tokens));
    return out;
  };
  const std::vector<double> reference = scores(1);
  for (size_t threads : {2, 4, 8}) {
    EXPECT_EQ(scores(threads), reference) << threads << " threads";
  }
}

TEST(ConceptClassifierTest, MissingResourcesAbort) {
  ConceptClassifierConfig cfg;  // wants pretrained + knowledge
  ClassifierResources empty;
  EXPECT_DEATH(ConceptClassifier(cfg, empty), "requires");
}

}  // namespace
}  // namespace alicoco::concepts
