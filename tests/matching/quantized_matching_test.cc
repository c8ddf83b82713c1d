// Scoring tests for the knowledge matcher: the forward-only Score must
// equal the recorded Logit, and concurrent scoring through a thread pool
// must be race-free (this suite runs under the TSan preset — the name
// matches the ci.sh regex).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/resources.h"
#include "datagen/world.h"
#include "matching/knowledge_matcher.h"
#include "text/tokenizer.h"

namespace alicoco::matching {
namespace {

struct Fixture {
  datagen::World world;
  datagen::WorldResources resources;
  MatchingDataset dataset;

  static datagen::WorldConfig WorldCfg() {
    datagen::WorldConfig cfg;
    cfg.seed = 67;
    cfg.heads_per_leaf = 2;
    cfg.derived_per_head = 2;
    cfg.per_domain_vocab = 10;
    cfg.num_events = 8;
    cfg.num_items = 400;
    cfg.num_good_ec_concepts = 80;
    cfg.num_bad_ec_concepts = 30;
    cfg.titles = 600;
    cfg.reviews = 300;
    cfg.guides = 250;
    cfg.queries = 120;
    cfg.num_users = 8;
    cfg.num_needs_queries = 30;
    return cfg;
  }

  Fixture()
      : world(datagen::World::Generate(WorldCfg())),
        resources(world, datagen::ResourcesConfig{}) {
    MatchingDatasetConfig mc;
    mc.max_positives_per_concept = 5;
    mc.rank_candidates = 10;
    dataset = BuildMatchingDataset(world, mc);
  }

  KnowledgeResources KnowRes() const {
    KnowledgeResources r;
    r.pos_tagger = &world.pos_tagger();
    r.gloss_encoder = &resources.gloss_encoder();
    r.gloss_lookup = [this](const std::string& w) {
      return resources.GlossOf(w);
    };
    r.concept_classes = [this](const std::vector<std::string>& tokens) {
      std::vector<int> out;
      auto ec = world.net().FindEcConcept(text::JoinTokens(tokens));
      if (ec.has_value()) {
        for (kg::ConceptId p : world.net().PrimitivesForEc(*ec)) {
          out.push_back(static_cast<int>(world.net().Get(p).cls.value));
        }
      }
      return out;
    };
    r.num_classes = static_cast<int>(world.net().taxonomy().size());
    return r;
  }
};

Fixture& SharedFixture() {
  static Fixture f;
  return f;
}

// Exposes the knowledge matcher's Logit: RecordedScore scores a pair on a
// recording graph, and every Logit call notes its graph's node count.
class ProbedKnowledgeMatcher : public KnowledgeMatcher {
 public:
  using KnowledgeMatcher::KnowledgeMatcher;

  double RecordedScore(const std::vector<std::string>& concept_tokens,
                       const std::vector<std::string>& item_tokens) const {
    nn::Graph g;
    nn::Graph::Var logit = KnowledgeMatcher::Logit(
        &g, Encode(concept_tokens), Encode(item_tokens), false, nullptr);
    const float x = g.Value(logit).At(0, 0);
    return 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
  }

  size_t last_graph_nodes() const { return last_graph_nodes_; }

 protected:
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<int>& concept_ids,
                       const std::vector<int>& item_ids, bool train,
                       Rng* rng) const override {
    nn::Graph::Var logit =
        KnowledgeMatcher::Logit(g, concept_ids, item_ids, train, rng);
    last_graph_nodes_ = g->num_nodes();
    return logit;
  }

 private:
  mutable size_t last_graph_nodes_ = 0;
};

TEST(ForwardOnlyScoreTest, EqualsRecordedLogitAndKeepsTheGraphSmall) {
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 1;
  ProbedKnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                               &f.resources.vocab());
  model.Train(f.dataset);

  const size_t n = std::min<size_t>(f.dataset.test.size(), 64);
  for (size_t i = 0; i < n; ++i) {
    const auto& ex = f.dataset.test[i];
    EXPECT_EQ(model.Score(ex.concept_tokens, ex.item_tokens, ex.item_id),
              model.RecordedScore(ex.concept_tokens, ex.item_tokens))
        << "example " << i;
  }

  // A 3-token concept against a 6-token title: the composed pyramid
  // readouts made this graph 209 nodes.
  const MatchingExample* pair = nullptr;
  for (const auto& ex : f.dataset.test) {
    if (ex.concept_tokens.size() == 3 && ex.item_tokens.size() >= 6) {
      pair = &ex;
      break;
    }
  }
  ASSERT_NE(pair, nullptr);
  const std::vector<std::string> title(pair->item_tokens.begin(),
                                       pair->item_tokens.begin() + 6);
  model.Score(pair->concept_tokens, title, pair->item_id);
  EXPECT_GT(model.last_graph_nodes(), 0u);
  EXPECT_LT(model.last_graph_nodes(), 60u);
}

// Score() is const: the per-id knowledge tables and the parameters are
// read-only after training, and every call builds its own forward-only
// graph. Hammer it from the pool to let TSan check that claim on the shared
// buffers.
TEST(QuantizedMatchingRaceTest, ConcurrentFp32Scoring) {
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 1;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  model.Train(f.dataset);

  const size_t n = std::min<size_t>(f.dataset.test.size(), 64);
  std::vector<double> serial(n), parallel(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& ex = f.dataset.test[i];
    serial[i] = model.Score(ex.concept_tokens, ex.item_tokens, ex.item_id);
  }
  ThreadPool pool(4);
  pool.ParallelFor(n, [&](size_t i) {
    const auto& ex = f.dataset.test[i];
    parallel[i] = model.Score(ex.concept_tokens, ex.item_tokens, ex.item_id);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "example " << i;
  }
}

}  // namespace
}  // namespace alicoco::matching
