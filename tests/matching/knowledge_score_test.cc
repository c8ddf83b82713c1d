// Scoring tests for the knowledge matcher. The forward-only Score must equal
// the recorded Logit, also when it takes the concept side from its
// per-thread memo or the item side from its shared item table: runs of one
// concept (memo hits), interleaved concepts (misses), titles scored under
// several concepts (table hits), matchers taking turns, the Table 6
// ablations, recording graphs after a scoring run, and concurrent scoring
// through a thread pool. The race tests run under the TSan preset (their
// names match ci.sh's regex).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/resources.h"
#include "datagen/world.h"
#include "matching/knowledge_matcher.h"

namespace alicoco::matching {
namespace {

using Tokens = std::vector<std::string>;

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
    return NetKnowledge(world, resources, world.net());
  }

  // The first `n` item titles of the catalog.
  std::vector<Tokens> Titles(size_t n) const {
    const auto& items = world.net().items();
    std::vector<Tokens> titles;
    for (size_t i = 0; i < n && i < items.size(); ++i) {
      titles.push_back(items[i].title);
    }
    return titles;
  }

  // The first `n` distinct concepts of the test split, each with at least
  // one class, so the knowledge rows take part.
  std::vector<Tokens> Concepts(size_t n) const {
    const KnowledgeResources res = KnowRes();
    std::vector<Tokens> concepts;
    for (const auto& ex : dataset.test) {
      if (concepts.size() == n) break;
      if (std::find(concepts.begin(), concepts.end(), ex.concept_tokens) ==
              concepts.end() &&
          !res.concept_classes(ex.concept_tokens).empty()) {
        concepts.push_back(ex.concept_tokens);
      }
    }
    return concepts;
  }
};

Fixture& SharedFixture() {
  static Fixture f;
  return f;
}

// Exposes the knowledge matcher's Logit: RecordedScore scores a pair on a
// recording graph, which never uses the concept-side memo or the item
// table, and every Logit call notes its graph's node count.
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

  // Every parameter's name and gradient, in store order, of the pair's
  // loss against label 1 on a recording graph with train = false.
  std::vector<std::pair<std::string, nn::Tensor>> RecordedGradients(
      const Tokens& concept_tokens, const Tokens& item_tokens) {
    store_.ZeroGrad();
    nn::Graph g;
    nn::Graph::Var logit = KnowledgeMatcher::Logit(
        &g, Encode(concept_tokens), Encode(item_tokens), false, nullptr);
    nn::Tensor target(1, 1);
    target.At(0, 0) = 1.0f;
    g.Backward(g.SigmoidCrossEntropyWithLogits(logit, target));
    std::vector<std::pair<std::string, nn::Tensor>> grads;
    for (const auto& p : store_.params()) grads.emplace_back(p->name, p->grad);
    store_.ZeroGrad();
    return grads;
  }

  // One Logit as training builds it: a recording graph with dropout on.
  void TrainingLogit(const Tokens& concept_tokens, const Tokens& item_tokens) {
    nn::Graph g;
    Rng rng(5);
    KnowledgeMatcher::Logit(&g, Encode(concept_tokens), Encode(item_tokens),
                            true, &rng);
  }

  size_t last_graph_nodes() const { return last_graph_nodes_.load(); }

  // The entries the item table needs for `titles`: their distinct token ids.
  size_t DistinctTitles(const std::vector<Tokens>& titles) const {
    std::set<std::vector<int>> keys;
    for (const Tokens& title : titles) keys.insert(Encode(title));
    return keys.size();
  }

 protected:
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<int>& concept_ids,
                       const std::vector<int>& item_ids, bool train,
                       Rng* rng) const override {
    nn::Graph::Var logit =
        KnowledgeMatcher::Logit(g, concept_ids, item_ids, train, rng);
    last_graph_nodes_.store(g->num_nodes());
    return logit;
  }

 private:
  mutable std::atomic<size_t> last_graph_nodes_{0};
};

KnowledgeMatcherConfig OneEpoch(uint64_t seed = 61) {
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 1;
  cfg.base.seed = seed;
  return cfg;
}

std::unique_ptr<ProbedKnowledgeMatcher> TrainedMatcher(
    const Fixture& f, const KnowledgeMatcherConfig& cfg,
    const KnowledgeResources& res) {
  auto model = std::make_unique<ProbedKnowledgeMatcher>(
      cfg, res, &f.resources.embeddings(), &f.resources.vocab());
  model->Train(f.dataset);
  return model;
}

std::unique_ptr<ProbedKnowledgeMatcher> TrainedMatcher(
    const Fixture& f, const KnowledgeMatcherConfig& cfg = OneEpoch()) {
  return TrainedMatcher(f, cfg, f.KnowRes());
}

// Score on a thread of its own, whose concept-side memo starts empty.
double ColdScore(const KnowledgeMatcher& model, const Tokens& concept_tokens,
                 const Tokens& item_tokens) {
  double score = 0;
  std::thread([&] {
    score = model.Score(concept_tokens, item_tokens, -1);
  }).join();
  return score;
}

// Scores `titles` against each concept, concept by concept (memo hits), then
// the same pairs interleaved across the concepts (a miss on every pair);
// both must equal the recorded scores bit for bit.
void ExpectRunsAndInterleavingEqualRecorded(
    const ProbedKnowledgeMatcher& model, const std::vector<Tokens>& concepts,
    const std::vector<Tokens>& titles) {
  std::vector<std::vector<double>> runs(concepts.size());
  for (size_t c = 0; c < concepts.size(); ++c) {
    for (const Tokens& title : titles) {
      runs[c].push_back(model.Score(concepts[c], title, -1));
    }
  }
  for (size_t t = 0; t < titles.size(); ++t) {
    for (size_t c = 0; c < concepts.size(); ++c) {
      const double recorded = model.RecordedScore(concepts[c], titles[t]);
      EXPECT_EQ(runs[c][t], recorded) << "concept " << c << " item " << t;
      EXPECT_EQ(model.Score(concepts[c], titles[t], -1), recorded)
          << "interleaved, concept " << c << " item " << t;
    }
  }
}

TEST(ForwardOnlyScoreTest, EqualsRecordedLogitAndKeepsTheGraphSmall) {
  Fixture& f = SharedFixture();
  auto model = TrainedMatcher(f);

  // A 3-token concept against a 6-token title: the composed pyramid
  // readouts made this graph 209 nodes. Scored first, so the matcher's
  // item table does not hold the title yet.
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
  // A miss on both the concept memo and the item table builds the whole
  // graph.
  model->Score(pair->concept_tokens, title, pair->item_id);
  EXPECT_EQ(model->last_graph_nodes(), 53u);
  // A hit on both: the memo alone made it 40.
  model->Score(pair->concept_tokens, title, pair->item_id);
  EXPECT_EQ(model->last_graph_nodes(), 36u);
  // Another concept in between: a memo miss, an item table hit.
  model->Score({"unseen"}, title, pair->item_id);
  model->Score(pair->concept_tokens, title, pair->item_id);
  EXPECT_EQ(model->last_graph_nodes(), 49u);

  const size_t n = std::min<size_t>(f.dataset.test.size(), 64);
  for (size_t i = 0; i < n; ++i) {
    const auto& ex = f.dataset.test[i];
    EXPECT_EQ(model->Score(ex.concept_tokens, ex.item_tokens, ex.item_id),
              model->RecordedScore(ex.concept_tokens, ex.item_tokens))
        << "example " << i;
  }
}

TEST(KnowledgeScoreMemoTest, OneConceptInARowEqualsColdAndRecordedScores) {
  Fixture& f = SharedFixture();
  auto model = TrainedMatcher(f);
  const std::vector<Tokens> concepts = f.Concepts(1);
  ASSERT_EQ(concepts.size(), 1u);
  const std::vector<Tokens> titles = f.Titles(150);
  ASSERT_EQ(titles.size(), 150u);

  std::vector<double> run;
  for (const Tokens& title : titles) {
    run.push_back(model->Score(concepts[0], title, -1));
  }
  for (size_t t = 0; t < titles.size(); ++t) {
    EXPECT_EQ(run[t], ColdScore(*model, concepts[0], titles[t])) << t;
    EXPECT_EQ(run[t], model->RecordedScore(concepts[0], titles[t])) << t;
  }
}

TEST(KnowledgeScoreMemoTest, InterleavedConceptsEqualRunsOfOneConcept) {
  Fixture& f = SharedFixture();
  auto model = TrainedMatcher(f);
  const std::vector<Tokens> concepts = f.Concepts(3);
  ASSERT_EQ(concepts.size(), 3u);
  ExpectRunsAndInterleavingEqualRecorded(*model, concepts, f.Titles(50));
}

TEST(KnowledgeScoreMemoTest, MatchersTakingTurnsKeepTheirOwnConceptSide) {
  Fixture& f = SharedFixture();
  auto a = TrainedMatcher(f, OneEpoch(61));
  auto b = TrainedMatcher(f, OneEpoch(62));
  const Tokens concept_tokens = f.Concepts(1).at(0);
  const std::vector<Tokens> titles = f.Titles(20);

  size_t differ = 0;
  for (const Tokens& title : titles) {
    const double sa = a->Score(concept_tokens, title, -1);
    const double sb = b->Score(concept_tokens, title, -1);
    EXPECT_EQ(sa, a->RecordedScore(concept_tokens, title));
    EXPECT_EQ(sb, b->RecordedScore(concept_tokens, title));
    differ += sa != sb ? 1 : 0;
  }
  EXPECT_GT(differ, 0u);
}

// A matcher built where a destroyed one lived has the same address; its
// scores must not come from the dead matcher's memo entry.
TEST(KnowledgeScoreMemoTest, MatcherAtAFreedAddressMissesTheMemo) {
  Fixture& f = SharedFixture();
  const Tokens concept_tokens = f.Concepts(1).at(0);
  const std::vector<Tokens> titles = f.Titles(10);

  std::optional<ProbedKnowledgeMatcher> model;
  model.emplace(OneEpoch(61), f.KnowRes(), &f.resources.embeddings(),
                &f.resources.vocab());
  model->Train(f.dataset);
  const ProbedKnowledgeMatcher* first = &*model;
  const double first_score = model->Score(concept_tokens, titles[0], -1);

  model.reset();
  model.emplace(OneEpoch(62), f.KnowRes(), &f.resources.embeddings(),
                &f.resources.vocab());
  model->Train(f.dataset);
  ASSERT_EQ(&*model, first);
  const double second_score = model->Score(concept_tokens, titles[0], -1);
  EXPECT_EQ(second_score, model->RecordedScore(concept_tokens, titles[0]));
  EXPECT_NE(second_score, first_score);
  for (const Tokens& title : titles) {
    EXPECT_EQ(model->Score(concept_tokens, title, -1),
              model->RecordedScore(concept_tokens, title));
  }
}

TEST(KnowledgeScoreMemoTest, AblationsEqualRecordedScores) {
  Fixture& f = SharedFixture();
  const std::vector<Tokens> concepts = f.Concepts(3);
  ASSERT_EQ(concepts.size(), 3u);
  const std::vector<Tokens> titles = f.Titles(40);

  KnowledgeMatcherConfig no_knowledge = OneEpoch();
  no_knowledge.use_knowledge = false;
  ExpectRunsAndInterleavingEqualRecorded(*TrainedMatcher(f, no_knowledge),
                                         concepts, titles);

  KnowledgeMatcherConfig no_attention = OneEpoch();
  no_attention.use_attention_channel = false;
  ExpectRunsAndInterleavingEqualRecorded(*TrainedMatcher(f, no_attention),
                                         concepts, titles);
}

// The item table holds one entry per distinct title, whatever the concept,
// and a title scored under a later concept (a table hit) scores as the
// recording graph does, on the full model and on both Table 6 ablations.
TEST(KnowledgeItemTableTest, TitlesUnderSeveralConceptsEqualRecorded) {
  Fixture& f = SharedFixture();
  const std::vector<Tokens> concepts = f.Concepts(3);
  ASSERT_EQ(concepts.size(), 3u);
  const std::vector<Tokens> titles = f.Titles(60);

  KnowledgeMatcherConfig no_knowledge = OneEpoch();
  no_knowledge.use_knowledge = false;
  KnowledgeMatcherConfig no_attention = OneEpoch();
  no_attention.use_attention_channel = false;
  for (const KnowledgeMatcherConfig& cfg :
       {OneEpoch(), no_knowledge, no_attention}) {
    auto model = TrainedMatcher(f, cfg);
    SCOPED_TRACE(model->name() + (cfg.use_attention_channel
                                      ? ""
                                      : ", no attention channel"));
    EXPECT_EQ(model->items_encoded(), 0u);
    for (const Tokens& title : titles) model->Score(concepts[0], title, -1);
    const size_t distinct = model->DistinctTitles(titles);
    EXPECT_EQ(model->items_encoded(), distinct);
    for (size_t c = 1; c < concepts.size(); ++c) {
      for (size_t t = 0; t < titles.size(); ++t) {
        EXPECT_EQ(model->Score(concepts[c], titles[t], -1),
                  model->RecordedScore(concepts[c], titles[t]))
            << "concept " << c << " item " << t;
      }
    }
    EXPECT_EQ(model->items_encoded(), distinct);
  }
}

// A recording graph never reads the memo or the item table, even with
// train = false: after this thread has scored the pair, every parameter
// gets the gradient it gets on a thread that never scored.
TEST(KnowledgeScoreMemoTest, RecordingGraphAfterScoringKeepsEveryGradient) {
  Fixture& f = SharedFixture();
  auto model = TrainedMatcher(f);
  const Tokens concept_tokens = f.Concepts(1).at(0);
  const std::vector<Tokens> titles = f.Titles(2);

  std::vector<std::pair<std::string, nn::Tensor>> cold;
  std::thread([&] {
    cold = model->RecordedGradients(concept_tokens, titles[1]);
  }).join();

  model->Score(concept_tokens, titles[0], -1);
  model->Score(concept_tokens, titles[1], -1);
  const auto warm = model->RecordedGradients(concept_tokens, titles[1]);

  ASSERT_EQ(warm.size(), cold.size());
  for (size_t p = 0; p < warm.size(); ++p) {
    const auto& [name, grad] = warm[p];
    ASSERT_EQ(name, cold[p].first);
    ASSERT_TRUE(grad.SameShape(cold[p].second)) << name;
    EXPECT_EQ(std::memcmp(grad.data(), cold[p].second.data(),
                          grad.size() * sizeof(float)),
              0)
        << name;
  }
  // Both sides' parameters take part in this gradient.
  for (const char* name : {"emb.table", "concept_cnn.W", "att_w1.W",
                           "gloss_proj.b", "class_emb.table", "pyramid0",
                           "pos_emb.table", "item_cnn.W", "att_w2.W"}) {
    auto it = std::find_if(warm.begin(), warm.end(),
                           [&](const auto& e) { return e.first == name; });
    ASSERT_NE(it, warm.end()) << name;
    EXPECT_GT(it->second.SquaredNorm(), 0.0) << name;
  }
}

// Stage 7's pattern: each pool task scores its own concept's items, so
// every worker thread fills and reads its own memo.
TEST(KnowledgeMatchingRaceTest, ConceptGroupedParallelForEqualsRecorded) {
  Fixture& f = SharedFixture();
  auto model = TrainedMatcher(f);
  const std::vector<Tokens> concepts = f.Concepts(8);
  ASSERT_EQ(concepts.size(), 8u);
  const std::vector<Tokens> titles = f.Titles(40);

  std::vector<std::vector<double>> parallel(
      concepts.size(), std::vector<double>(titles.size()));
  ThreadPool pool(4);
  pool.ParallelFor(concepts.size(), [&](size_t c) {
    for (size_t t = 0; t < titles.size(); ++t) {
      parallel[c][t] = model->Score(concepts[c], titles[t], -1);
    }
  });
  for (size_t c = 0; c < concepts.size(); ++c) {
    for (size_t t = 0; t < titles.size(); ++t) {
      EXPECT_EQ(parallel[c][t], model->RecordedScore(concepts[c], titles[t]))
          << "concept " << c << " item " << t;
    }
  }
}

TEST(KnowledgeScoreMemoTest, ConceptClassesRunsOncePerRunOfOneConcept) {
  Fixture& f = SharedFixture();
  int calls = 0;
  KnowledgeResources res = f.KnowRes();
  res.concept_classes = [inner = res.concept_classes,
                         &calls](const std::vector<std::string>& tokens) {
    ++calls;
    return inner(tokens);
  };
  auto model = TrainedMatcher(f, OneEpoch(), res);
  const Tokens concept_tokens = f.Concepts(1).at(0);
  const std::vector<Tokens> titles = f.Titles(150);

  calls = 0;
  for (const Tokens& title : titles) model->Score(concept_tokens, title, -1);
  EXPECT_EQ(calls, 1);

  calls = 0;
  for (size_t t = 0; t < 5; ++t) {
    model->TrainingLogit(concept_tokens, titles[t]);
  }
  EXPECT_EQ(calls, 5);
}

// Cell i of the grid pairs title i / 4 with concept i % 4, and each cell is
// a task of its own: the four workers score one title under four concepts
// at once, so they race to fill the same item table entries and read the
// entries the others filled.
TEST(KnowledgeMatchingRaceTest, InterleavedGridFillsTheSharedItemTable) {
  Fixture& f = SharedFixture();
  auto model = TrainedMatcher(f);
  const std::vector<Tokens> concepts = f.Concepts(4);
  ASSERT_EQ(concepts.size(), 4u);
  const std::vector<Tokens> titles = f.Titles(60);

  const size_t cells = concepts.size() * titles.size();
  std::vector<double> parallel(cells);
  ThreadPool pool(4);
  pool.ParallelFor(
      cells,
      [&](size_t i) {
        parallel[i] = model->Score(concepts[i % concepts.size()],
                                   titles[i / concepts.size()], -1);
      },
      /*grain=*/1);
  EXPECT_EQ(model->items_encoded(), model->DistinctTitles(titles));
  for (size_t i = 0; i < cells; ++i) {
    const size_t c = i % concepts.size();
    const size_t t = i / concepts.size();
    EXPECT_EQ(parallel[i], model->RecordedScore(concepts[c], titles[t]))
        << "concept " << c << " item " << t;
  }
}

// Score() is const: the per-id knowledge tables and the parameters are
// read-only after training, every call builds its own forward-only graph,
// each thread keeps its own concept-side memo, and the item table takes a
// lock. Hammer it from the pool to let TSan check that claim on the shared
// buffers.
TEST(KnowledgeMatchingRaceTest, ConcurrentScoringEqualsSerial) {
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
