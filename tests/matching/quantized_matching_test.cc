// Quantized-inference tests for the neural matchers (DESIGN.md §5): every
// matcher scored through int8 / fp16 weights must stay within the
// documented tolerance of its own fp32 scores, reverting to fp32 must be
// exact, quantized checkpoints must reload bit-for-bit, the forward-only
// Score must equal the recorded Logit, and concurrent fp32 and int8
// scoring through a thread pool must be race-free (this suite runs under
// the TSan preset — the name matches the ci.sh regex).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/resources.h"
#include "datagen/world.h"
#include "eval/metrics.h"
#include "matching/dssm.h"
#include "matching/knowledge_matcher.h"
#include "matching/match_pyramid.h"
#include "matching/re2_matcher.h"
#include "text/tokenizer.h"

namespace alicoco::matching {
namespace {

// Accuracy-tolerance policy under test (see nn/quant.h and DESIGN.md §5).
constexpr double kInt8ScoreTol = 0.05;
constexpr double kInt8AucTol = 0.02;
constexpr double kFp16ScoreTol = 5e-3;

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

std::vector<double> ScoreTestSet(const NeuralMatcherBase& model,
                                 const MatchingDataset& dataset,
                                 std::vector<int>* labels) {
  std::vector<double> scores;
  scores.reserve(dataset.test.size());
  if (labels) labels->clear();
  for (const auto& ex : dataset.test) {
    scores.push_back(model.Score(ex.concept_tokens, ex.item_tokens,
                                 ex.item_id));
    if (labels) labels->push_back(ex.label);
  }
  return scores;
}

// Drives one trained matcher through the full quantized-inference
// contract: tolerance vs fp32 for both modes, AUC preservation for int8,
// exact revert, and bit-exact save -> load.
void CheckQuantizedContract(NeuralMatcherBase* model, const char* tag) {
  Fixture& f = SharedFixture();
  std::vector<int> labels;
  const std::vector<double> fp32_scores = ScoreTestSet(*model, f.dataset,
                                                       &labels);
  const double fp32_auc = eval::Auc(fp32_scores, labels);

  // int8: scores within kInt8ScoreTol, AUC within kInt8AucTol.
  model->EnableQuantizedInference(nn::quant::QuantMode::kInt8);
  EXPECT_EQ(model->quantized_mode(), nn::quant::QuantMode::kInt8);
  const std::vector<double> int8_scores = ScoreTestSet(*model, f.dataset,
                                                       nullptr);
  double max_dev = 0;
  for (size_t i = 0; i < fp32_scores.size(); ++i) {
    max_dev = std::max(max_dev, std::fabs(int8_scores[i] - fp32_scores[i]));
  }
  EXPECT_LE(max_dev, kInt8ScoreTol) << tag << " int8 score deviation";
  const double int8_auc = eval::Auc(int8_scores, labels);
  EXPECT_NEAR(int8_auc, fp32_auc, kInt8AucTol) << tag;

  // Quantized save -> load reproduces the int8 scores bit-for-bit (the
  // serialized payload IS the quantized representation).
  const std::string path = std::string(::testing::TempDir()) + "/" + tag +
                           "_int8.bin";
  ASSERT_TRUE(model->SaveQuantized(path).ok());
  model->EnableQuantizedInference(nn::quant::QuantMode::kNone);
  ASSERT_TRUE(model->LoadQuantizedInference(path).ok());
  EXPECT_EQ(model->quantized_mode(), nn::quant::QuantMode::kInt8);
  const std::vector<double> reloaded = ScoreTestSet(*model, f.dataset,
                                                    nullptr);
  for (size_t i = 0; i < int8_scores.size(); ++i) {
    EXPECT_EQ(reloaded[i], int8_scores[i]) << tag << " example " << i;
  }

  // fp16: tighter tolerance.
  model->EnableQuantizedInference(nn::quant::QuantMode::kFp16);
  const std::vector<double> fp16_scores = ScoreTestSet(*model, f.dataset,
                                                       nullptr);
  for (size_t i = 0; i < fp32_scores.size(); ++i) {
    EXPECT_NEAR(fp16_scores[i], fp32_scores[i], kFp16ScoreTol)
        << tag << " example " << i;
  }

  // kNone reverts to the original fp32 parameters exactly.
  model->EnableQuantizedInference(nn::quant::QuantMode::kNone);
  EXPECT_EQ(model->quantized_mode(), nn::quant::QuantMode::kNone);
  const std::vector<double> reverted = ScoreTestSet(*model, f.dataset,
                                                    nullptr);
  for (size_t i = 0; i < fp32_scores.size(); ++i) {
    EXPECT_EQ(reverted[i], fp32_scores[i]) << tag << " example " << i;
  }
}

TEST(QuantizedMatchingTest, DssmWithinTolerance) {
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 2;
  DssmMatcher model(cfg, &f.resources.embeddings(), &f.resources.vocab());
  model.Train(f.dataset);
  CheckQuantizedContract(&model, "dssm");
}

TEST(QuantizedMatchingTest, MatchPyramidWithinTolerance) {
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 2;
  MatchPyramidMatcher model(cfg, &f.resources.embeddings(),
                            &f.resources.vocab());
  model.Train(f.dataset);
  CheckQuantizedContract(&model, "match_pyramid");
}

TEST(QuantizedMatchingTest, Re2WithinTolerance) {
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 2;
  Re2Matcher model(cfg, &f.resources.embeddings(), &f.resources.vocab());
  model.Train(f.dataset);
  CheckQuantizedContract(&model, "re2");
}

TEST(QuantizedMatchingTest, KnowledgeMatcherWithinTolerance) {
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 2;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  model.Train(f.dataset);
  CheckQuantizedContract(&model, "knowledge");
}

TEST(QuantizedMatchingTest, SaveBeforeEnableIsInvalidArgument) {
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 1;
  DssmMatcher model(cfg, &f.resources.embeddings(), &f.resources.vocab());
  model.Train(f.dataset);
  EXPECT_TRUE(model.SaveQuantized("/tmp/never_written.bin")
                  .IsInvalidArgument());
}

TEST(QuantizedMatchingTest, LoadBeforeTrainIsFailedPrecondition) {
  NeuralMatcherConfig cfg;
  DssmMatcher model(cfg, nullptr, nullptr);
  EXPECT_TRUE(model.LoadQuantizedInference("/tmp/whatever.bin")
                  .IsFailedPrecondition());
}

TEST(QuantizedMatchingTest, WrongModelCheckpointRejected) {
  // A checkpoint from one architecture must not load into another: the
  // parameter names will not line up.
  Fixture& f = SharedFixture();
  NeuralMatcherConfig cfg;
  cfg.epochs = 1;
  DssmMatcher dssm(cfg, &f.resources.embeddings(), &f.resources.vocab());
  dssm.Train(f.dataset);
  dssm.EnableQuantizedInference(nn::quant::QuantMode::kFp16);
  const std::string path =
      std::string(::testing::TempDir()) + "/dssm_for_re2.bin";
  ASSERT_TRUE(dssm.SaveQuantized(path).ok());

  Re2Matcher re2(cfg, &f.resources.embeddings(), &f.resources.vocab());
  re2.Train(f.dataset);
  EXPECT_TRUE(re2.LoadQuantizedInference(path).IsInvalidArgument());
  // The failed load must leave the model scoring fp32.
  EXPECT_EQ(re2.quantized_mode(), nn::quant::QuantMode::kNone);
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
  for (nn::quant::QuantMode mode :
       {nn::quant::QuantMode::kNone, nn::quant::QuantMode::kInt8}) {
    model.EnableQuantizedInference(mode);
    for (size_t i = 0; i < n; ++i) {
      const auto& ex = f.dataset.test[i];
      EXPECT_EQ(model.Score(ex.concept_tokens, ex.item_tokens, ex.item_id),
                model.RecordedScore(ex.concept_tokens, ex.item_tokens))
          << nn::quant::QuantModeName(mode) << " example " << i;
    }
  }
  model.EnableQuantizedInference(nn::quant::QuantMode::kNone);

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

// Score() is const: the quantized store, the per-id knowledge tables and
// the fp32 parameters are read-only after training, and every call builds
// its own forward-only graph. Hammer it from the pool to let TSan check that
// claim on the shared buffers, in the given inference mode.
void ExpectConcurrentScoringMatchesSerial(nn::quant::QuantMode mode) {
  Fixture& f = SharedFixture();
  KnowledgeMatcherConfig cfg;
  cfg.base.epochs = 1;
  KnowledgeMatcher model(cfg, f.KnowRes(), &f.resources.embeddings(),
                         &f.resources.vocab());
  model.Train(f.dataset);
  model.EnableQuantizedInference(mode);

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
    EXPECT_EQ(parallel[i], serial[i])
        << nn::quant::QuantModeName(mode) << " example " << i;
  }
}

TEST(QuantizedMatchingRaceTest, ConcurrentQuantizedScoring) {
  ExpectConcurrentScoringMatchesSerial(nn::quant::QuantMode::kInt8);
}

TEST(QuantizedMatchingRaceTest, ConcurrentFp32Scoring) {
  ExpectConcurrentScoringMatchesSerial(nn::quant::QuantMode::kNone);
}

}  // namespace
}  // namespace alicoco::matching
