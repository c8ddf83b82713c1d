// End-to-end pipeline integration test: builds a complete AliCoCo from a
// small synthetic world and checks every stage produced sensible structure.
// Stage 7's threshold rule is also tested on its own, without a world.

#include "pipeline/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "kg/persistence.h"
#include "kg/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alicoco::pipeline {
namespace {

struct Built {
  datagen::World world;
  std::unique_ptr<datagen::WorldResources> resources;
  // The one Build runs traced; perfbench's traced pass reads the same
  // spans and metrics, so the tests below pin their names.
  obs::Tracer tracer;
  obs::Registry metrics;
  kg::ConceptNet net;
  BuildReport report;

  Built() : world(datagen::World::Generate(WorldCfg())) {
    resources = std::make_unique<datagen::WorldResources>(
        world, datagen::ResourcesConfig{});
    PipelineConfig cfg;
    cfg.labeler.epochs = 3;
    cfg.mining_epochs = 2;
    cfg.projection.epochs = 3;
    cfg.classifier.epochs = 3;
    cfg.tagger.epochs = 4;
    cfg.matcher.base.epochs = 4;
    cfg.association_candidates = 60;
    cfg.tracer = &tracer;
    cfg.metrics = &metrics;
    AliCoCoBuilder builder(&world, resources.get(), cfg);
    auto result = builder.Build(&report);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    net = std::move(result).ValueOrDie();
  }

  static datagen::WorldConfig WorldCfg() {
    datagen::WorldConfig cfg;
    cfg.seed = 81;
    cfg.heads_per_leaf = 2;
    cfg.derived_per_head = 3;
    cfg.per_domain_vocab = 10;
    cfg.num_events = 8;
    cfg.num_items = 500;
    cfg.num_good_ec_concepts = 250;
    cfg.num_bad_ec_concepts = 250;
    cfg.titles = 900;
    cfg.reviews = 400;
    cfg.guides = 400;
    cfg.queries = 300;
    cfg.num_users = 20;
    cfg.num_needs_queries = 50;
    return cfg;
  }
};

Built& SharedBuilt() {
  static Built b;
  return b;
}

TEST(PipelineTest, AllStagesProduceStructure) {
  Built& b = SharedBuilt();
  const auto& r = b.report;
  EXPECT_GT(r.seed_concepts, 100u);
  ASSERT_EQ(r.mining_epochs.size(), 2u);
  EXPECT_GT(r.mined_concepts, 0u);
  EXPECT_GT(r.isa_from_patterns, 0u);
  EXPECT_GT(r.ec_candidates, 100u);
  EXPECT_TRUE(r.audit_passed);
  EXPECT_GT(r.audit_accuracy, 0.7);
  EXPECT_GT(r.ec_accepted, 20u);
  EXPECT_GT(r.interpretation_links, r.ec_accepted / 2);
  EXPECT_EQ(r.items_added, b.world.net().num_items());
  EXPECT_GT(r.item_primitive_links, r.items_added);  // >1 tag per item
  EXPECT_GT(r.item_ec_links, 0u);
}

TEST(PipelineTest, BuiltNetQualityAgainstGold) {
  Built& b = SharedBuilt();
  auto cmp = AliCoCoBuilder::CompareToGold(b.net, b.world);
  EXPECT_GT(cmp.primitive_precision, 0.95);  // oracle-audited adds
  EXPECT_GT(cmp.primitive_recall, 0.6);
  EXPECT_GT(cmp.isa_precision, 0.8);
  EXPECT_GT(cmp.isa_recall, 0.5);
  EXPECT_GT(cmp.ec_precision, 0.6);
  EXPECT_GT(cmp.item_link_precision, 0.2);
}

TEST(PipelineTest, ReportSummaryMentionsStages) {
  Built& b = SharedBuilt();
  std::string s = b.report.Summary();
  EXPECT_NE(s.find("seed concepts"), std::string::npos);
  EXPECT_NE(s.find("mining epoch 1"), std::string::npos);
  EXPECT_NE(s.find("isA from patterns"), std::string::npos);
  EXPECT_NE(s.find("item-ec links"), std::string::npos);
}

TEST(PipelineTest, BuiltNetSurvivesPersistenceRoundTrip) {
  Built& b = SharedBuilt();
  std::string path = std::string(::testing::TempDir()) + "/built_net.txt";
  ASSERT_TRUE(kg::SaveConceptNet(b.net, path).ok());
  auto loaded = kg::LoadConceptNet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(kg::StatisticsToTable(kg::ComputeStatistics(b.net)),
            kg::StatisticsToTable(kg::ComputeStatistics(*loaded)));
}

TEST(PipelineTest, StatisticsHaveTable2Shape) {
  Built& b = SharedBuilt();
  auto stats = kg::ComputeStatistics(b.net);
  EXPECT_EQ(stats.per_domain.size(), 20u);
  EXPECT_GT(stats.num_primitive_concepts, 0u);
  EXPECT_GT(stats.num_ec_concepts, 0u);
  EXPECT_GT(stats.num_items, 0u);
  EXPECT_GT(stats.total_relations, stats.num_items);
}

TEST(PipelineTest, StageSpansFormOneTreeInExecutionOrder) {
  Built& b = SharedBuilt();
  std::vector<obs::SpanRecord> spans = b.tracer.Records();
  std::vector<const obs::SpanRecord*> roots;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0) roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 1u);
  const obs::SpanRecord& root = *roots[0];
  EXPECT_EQ(root.name, "pipeline.build");

  // The spans directly under `parent`, in the order they opened.
  auto children = [&](uint64_t parent) {
    std::vector<const obs::SpanRecord*> out;
    for (const obs::SpanRecord& s : spans) {
      if (s.parent_id == parent) out.push_back(&s);
    }
    std::sort(out.begin(), out.end(),
              [](const obs::SpanRecord* x, const obs::SpanRecord* y) {
                return x->id < y->id;  // ids are handed out as spans open
              });
    return out;
  };
  const std::vector<const obs::SpanRecord*> stages = children(root.id);
  std::vector<std::string> names;
  uint64_t staged_us = 0;
  for (const obs::SpanRecord* s : stages) {
    names.push_back(s->name);
    staged_us += s->duration_us;
  }
  const std::vector<std::string> expected = {
      "pipeline.taxonomy_schema",    "pipeline.seed_concepts",
      "pipeline.mining",             "pipeline.hypernym_discovery",
      "pipeline.ec_concepts",        "pipeline.concept_tagging",
      "pipeline.item_association",   "pipeline.relation_inference",
      "pipeline.validation"};
  EXPECT_EQ(names, expected);
  EXPECT_GE(static_cast<double>(staged_us),
            0.95 * static_cast<double>(root.duration_us));

  ASSERT_EQ(stages.size(), expected.size());
  const uint64_t mining_id = stages[2]->id;
  size_t epochs_under_mining = 0, epochs = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "pipeline.mining.epoch") continue;
    ++epochs;
    if (s.parent_id == mining_id) ++epochs_under_mining;
  }
  EXPECT_EQ(epochs, 2u);  // cfg.mining_epochs
  EXPECT_EQ(epochs_under_mining, epochs);

  // Stage 7 splits into train, calibrate and score, in that order, which
  // together cover the stage.
  const obs::SpanRecord& assoc = *stages[6];
  const std::vector<const obs::SpanRecord*> steps = children(assoc.id);
  std::vector<std::string> step_names;
  uint64_t step_us = 0;
  for (const obs::SpanRecord* s : steps) {
    step_names.push_back(s->name);
    step_us += s->duration_us;
  }
  EXPECT_EQ(step_names, (std::vector<std::string>{
                            "pipeline.item_association.train",
                            "pipeline.item_association.calibrate",
                            "pipeline.item_association.score"}));
  EXPECT_GE(static_cast<double>(step_us),
            0.95 * static_cast<double>(assoc.duration_us));

  // Each model's nn::Train span sits under the stage that trains it, with
  // one epoch span per configured epoch.
  ASSERT_EQ(steps.size(), 3u);
  auto attribute = [](const obs::SpanRecord& s, const std::string& key) {
    for (const auto& [k, v] : s.attributes) {
      if (k == key) return v;
    }
    return std::string();
  };
  auto trainings = [&](const std::string& model, uint64_t parent,
                       int epochs) {
    std::vector<const obs::SpanRecord*> found;
    for (const obs::SpanRecord& s : spans) {
      if (s.name != model + ".train") continue;
      EXPECT_EQ(s.parent_id, parent) << s.name;
      EXPECT_EQ(attribute(s, "epochs"), std::to_string(epochs)) << s.name;
      int epoch_spans = 0;
      for (const obs::SpanRecord& e : spans) {
        epoch_spans += e.parent_id == s.id && e.name == model + ".epoch";
      }
      EXPECT_EQ(epoch_spans, epochs) << s.name;
      found.push_back(&s);
    }
    std::sort(found.begin(), found.end(),
              [](const obs::SpanRecord* x, const obs::SpanRecord* y) {
                return x->id < y->id;
              });
    return found;
  };
  EXPECT_EQ(trainings("labeler", stages[2]->id, 3).size(), 1u);
  EXPECT_EQ(trainings("projection", stages[3]->id, 3).size(), 1u);
  EXPECT_EQ(trainings("tagger", stages[5]->id, 4).size(), 1u);
  EXPECT_EQ(trainings("matcher", steps[0]->id, 4).size(), 1u);
  // Stage 5 trains a fresh classifier in every audit round (at most 5), on
  // a training set that grows by each round's audited labels.
  const std::vector<const obs::SpanRecord*> rounds =
      trainings("classifier", stages[4]->id, 3);
  ASSERT_GE(rounds.size(), 1u);
  EXPECT_LE(rounds.size(), 5u);
  for (size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_LT(std::stoul(attribute(*rounds[i - 1], "examples")),
              std::stoul(attribute(*rounds[i], "examples")));
  }

  // Stage 5 splits into generate, then per round the classifier's train
  // span, score and audit, in that order, which together cover the stage.
  // A round that scores no candidate above the threshold ends the loop
  // before its audit.
  const obs::SpanRecord& ec_stage = *stages[4];
  std::vector<std::string> ec_step_names;
  uint64_t ec_step_us = 0;
  for (const obs::SpanRecord* s : children(ec_stage.id)) {
    ec_step_names.push_back(s->name);
    ec_step_us += s->duration_us;
  }
  const size_t audits =
      std::count(ec_step_names.begin(), ec_step_names.end(),
                 "pipeline.ec_concepts.audit");
  EXPECT_TRUE(audits == rounds.size() || audits + 1 == rounds.size())
      << audits << " audits in " << rounds.size() << " rounds";
  std::vector<std::string> ec_expected = {"pipeline.ec_concepts.generate"};
  for (size_t i = 0; i < rounds.size(); ++i) {
    ec_expected.push_back("classifier.train");
    ec_expected.push_back("pipeline.ec_concepts.score");
    if (i < audits) ec_expected.push_back("pipeline.ec_concepts.audit");
  }
  EXPECT_EQ(ec_step_names, ec_expected);
  EXPECT_GE(static_cast<double>(ec_step_us),
            0.95 * static_cast<double>(ec_stage.duration_us));
}

TEST(PipelineTest, PublishesTheMetricsPerfbenchReads) {
  Built& b = SharedBuilt();
  const obs::Registry& m = b.metrics;
  for (const char* name : {"pipeline.worker_pool.tasks_completed",
                           "pipeline.mining.candidates",
                           "pipeline.mining.accepted",
                           "pipeline.ec_concepts.candidates",
                           "pipeline.ec_concepts.accepted",
                           "pipeline.ec_concepts.audited",
                           "pipeline.ec_concepts.audit_rejected",
                           "pipeline.item_association.item_ec_links",
                           "pipeline.item_association.edges_above_threshold",
                           "pipeline.item_association.edges_below_threshold"}) {
    EXPECT_NE(m.FindCounter(name), nullptr) << name;
  }
  for (const char* name : {"pipeline.worker_pool.queue_wait_us",
                           "pipeline.worker_pool.task_run_us",
                           "matching.knowledge_matcher.score_latency_us"}) {
    const obs::Histogram* h = m.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
  }

  auto counter = [&](const std::string& name) -> uint64_t {
    const obs::Counter* c = m.FindCounter("pipeline." + name);
    return c == nullptr ? 0 : c->value();
  };
  const BuildReport& r = b.report;
  EXPECT_EQ(counter("item_association.item_ec_links"), r.item_ec_links);
  EXPECT_EQ(counter("mining.mined_concepts"), r.mined_concepts);
  EXPECT_EQ(counter("ec_concepts.accepted"), r.ec_accepted);
  EXPECT_EQ(counter("item_association.items_added"), r.items_added);
}

// Stage 7's matcher keeps one item table entry per distinct title it
// scored: at least one, and no more than the catalog's titles or the
// stage's scores.
TEST(PipelineTest, ItemTableHoldsAtMostOneEntryPerTitle) {
  Built& b = SharedBuilt();
  const obs::Counter* encoded =
      b.metrics.FindCounter("pipeline.item_association.items_encoded");
  ASSERT_NE(encoded, nullptr);
  const obs::Histogram* scores =
      b.metrics.FindHistogram("matching.knowledge_matcher.score_latency_us");
  ASSERT_NE(scores, nullptr);
  EXPECT_GT(encoded->value(), 0u);
  EXPECT_LE(encoded->value(), b.world.net().items().size());
  EXPECT_LE(encoded->value(), scores->count());
}

// Every stage fact is published twice, as the `pipeline.<stage>.<fact>`
// counter or gauge and as an attribute of the stage's span; both must agree.
TEST(PipelineTest, StageSpanAttributesMatchStageMetrics) {
  Built& b = SharedBuilt();
  const obs::Registry& m = b.metrics;
  const std::vector<obs::SpanRecord> spans = b.tracer.Records();
  uint64_t root_id = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0) root_id = s.id;
  }
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      stage_attributes;  // by stage span name
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == root_id) stage_attributes[s.name] = s.attributes;
  }
  ASSERT_EQ(stage_attributes.size(), 9u);

  for (const auto& [stage, attributes] : stage_attributes) {
    for (const auto& [fact, value] : attributes) {
      const std::string name = stage + "." + fact;
      if (const obs::Counter* c = m.FindCounter(name)) {
        EXPECT_EQ(value, std::to_string(c->value())) << name;
      } else if (const obs::Gauge* g = m.FindGauge(name)) {
        EXPECT_EQ(value, StringPrintf("%.6g", g->value())) << name;
      } else {
        ADD_FAILURE() << "span attribute without a metric: " << name;
      }
    }
  }

  std::vector<std::string> names = m.CounterNames();
  for (const std::string& name : m.GaugeNames()) names.push_back(name);
  const std::string prefix = "pipeline.";
  for (const std::string& name : names) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.rfind("pipeline.worker_pool.", 0) == 0) continue;
    const size_t dot = name.find('.', prefix.size());
    ASSERT_NE(dot, std::string::npos) << name;
    auto stage = stage_attributes.find(name.substr(0, dot));
    ASSERT_NE(stage, stage_attributes.end()) << name;
    const std::string fact = name.substr(dot + 1);
    EXPECT_TRUE(std::any_of(stage->second.begin(), stage->second.end(),
                            [&](const auto& a) { return a.first == fact; }))
        << "metric missing from its stage span: " << name;
  }
}

// Stage 7's threshold rule on hand-made pairs. No two scores tie, because
// the sort is not stable.
TEST(AssociationThresholdTest, LowestScoreAtTargetPrecisionUnderDeployPrior) {
  constexpr double kFloor = 0.6;
  auto score = [](int rank) { return 0.99 - 0.01 * rank; };
  // 39 pairs ranked by score: 0-17 positive, 18-21 negative, 22-25
  // positive, 26-38 negative. 22 of 39 are positive.
  std::vector<std::pair<double, int>> pairs;
  for (int rank = 0; rank < 39; ++rank) {
    pairs.emplace_back(score(rank), rank < 18 || (rank >= 22 && rank < 26));
  }
  // Prior 0.5 weighs each positive 17/22. The running precision dips below
  // 0.8 at ranks 21-23 and is back at 0.81 at rank 25, the lowest score at
  // which it reaches 0.8.
  EXPECT_DOUBLE_EQ(CalibrateAssociationThreshold(pairs, 0.5), score(25));
  // A lower prior weighs positives less: only rank 19 (0.82) reaches 0.8,
  // so the threshold moves up.
  EXPECT_DOUBLE_EQ(CalibrateAssociationThreshold(pairs, 0.4), score(19));
  // Prior 0.05: the target is never reached.
  EXPECT_EQ(CalibrateAssociationThreshold(pairs, 0.05), kFloor);
  // The same ranking 0.3 lower clamps to the floor.
  std::vector<std::pair<double, int>> lowered = pairs;
  for (auto& pair : lowered) pair.first -= 0.3;
  EXPECT_EQ(CalibrateAssociationThreshold(lowered, 0.5), kFloor);
  EXPECT_EQ(CalibrateAssociationThreshold({}, 0.1), kFloor);

  // Fewer than 20 pairs never set the threshold: here the running
  // precision is at least 0.9 throughout.
  std::vector<std::pair<double, int>> few;
  for (int rank = 0; rank < 19; ++rank) {
    few.emplace_back(score(rank), rank < 16);
  }
  EXPECT_EQ(CalibrateAssociationThreshold(few, 0.9), kFloor);
  few.emplace_back(0.70, 1);  // the 20th pair, at precision 0.9
  EXPECT_DOUBLE_EQ(CalibrateAssociationThreshold(few, 0.9), 0.70);
}

}  // namespace
}  // namespace alicoco::pipeline
