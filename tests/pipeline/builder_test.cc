// End-to-end pipeline integration test: builds a complete AliCoCo from a
// small synthetic world and checks every stage produced sensible structure.

#include "pipeline/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

  std::vector<const obs::SpanRecord*> stages;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == root.id) stages.push_back(&s);
  }
  std::sort(stages.begin(), stages.end(),
            [](const obs::SpanRecord* x, const obs::SpanRecord* y) {
              return x->id < y->id;  // ids are handed out as spans open
            });
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

}  // namespace
}  // namespace alicoco::pipeline
