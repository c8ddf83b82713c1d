// Tests for commonsense relation inference (the paper's Section-10 future
// work, implemented as an extension).

#include "mining/relation_inference.h"

#include <gtest/gtest.h>

#include "datagen/world.h"

namespace alicoco::mining {
namespace {

const datagen::World& SharedWorld() {
  static const datagen::World world = [] {
    datagen::WorldConfig cfg;
    cfg.seed = 101;
    cfg.num_items = 1200;  // needs enough catalog evidence
    cfg.num_good_ec_concepts = 80;
    cfg.num_bad_ec_concepts = 40;
    return datagen::World::Generate(cfg);
  }();
  return world;
}

TEST(RelationInferenceTest, SuitableWhenProposalsAreMostlyGold) {
  const auto& world = SharedWorld();
  RelationInference engine(&world.net());
  RelationInferenceConfig cfg;
  auto proposals = engine.InferSuitableWhen(cfg);
  ASSERT_FALSE(proposals.empty());
  auto quality = EvaluateSuitableWhen(proposals, world, cfg.min_support);
  EXPECT_GT(quality.precision, 0.9);
  EXPECT_GT(quality.recall, 0.3);
  // Confidences are sane and sorted descending.
  for (size_t i = 0; i < proposals.size(); ++i) {
    EXPECT_GT(proposals[i].confidence, 0.0);
    EXPECT_LE(proposals[i].confidence, RelationInference::kMaxConfidence);
    EXPECT_GE(proposals[i].support, cfg.min_support);
    if (i > 0) {
      EXPECT_GE(proposals[i - 1].confidence, proposals[i].confidence);
    }
  }
}

TEST(RelationInferenceTest, UsedWhenRecoversEventNeeds) {
  // The statistical signal for used_when IS the semantic-drift structure:
  // items of an event's needed categories associate with its concepts even
  // though no text links them ("boy's T-shirt implies Summer").
  const auto& world = SharedWorld();
  RelationInference engine(&world.net());
  RelationInferenceConfig cfg;
  auto proposals = engine.InferUsedWhen(cfg);
  ASSERT_FALSE(proposals.empty());
  size_t correct = 0;
  for (const auto& rel : proposals) {
    if (world.GoldCompatible(rel.subject, rel.object)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / proposals.size(), 0.9);
}

TEST(RelationInferenceTest, HigherLiftThresholdRaisesPrecision) {
  const auto& world = SharedWorld();
  RelationInference engine(&world.net());
  RelationInferenceConfig loose;
  loose.min_lift = 1.05;
  RelationInferenceConfig strict;
  strict.min_lift = 2.5;
  auto loose_q = EvaluateSuitableWhen(engine.InferSuitableWhen(loose), world,
                                      loose.min_support);
  auto strict_q = EvaluateSuitableWhen(engine.InferSuitableWhen(strict),
                                       world, strict.min_support);
  EXPECT_GE(strict_q.precision, loose_q.precision - 0.02);
  EXPECT_LE(strict_q.proposed, loose_q.proposed);
}

TEST(RelationInferenceTest, CommitWritesSchemaValidatedRelations) {
  const auto& world = SharedWorld();
  RelationInference engine(&world.net());
  RelationInferenceConfig cfg;
  auto proposals = engine.InferSuitableWhen(cfg);
  ASSERT_FALSE(proposals.empty());

  // Commit into a copy of the gold net.
  kg::ConceptNet target = world.net();
  size_t before = target.typed_relations().size();
  size_t committed = RelationInference::Commit(proposals, &target);
  EXPECT_GT(committed, 0u);
  EXPECT_EQ(target.typed_relations().size(), before + committed);
  // Re-committing adds nothing new? (AddTypedRelation has no dedup, so a
  // second commit doubles; verify the first commit's relations validate.)
  for (size_t i = before; i < target.typed_relations().size(); ++i) {
    const auto& rel = target.typed_relations()[i];
    EXPECT_EQ(rel.relation, "suitable_when");
  }
}

TEST(RelationInferenceTest, EmptyNetYieldsNothing) {
  kg::ConceptNet empty;
  RelationInference engine(&empty);
  EXPECT_TRUE(engine.InferSuitableWhen({}).empty());
  EXPECT_TRUE(engine.InferUsedWhen({}).empty());
}

// Parameterized sweep: precision stays high across support thresholds.
class SupportSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SupportSweep, PrecisionRobustToSupportThreshold) {
  const auto& world = SharedWorld();
  RelationInference engine(&world.net());
  RelationInferenceConfig cfg;
  cfg.min_support = GetParam();
  auto proposals = engine.InferSuitableWhen(cfg);
  if (proposals.empty()) GTEST_SKIP() << "no proposals at this support";
  auto quality = EvaluateSuitableWhen(proposals, world, cfg.min_support);
  EXPECT_GT(quality.precision, 0.85) << "support " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Supports, SupportSweep,
                         ::testing::Values(3, 5, 8, 12));

}  // namespace
}  // namespace alicoco::mining
