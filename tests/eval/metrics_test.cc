#include "eval/metrics.h"

#include <gtest/gtest.h>

namespace alicoco::eval {
namespace {

RankedQuery MakeQuery(std::vector<double> scores, std::vector<int> labels) {
  return RankedQuery{std::move(scores), std::move(labels)};
}

TEST(RankingTest, AveragePrecisionPerfectRanking) {
  auto q = MakeQuery({0.9, 0.8, 0.1}, {1, 1, 0});
  EXPECT_DOUBLE_EQ(AveragePrecision(q), 1.0);
}

TEST(RankingTest, AveragePrecisionWorstRanking) {
  auto q = MakeQuery({0.1, 0.2, 0.9}, {1, 0, 0});
  // Relevant item ranked last of 3: AP = 1/3.
  EXPECT_NEAR(AveragePrecision(q), 1.0 / 3.0, 1e-12);
}

TEST(RankingTest, AveragePrecisionMixed) {
  // Ranked: rel, non, rel => AP = (1/1 + 2/3)/2.
  auto q = MakeQuery({0.9, 0.5, 0.4}, {1, 0, 1});
  EXPECT_NEAR(AveragePrecision(q), (1.0 + 2.0 / 3.0) / 2.0, 1e-12);
}

TEST(RankingTest, NoRelevantGivesZero) {
  auto q = MakeQuery({0.9, 0.5}, {0, 0});
  EXPECT_DOUBLE_EQ(AveragePrecision(q), 0.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank(q), 0.0);
}

TEST(RankingTest, ReciprocalRank) {
  auto q = MakeQuery({0.1, 0.9, 0.5}, {1, 0, 0});
  // Relevant is ranked 3rd.
  EXPECT_NEAR(ReciprocalRank(q), 1.0 / 3.0, 1e-12);
}

TEST(RankingTest, PrecisionAtK) {
  auto q = MakeQuery({0.9, 0.8, 0.7, 0.6}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(PrecisionAtK(q, 1), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(q, 2), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(q, 4), 0.5);
  // k beyond list size: denominator stays k.
  EXPECT_DOUBLE_EQ(PrecisionAtK(q, 8), 0.25);
  EXPECT_DOUBLE_EQ(PrecisionAtK(q, 0), 0.0);
}

TEST(RankingTest, MeansOverQueries) {
  std::vector<RankedQuery> qs = {MakeQuery({0.9, 0.1}, {1, 0}),
                                 MakeQuery({0.1, 0.9}, {1, 0})};
  EXPECT_NEAR(MeanAveragePrecision(qs), (1.0 + 0.5) / 2.0, 1e-12);
  EXPECT_NEAR(MeanReciprocalRank(qs), (1.0 + 0.5) / 2.0, 1e-12);
  EXPECT_NEAR(MeanPrecisionAtK(qs, 1), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(MeanAveragePrecision({}), 0.0);
}

TEST(AucTest, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(Auc({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}), 1.0);
}

TEST(AucTest, PerfectInversion) {
  EXPECT_DOUBLE_EQ(Auc({0.1, 0.2, 0.8, 0.9}, {1, 1, 0, 0}), 0.0);
}

TEST(AucTest, AllTiedIsHalf) {
  EXPECT_DOUBLE_EQ(Auc({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0}), 0.5);
}

TEST(AucTest, SingleClassIsHalf) {
  EXPECT_DOUBLE_EQ(Auc({0.9, 0.1}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(Auc({0.9, 0.1}, {0, 0}), 0.5);
}

TEST(AucTest, KnownValue) {
  // scores: pos {0.8, 0.4}, neg {0.6, 0.2}: pairs won 3/4.
  EXPECT_DOUBLE_EQ(Auc({0.8, 0.4, 0.6, 0.2}, {1, 1, 0, 0}), 0.75);
}

TEST(BinaryMetricsTest, ConfusionCounts) {
  auto m = ComputeBinaryMetrics({0.9, 0.8, 0.3, 0.6}, {1, 0, 1, 0}, 0.5);
  EXPECT_EQ(m.tp, 1u);
  EXPECT_EQ(m.fp, 2u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_EQ(m.tn, 0u);
  EXPECT_NEAR(m.precision, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.recall, 0.5, 1e-12);
  EXPECT_NEAR(m.f1, 2 * (1.0 / 3.0) * 0.5 / (1.0 / 3.0 + 0.5), 1e-12);
  EXPECT_NEAR(m.accuracy, 0.25, 1e-12);
}

TEST(BinaryMetricsTest, EmptyInput) {
  auto m = ComputeBinaryMetrics({}, {});
  EXPECT_EQ(m.f1, 0.0);
  EXPECT_EQ(m.accuracy, 0.0);
}

TEST(IobTest, DecodeSimple) {
  auto spans = DecodeIob({"B-Cat", "I-Cat", "O", "B-Loc"});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (Span{0, 2, "Cat"}));
  EXPECT_EQ(spans[1], (Span{3, 4, "Loc"}));
}

TEST(IobTest, AdjacentBStartsNewSpan) {
  auto spans = DecodeIob({"B-Cat", "B-Cat"});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (Span{0, 1, "Cat"}));
  EXPECT_EQ(spans[1], (Span{1, 2, "Cat"}));
}

TEST(IobTest, StrayInsideStartsSpan) {
  auto spans = DecodeIob({"O", "I-Cat", "I-Cat"});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{1, 3, "Cat"}));
}

TEST(IobTest, TypeChangeInsideStartsNewSpan) {
  auto spans = DecodeIob({"B-Cat", "I-Loc"});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (Span{0, 1, "Cat"}));
  EXPECT_EQ(spans[1], (Span{1, 2, "Loc"}));
}

TEST(IobTest, AllOutside) {
  EXPECT_TRUE(DecodeIob({"O", "O"}).empty());
  EXPECT_TRUE(DecodeIob({}).empty());
}

TEST(SpanF1Test, PerfectMatch) {
  std::vector<std::vector<std::string>> gold = {{"B-C", "I-C", "O"}};
  auto m = SpanF1(gold, gold);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(SpanF1Test, PartialOverlapCountsAsMiss) {
  std::vector<std::vector<std::string>> gold = {{"B-C", "I-C", "O"}};
  std::vector<std::vector<std::string>> pred = {{"B-C", "O", "O"}};
  auto m = SpanF1(gold, pred);
  EXPECT_EQ(m.tp, 0u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(SpanF1Test, MicroAveragesAcrossSentences) {
  std::vector<std::vector<std::string>> gold = {{"B-C", "O"}, {"B-L", "O"}};
  std::vector<std::vector<std::string>> pred = {{"B-C", "O"}, {"O", "O"}};
  auto m = SpanF1(gold, pred);
  EXPECT_EQ(m.tp, 1u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

}  // namespace
}  // namespace alicoco::eval
