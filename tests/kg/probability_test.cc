// Probabilistic item-concept edges (paper future work 2).

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "kg/concept_net.h"
#include "kg/persistence.h"

namespace alicoco::kg {
namespace {

struct Fixture {
  ConceptNet net;
  EcConceptId ec;
  ItemId a, b, c;

  Fixture() {
    ClassId category = *net.taxonomy().AddDomain("Category");
    ec = *net.GetOrAddEcConcept({"winter", "hiking"});
    a = *net.AddItem({"boot"}, category);
    b = *net.AddItem({"tent"}, category);
    c = *net.AddItem({"scarf"}, category);
    EXPECT_TRUE(net.LinkItemToEc(a, ec, 0.9).ok());
    EXPECT_TRUE(net.LinkItemToEc(b, ec, 0.4).ok());
    EXPECT_TRUE(net.LinkItemToEc(c, ec).ok());  // default 1.0
  }
};

TEST(EdgeProbabilityTest, StoredAndQueried) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.net.ItemEcProbability(f.a, f.ec), 0.9);
  EXPECT_DOUBLE_EQ(f.net.ItemEcProbability(f.b, f.ec), 0.4);
  EXPECT_DOUBLE_EQ(f.net.ItemEcProbability(f.c, f.ec), 1.0);
  // No edge -> 0.
  EcConceptId other = *f.net.GetOrAddEcConcept({"other"});
  EXPECT_DOUBLE_EQ(f.net.ItemEcProbability(f.a, other), 0.0);
}

TEST(EdgeProbabilityTest, RankedOrdering) {
  Fixture f;
  auto ranked = f.net.ItemsForEcRanked(f.ec);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, f.c);  // 1.0
  EXPECT_EQ(ranked[1].first, f.a);  // 0.9
  EXPECT_EQ(ranked[2].first, f.b);  // 0.4
}

TEST(EdgeProbabilityTest, InvalidProbabilityRejected) {
  Fixture f;
  ItemId d = *f.net.AddItem({"extra"}, *f.net.taxonomy().Find("Category"));
  EXPECT_TRUE(f.net.LinkItemToEc(d, f.ec, 0.0).IsInvalidArgument());
  EXPECT_TRUE(f.net.LinkItemToEc(d, f.ec, 1.5).IsInvalidArgument());
  EXPECT_TRUE(f.net.LinkItemToEc(d, f.ec, -0.1).IsInvalidArgument());
}

TEST(EdgeProbabilityTest, SurvivesPersistenceRoundTrip) {
  Fixture f;
  std::string path = std::string(::testing::TempDir()) + "/prob_net.txt";
  ASSERT_TRUE(SaveConceptNet(f.net, path).ok());
  auto loaded = LoadConceptNet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->ItemEcProbability(f.a, f.ec), 0.9);
  EXPECT_DOUBLE_EQ(loaded->ItemEcProbability(f.b, f.ec), 0.4);
  EXPECT_DOUBLE_EQ(loaded->ItemEcProbability(f.c, f.ec), 1.0);
}

// Property sweep: any probability in (0, 1] round-trips through the text
// format without drift beyond printing precision.
class ProbabilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(ProbabilitySweep, RoundTripPrecision) {
  ConceptNet net;
  ClassId category = *net.taxonomy().AddDomain("Category");
  EcConceptId ec = *net.GetOrAddEcConcept({"x"});
  ItemId item = *net.AddItem({"y"}, category);
  ASSERT_TRUE(net.LinkItemToEc(item, ec, GetParam()).ok());
  // ctest runs every instance as its own process, in parallel, so each
  // instance needs a file of its own ("RoundTripPrecision/3" -> "..._3").
  std::string instance =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(instance.begin(), instance.end(), '/', '_');
  std::string path = std::string(::testing::TempDir()) + "/prob_sweep_" +
                     instance + ".txt";
  ASSERT_TRUE(SaveConceptNet(net, path).ok());
  auto loaded = LoadConceptNet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NEAR(loaded->ItemEcProbability(item, ec), GetParam(), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ProbabilitySweep,
                         ::testing::Values(0.001, 0.25, 0.5, 0.731, 0.999,
                                           1.0));

}  // namespace
}  // namespace alicoco::kg
