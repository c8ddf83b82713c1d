#include "kg/concept_net.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace alicoco::kg {
namespace {

// Builds the Figure-1 fragment: outdoor barbecue with grills and butter.
struct Fixture {
  ConceptNet net;
  ClassId category, location, event, style, time, season;
  ConceptId outdoor, barbecue, grill, butter_c, village_loc, village_style;
  EcConceptId outdoor_barbecue;
  ItemId grill_item, butter_item;

  Fixture() {
    auto& tax = net.taxonomy();
    category = *tax.AddDomain("Category");
    location = *tax.AddDomain("Location");
    event = *tax.AddDomain("Event");
    style = *tax.AddDomain("Style");
    time = *tax.AddDomain("Time");
    season = *tax.AddClass("Season", time);

    outdoor = *net.GetOrAddPrimitiveConcept("outdoor", location);
    barbecue = *net.GetOrAddPrimitiveConcept("barbecue", event);
    grill = *net.GetOrAddPrimitiveConcept("grill", category);
    butter_c = *net.GetOrAddPrimitiveConcept("butter", category);
    village_loc = *net.GetOrAddPrimitiveConcept("village", location);
    village_style = *net.GetOrAddPrimitiveConcept("village", style);

    outdoor_barbecue = *net.GetOrAddEcConcept({"outdoor", "barbecue"});
    EXPECT_TRUE(net.LinkEcToPrimitive(outdoor_barbecue, outdoor).ok());
    EXPECT_TRUE(net.LinkEcToPrimitive(outdoor_barbecue, barbecue).ok());

    grill_item = *net.AddItem({"steel", "charcoal", "grill"}, category);
    butter_item = *net.AddItem({"farm", "butter"}, category);
    EXPECT_TRUE(net.LinkItemToEc(grill_item, outdoor_barbecue).ok());
    EXPECT_TRUE(net.LinkItemToEc(butter_item, outdoor_barbecue).ok());
    EXPECT_TRUE(net.LinkItemToPrimitive(grill_item, grill).ok());
    EXPECT_TRUE(net.LinkItemToPrimitive(butter_item, butter_c).ok());
  }
};

TEST(ConceptNetTest, PrimitiveInterningIsIdempotent) {
  Fixture f;
  auto again = f.net.GetOrAddPrimitiveConcept("outdoor", f.location);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, f.outdoor);
  EXPECT_EQ(f.net.num_primitive_concepts(), 6u);
}

TEST(ConceptNetTest, SameSurfaceDifferentClassIsNewSense) {
  Fixture f;
  auto senses = f.net.FindPrimitive("village");
  EXPECT_EQ(senses.size(), 2u);
  EXPECT_NE(f.village_loc, f.village_style);
  auto by_class = f.net.FindPrimitive("village", f.style);
  ASSERT_TRUE(by_class.has_value());
  EXPECT_EQ(*by_class, f.village_style);
  EXPECT_FALSE(f.net.FindPrimitive("village", f.event).has_value());
}

TEST(ConceptNetTest, UnknownClassRejected) {
  Fixture f;
  EXPECT_TRUE(f.net.GetOrAddPrimitiveConcept("x", ClassId(999))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      f.net.GetOrAddPrimitiveConcept("", f.event).status().IsInvalidArgument());
}

TEST(ConceptNetTest, EcConceptInterning) {
  Fixture f;
  auto again = f.net.GetOrAddEcConcept({"outdoor", "barbecue"});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, f.outdoor_barbecue);
  auto found = f.net.FindEcConcept("outdoor barbecue");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, f.outdoor_barbecue);
  EXPECT_FALSE(f.net.FindEcConcept("indoor barbecue").has_value());
}

TEST(ConceptNetTest, ItemsNeverDeduplicated) {
  Fixture f;
  auto a = f.net.AddItem({"same", "title"}, f.category);
  auto b = f.net.AddItem({"same", "title"}, f.category);
  EXPECT_NE(*a, *b);
}

TEST(ConceptNetTest, EcToPrimitiveAndBack) {
  Fixture f;
  auto prims = f.net.PrimitivesForEc(f.outdoor_barbecue);
  EXPECT_EQ(prims.size(), 2u);
  auto ecs = f.net.EcConceptsForPrimitive(f.barbecue);
  ASSERT_EQ(ecs.size(), 1u);
  EXPECT_EQ(ecs[0], f.outdoor_barbecue);
}

TEST(ConceptNetTest, ItemAssociations) {
  Fixture f;
  auto items = f.net.ItemsForEc(f.outdoor_barbecue);
  EXPECT_EQ(items.size(), 2u);
  auto ecs = f.net.EcConceptsForItem(f.grill_item);
  ASSERT_EQ(ecs.size(), 1u);
  auto prims = f.net.PrimitivesForItem(f.grill_item);
  ASSERT_EQ(prims.size(), 1u);
  EXPECT_EQ(prims[0], f.grill);
}

TEST(ConceptNetTest, RowsAreLentAndEmptyWithoutEdges) {
  Fixture f;
  // Nodes with no edges, and ids past the last node of each layer.
  EcConceptId lone_ec = *f.net.GetOrAddEcConcept({"village", "fair"});
  ItemId lone_item = *f.net.AddItem({"plain", "box"}, f.category);
  ClassId empty_cls = *f.net.taxonomy().AddClass("Dessert", f.category);
  const ConceptId past_prim(
      static_cast<uint32_t>(f.net.num_primitive_concepts()));
  const EcConceptId past_ec(static_cast<uint32_t>(f.net.num_ec_concepts()));
  const ItemId past_item(static_cast<uint32_t>(f.net.num_items()));
  const ClassId past_cls(static_cast<uint32_t>(f.net.taxonomy().size()));

  for (ConceptId c : {f.village_style, past_prim}) {
    EXPECT_TRUE(f.net.Hypernyms(c).empty()) << c.value;
    EXPECT_TRUE(f.net.EcConceptsForPrimitive(c).empty()) << c.value;
  }
  for (EcConceptId ec : {lone_ec, past_ec}) {
    EXPECT_TRUE(f.net.PrimitivesForEc(ec).empty()) << ec.value;
    EXPECT_TRUE(f.net.ItemsForEc(ec).empty()) << ec.value;
    EXPECT_TRUE(f.net.EcParents(ec).empty()) << ec.value;
    EXPECT_TRUE(f.net.EcChildren(ec).empty()) << ec.value;
  }
  for (ItemId item : {lone_item, past_item}) {
    EXPECT_TRUE(f.net.EcConceptsForItem(item).empty()) << item.value;
    EXPECT_TRUE(f.net.PrimitivesForItem(item).empty()) << item.value;
  }
  EXPECT_TRUE(f.net.PrimitivesOfClass(empty_cls).empty());
  EXPECT_TRUE(f.net.PrimitivesOfClass(past_cls).empty());
  EXPECT_TRUE(f.net.FindPrimitive("fair").empty());

  // A row is lent, not copied: two reads see the same storage.
  auto first = f.net.PrimitivesForEc(f.outdoor_barbecue);
  auto second = f.net.PrimitivesForEc(f.outdoor_barbecue);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first.data(), second.data());
  EXPECT_EQ(f.net.FindPrimitive("village").data(),
            f.net.FindPrimitive("village").data());
  EXPECT_EQ(f.net.EcConceptsForItem(f.grill_item).data(),
            f.net.EcConceptsForItem(f.grill_item).data());
}

TEST(ConceptNetTest, DuplicateLinksRejected) {
  Fixture f;
  EXPECT_TRUE(f.net.LinkEcToPrimitive(f.outdoor_barbecue, f.outdoor)
                  .IsAlreadyExists());
  EXPECT_TRUE(
      f.net.LinkItemToEc(f.grill_item, f.outdoor_barbecue).IsAlreadyExists());
  EXPECT_TRUE(
      f.net.LinkItemToPrimitive(f.grill_item, f.grill).IsAlreadyExists());
}

TEST(ConceptNetTest, IsAHierarchyAndClosure) {
  Fixture f;
  ConceptId clothing = *f.net.GetOrAddPrimitiveConcept("top", f.category);
  ConceptId jacket = *f.net.GetOrAddPrimitiveConcept("jacket", f.category);
  ConceptId parka = *f.net.GetOrAddPrimitiveConcept("parka", f.category);
  ASSERT_TRUE(f.net.AddIsA(jacket, clothing).ok());
  ASSERT_TRUE(f.net.AddIsA(parka, jacket).ok());
  auto closure = f.net.HypernymClosure(parka);
  ASSERT_EQ(closure.size(), 2u);
  EXPECT_EQ(closure[0], jacket);
  EXPECT_EQ(closure[1], clothing);
  auto hypers = f.net.Hypernyms(parka);
  ASSERT_EQ(hypers.size(), 1u);
  EXPECT_EQ(hypers[0], jacket);
}

TEST(ConceptNetTest, IsACycleRejected) {
  Fixture f;
  ConceptId a = *f.net.GetOrAddPrimitiveConcept("a", f.category);
  ConceptId b = *f.net.GetOrAddPrimitiveConcept("b", f.category);
  ConceptId c = *f.net.GetOrAddPrimitiveConcept("c", f.category);
  ASSERT_TRUE(f.net.AddIsA(a, b).ok());
  ASSERT_TRUE(f.net.AddIsA(b, c).ok());
  EXPECT_TRUE(f.net.AddIsA(c, a).IsFailedPrecondition());
  EXPECT_TRUE(f.net.AddIsA(a, a).IsInvalidArgument());
  EXPECT_TRUE(f.net.AddIsA(a, b).IsAlreadyExists());
}

TEST(ConceptNetTest, EcIsACycleRejected) {
  Fixture f;
  EcConceptId a = *f.net.GetOrAddEcConcept({"winter", "barbecue"});
  EcConceptId b = *f.net.GetOrAddEcConcept({"any", "barbecue"});
  ASSERT_TRUE(f.net.AddEcIsA(a, b).ok());
  EXPECT_TRUE(f.net.AddEcIsA(b, a).IsFailedPrecondition());
  auto parents = f.net.EcParents(a);
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], b);
  auto children = f.net.EcChildren(b);
  ASSERT_EQ(children.size(), 1u);
}

TEST(ConceptNetTest, ExpandWithHypernymsCoversAllSenses) {
  Fixture f;
  ConceptId top = *f.net.GetOrAddPrimitiveConcept("top", f.category);
  ConceptId jacket = *f.net.GetOrAddPrimitiveConcept("jacket", f.category);
  ASSERT_TRUE(f.net.AddIsA(jacket, top).ok());
  auto expanded = f.net.ExpandWithHypernyms("jacket");
  ASSERT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded[0], "jacket");
  EXPECT_EQ(expanded[1], "top");
  // Unknown surface expands to itself only.
  EXPECT_EQ(f.net.ExpandWithHypernyms("zzz").size(), 1u);
}

TEST(ConceptNetTest, TypedRelationsValidatedBySchema) {
  Fixture f;
  ASSERT_TRUE(
      f.net.AddRelation("suitable_when", f.category, f.season).ok());
  ConceptId trousers =
      *f.net.GetOrAddPrimitiveConcept("cotton trousers", f.category);
  ClassId season_cls = *f.net.taxonomy().Find("Season");
  ConceptId winter = *f.net.GetOrAddPrimitiveConcept("winter", season_cls);
  ASSERT_TRUE(f.net.AddTypedRelation("suitable_when", trousers, winter).ok());
  // Violations rejected.
  EXPECT_TRUE(f.net.AddTypedRelation("suitable_when", winter, trousers)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      f.net.AddTypedRelation("nope", trousers, winter).IsNotFound());
  auto rels = f.net.TypedRelationsFrom(trousers);
  ASSERT_EQ(rels.size(), 1u);
  EXPECT_EQ(rels[0].relation, "suitable_when");
  EXPECT_EQ(rels[0].object, winter);
}

TEST(ConceptNetTest, EdgeCountsTracked) {
  Fixture f;
  EXPECT_EQ(f.net.num_ec_primitive_links(), 2u);
  EXPECT_EQ(f.net.num_item_ec_links(), 2u);
  EXPECT_EQ(f.net.num_item_primitive_links(), 2u);
  EXPECT_EQ(f.net.num_isa_primitive(), 0u);
}

TEST(ConceptNetTest, GlossAttachment) {
  Fixture f;
  ASSERT_TRUE(f.net.SetGloss(f.barbecue, {"grilling", "food", "outside"}).ok());
  EXPECT_EQ(f.net.Get(f.barbecue).gloss.size(), 3u);
  EXPECT_TRUE(f.net.SetGloss(ConceptId(999), {}).IsNotFound());
}

}  // namespace
}  // namespace alicoco::kg
