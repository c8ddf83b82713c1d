#include "kg/taxonomy.h"

#include <gtest/gtest.h>

namespace alicoco::kg {
namespace {

Taxonomy BuildSample() {
  Taxonomy tax;
  ClassId category = *tax.AddDomain("Category");
  tax.AddDomain("Time");
  ClassId clothing = *tax.AddClass("Clothing", category);
  tax.AddClass("Dress", clothing);
  tax.AddClass("Pants", clothing);
  tax.AddClass("Season", *tax.Find("Time"));
  return tax;
}

TEST(TaxonomyTest, RootExists) {
  Taxonomy tax;
  EXPECT_EQ(tax.size(), 1u);
  EXPECT_EQ(tax.Get(tax.root()).name, "Root");
  EXPECT_EQ(tax.Get(tax.root()).depth, 0);
}

TEST(TaxonomyTest, AddAndFind) {
  auto tax = BuildSample();
  auto dress = tax.Find("Dress");
  ASSERT_TRUE(dress.ok());
  EXPECT_EQ(tax.Get(*dress).name, "Dress");
  EXPECT_EQ(tax.Get(*dress).depth, 3);
  EXPECT_TRUE(tax.Find("Shoes").status().IsNotFound());
}

TEST(TaxonomyTest, DuplicateNameRejected) {
  auto tax = BuildSample();
  EXPECT_TRUE(tax.AddDomain("Category").status().IsAlreadyExists());
}

TEST(TaxonomyTest, UnknownParentRejected) {
  Taxonomy tax;
  EXPECT_TRUE(tax.AddClass("X", ClassId(999)).status().IsNotFound());
}

TEST(TaxonomyTest, AncestryIsReflexiveAndTransitive) {
  auto tax = BuildSample();
  ClassId category = *tax.Find("Category");
  ClassId clothing = *tax.Find("Clothing");
  ClassId dress = *tax.Find("Dress");
  EXPECT_TRUE(tax.IsAncestor(dress, dress));
  EXPECT_TRUE(tax.IsAncestor(clothing, dress));
  EXPECT_TRUE(tax.IsAncestor(category, dress));
  EXPECT_TRUE(tax.IsAncestor(tax.root(), dress));
  EXPECT_FALSE(tax.IsAncestor(dress, clothing));
  EXPECT_FALSE(tax.IsAncestor(*tax.Find("Time"), dress));
}

TEST(TaxonomyTest, DomainOfDeepClass) {
  auto tax = BuildSample();
  EXPECT_EQ(tax.Domain(*tax.Find("Dress")), *tax.Find("Category"));
  EXPECT_EQ(tax.Domain(*tax.Find("Category")), *tax.Find("Category"));
  EXPECT_FALSE(tax.Domain(tax.root()).valid());
}

TEST(TaxonomyTest, SubtreeAndLeaves) {
  auto tax = BuildSample();
  auto subtree = tax.Subtree(*tax.Find("Category"));
  EXPECT_EQ(subtree.size(), 4u);  // Category, Clothing, Dress, Pants
  size_t leaves = 0;
  for (ClassId cls : subtree) leaves += tax.Get(cls).children.empty();
  EXPECT_EQ(leaves, 2u);  // Dress, Pants
}

TEST(TaxonomyTest, DomainsListsFirstLevel) {
  auto tax = BuildSample();
  auto domains = tax.Domains();
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(tax.Get(domains[0]).name, "Category");
  EXPECT_EQ(tax.Get(domains[1]).name, "Time");
}

}  // namespace
}  // namespace alicoco::kg
