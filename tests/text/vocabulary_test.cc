#include "text/vocabulary.h"

#include <gtest/gtest.h>

namespace alicoco::text {
namespace {

TEST(VocabularyTest, SpecialsPresent) {
  Vocabulary v;
  EXPECT_EQ(v.size(), 2);
  EXPECT_EQ(v.Id("<pad>"), Vocabulary::kPadId);
  EXPECT_EQ(v.Id("<unk>"), Vocabulary::kUnkId);
}

TEST(VocabularyTest, AddAssignsStableIds) {
  Vocabulary v;
  int a = v.Add("dress");
  int b = v.Add("hat");
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 3);
  EXPECT_EQ(v.Add("dress"), a);  // re-add returns same id
  EXPECT_EQ(v.Id("dress"), a);
  EXPECT_EQ(v.Token(a), "dress");
}

TEST(VocabularyTest, CountsAccumulate) {
  Vocabulary v;
  int a = v.Add("x");
  v.Add("x");
  v.Add("x");
  EXPECT_EQ(v.Count(a), 3);
}

TEST(VocabularyTest, UnknownLookups) {
  Vocabulary v;
  EXPECT_EQ(v.Id("nope"), Vocabulary::kUnkId);
  EXPECT_FALSE(v.Contains("nope"));
  EXPECT_EQ(v.Token(-1), "<unk>");
  EXPECT_EQ(v.Token(9999), "<unk>");
  EXPECT_EQ(v.Count(9999), 0);
}

TEST(VocabularyTest, EncodeDecode) {
  Vocabulary v;
  v.Add("warm");
  v.Add("hat");
  auto ids = v.Encode({"warm", "hat", "unknown"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[2], Vocabulary::kUnkId);
  auto back = v.Decode(ids);
  EXPECT_EQ(back[0], "warm");
  EXPECT_EQ(back[2], "<unk>");
}

}  // namespace
}  // namespace alicoco::text
