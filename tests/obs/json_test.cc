#include "obs/json.h"

#include <gtest/gtest.h>

#include <string>

namespace alicoco::obs {
namespace {

TEST(JsonTest, ParsesEveryValueKind) {
  Result<JsonValue> doc = ParseJson(
      R"({"n": null, "t": true, "f": false, "num": -12.5e1,
          "s": "text", "a": [1, "two", [3]], "o": {"k": 4}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc->object.size(), 7u);
  EXPECT_EQ(doc->object[0].first, "n");  // key order is preserved
  EXPECT_EQ(doc->object[6].first, "o");

  EXPECT_EQ(doc->Find("n")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc->Find("t")->kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(doc->Find("t")->boolean);
  EXPECT_FALSE(doc->Find("f")->boolean);
  EXPECT_EQ(doc->Find("num")->kind, JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(doc->Find("num")->number, -125.0);
  EXPECT_EQ(doc->Find("s")->kind, JsonValue::Kind::kString);
  EXPECT_EQ(doc->Find("s")->str, "text");

  const JsonValue* a = doc->Find("a");
  ASSERT_EQ(a->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].str, "two");
  ASSERT_EQ(a->array[2].array.size(), 1u);
  EXPECT_DOUBLE_EQ(a->array[2].array[0].number, 3.0);

  const JsonValue* o = doc->Find("o");
  ASSERT_EQ(o->kind, JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(o->Find("k")->number, 4.0);
  EXPECT_EQ(o->Find("absent"), nullptr);
}

TEST(JsonTest, DecodesEscapes) {
  Result<JsonValue> doc =
      ParseJson(R"("q\" b\\ s\/ n\n t\t r\r \u0041 \u00e9")");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // ASCII \u escapes decode; anything above 0x7F reads as '?'.
  EXPECT_EQ(doc->str, "q\" b\\ s/ n\n t\t r\r A ?");

  EXPECT_TRUE(ParseJson(R"("\x")").status().IsCorruption());
  EXPECT_TRUE(ParseJson(R"("\u00g1")").status().IsCorruption());
  EXPECT_TRUE(ParseJson(R"("\u00)").status().IsCorruption());
}

TEST(JsonTest, FindReturnsTheFirstOfDuplicateKeys) {
  Result<JsonValue> doc = ParseJson(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->object.size(), 2u);
  EXPECT_DOUBLE_EQ(doc->Find("k")->number, 1.0);
}

TEST(JsonTest, RejectsTrailingCharacters) {
  EXPECT_TRUE(ParseJson("{} x").status().IsCorruption());
  EXPECT_TRUE(ParseJson("[1] [2]").status().IsCorruption());
  EXPECT_TRUE(ParseJson("  {}  \n").ok());  // surrounding space is fine
}

TEST(JsonTest, RejectsEmptyAndMalformedInput) {
  EXPECT_TRUE(ParseJson("").status().IsCorruption());
  EXPECT_TRUE(ParseJson("   ").status().IsCorruption());
  EXPECT_TRUE(ParseJson("not json at all").status().IsCorruption());
  EXPECT_TRUE(ParseJson(R"({"k": )").status().IsCorruption());
  EXPECT_TRUE(ParseJson(R"({"k" 1})").status().IsCorruption());
  EXPECT_TRUE(ParseJson("[1, 2").status().IsCorruption());
}

TEST(JsonTest, RequireStringRejectsMissingOrNonStringFields) {
  Result<JsonValue> doc = ParseJson(R"({"name": "mining", "count": 3})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<std::string> name = JsonRequireString(*doc, "name");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(*name, "mining");
  EXPECT_TRUE(JsonRequireString(*doc, "absent").status().IsCorruption());
  EXPECT_TRUE(JsonRequireString(*doc, "count").status().IsCorruption());
}

TEST(JsonTest, NestingPastTheDepthCapFails) {
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(64)).ok());
  Result<JsonValue> deep = ParseJson(nested(65));
  ASSERT_FALSE(deep.ok());
  EXPECT_TRUE(deep.status().IsCorruption());
  EXPECT_NE(deep.status().ToString().find("nesting too deep"),
            std::string::npos);
}

}  // namespace
}  // namespace alicoco::obs
