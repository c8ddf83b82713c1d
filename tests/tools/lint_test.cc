#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/analyzer.h"
#include "tools/lint/lexer.h"
#include "tools/lint/rules.h"

namespace alicoco::lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Findings from one rule only, so each test is isolated from the rest of
/// the registry.
std::vector<Finding> RuleHits(const std::string& path, const std::string& src,
                              const std::string& rule) {
  std::vector<Finding> hits;
  for (Finding& f : AnalyzeSource(path, src, nullptr)) {
    if (f.rule == rule) hits.push_back(std::move(f));
  }
  return hits;
}

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, ClassifiesCommentsStringsAndCode) {
  auto tokens = Lex(
      "int x = 3;  // trailing rand()\n"
      "/* block new Foo */ const char* s = \"delete me\";\n");
  std::vector<std::string> idents;
  std::vector<std::string> comments;
  std::vector<std::string> strings;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier) idents.push_back(t.text);
    if (t.kind == TokenKind::kComment) comments.push_back(t.text);
    if (t.kind == TokenKind::kString) strings.push_back(t.text);
  }
  EXPECT_EQ(idents,
            (std::vector<std::string>{"int", "x", "const", "char", "s"}));
  ASSERT_EQ(comments.size(), 2u);
  EXPECT_EQ(comments[0], " trailing rand()");
  EXPECT_EQ(comments[1], " block new Foo ");
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0], "delete me");
}

TEST(LexerTest, RawStringSwallowsFakeTerminators) {
  auto tokens = Lex("auto s = R\"tag(one \" ) two)tag\"; int after = 1;");
  ASSERT_GE(tokens.size(), 4u);
  auto is_string = [](const Token& t) {
    return t.kind == TokenKind::kString;
  };
  auto it = std::find_if(tokens.begin(), tokens.end(), is_string);
  ASSERT_NE(it, tokens.end());
  EXPECT_EQ(it->text, "one \" ) two");
  // Code after the raw string is still lexed.
  bool saw_after = false;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier && t.text == "after") {
      saw_after = true;
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(LexerTest, DigitSeparatorsStayOneNumber) {
  auto tokens = Lex("int n = 1'000'000;");
  auto it = std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokenKind::kNumber;
  });
  ASSERT_NE(it, tokens.end());
  EXPECT_EQ(it->text, "1'000'000");
}

TEST(LexerTest, HexDigitSeparatorsStayOneNumber) {
  auto tokens = Lex("uint32_t m = 0xFF'FF;");
  auto it = std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokenKind::kNumber;
  });
  ASSERT_NE(it, tokens.end());
  EXPECT_EQ(it->text, "0xFF'FF");
}

TEST(LexerTest, HexFloatExponentStaysOneNumber) {
  // `p` (not `e`) introduces the exponent of a hex float, and its sign
  // belongs to the literal.
  for (const char* src : {"double d = 0x1.8p3;", "double d = 0x1.8p-3;",
                          "double d = 0x1p+4;"}) {
    auto tokens = Lex(src);
    size_t numbers = 0;
    for (const Token& t : tokens) {
      numbers += t.kind == TokenKind::kNumber ? 1 : 0;
    }
    EXPECT_EQ(numbers, 1u) << src;
  }
}

TEST(LexerTest, HexDigitEIsNotAnExponent) {
  // In a hex literal E is a digit: `0x1E+2` is the number 0x1E, then a
  // binary '+', then 2 — not one pp-number.
  auto tokens = Lex("int v = 0x1E+2;");
  std::vector<std::string> numbers;
  bool saw_plus = false;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
    if (t.kind == TokenKind::kPunct && t.text == "+") saw_plus = true;
  }
  EXPECT_EQ(numbers, (std::vector<std::string>{"0x1E", "2"}));
  EXPECT_TRUE(saw_plus);
}

TEST(LexerTest, DecimalExponentSignStaysAttached) {
  auto tokens = Lex("double d = 1.5e+10;");
  auto it = std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokenKind::kNumber;
  });
  ASSERT_NE(it, tokens.end());
  EXPECT_EQ(it->text, "1.5e+10");
}

TEST(LexerTest, LineNumbersSurviveMultilineConstructs) {
  auto tokens = Lex(
      "/* line one\n"
      "   line two */\n"
      "int x;\n"
      "char c = 'y';\n");
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier && t.text == "int") {
      EXPECT_EQ(t.line, 3);
    }
    if (t.kind == TokenKind::kCharLiteral) {
      EXPECT_EQ(t.line, 4);
    }
  }
}

TEST(LexerTest, DirectiveFoldsContinuationsAndComments) {
  auto tokens = Lex(
      "#define ADD(a, b) \\\n"
      "  ((a) + (b))  /* why not */\n"
      "int y;\n");
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens[0].kind, TokenKind::kDirective);
  EXPECT_EQ(tokens[0].text, "#define ADD(a, b) ((a) + (b))");
  EXPECT_EQ(tokens[0].line, 1);
  // `int y;` lands on line 3 even though the directive spanned two lines.
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier && t.text == "y") {
      EXPECT_EQ(t.line, 3);
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: one positive and one negative case each.

TEST(RawNewDeleteRuleTest, FlagsNewAndDeleteOutsideNn) {
  auto hits = RuleHits("src/apps/x.cc",
                       "int* p = new int(3);\ndelete p;\n", "raw-new-delete");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[1].line, 2);
}

TEST(RawNewDeleteRuleTest, AllowsNnArenaAndDeletedFunctions) {
  EXPECT_TRUE(
      RuleHits("src/nn/tensor.cc", "float* p = new float[8]; delete[] p;",
               "raw-new-delete")
          .empty());
  EXPECT_TRUE(RuleHits("src/apps/x.h",
                       "struct S { S(const S&) = delete; };\n"
                       "// new in a comment\n"
                       "const char* s = \"new delete\";\n",
                       "raw-new-delete")
                  .empty());
}

TEST(BannedRandRuleTest, FlagsCRandomCalls) {
  auto hits = RuleHits("src/text/x.cc", "srand(42);\nint r = rand();\n",
                       "banned-rand");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[1].line, 2);
}

TEST(BannedRandRuleTest, IgnoresMethodsAndMentions) {
  EXPECT_TRUE(RuleHits("src/text/x.cc",
                       "double v = dist.rand();\n"
                       "gen->rand();\n"
                       "int rand_count = 0;  // rand() in comment\n",
                       "banned-rand")
                  .empty());
}

TEST(LibmTanhRuleTest, FlagsLibmTanhCalls) {
  auto hits = RuleHits("src/nn/x.cc",
                       "y = std::tanh(x);\n"
                       "y = tanhf(x);\n"
                       "y = ::tanh(x);\n",
                       "libm-tanh");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_EQ(hits[2].line, 3);
}

TEST(LibmTanhRuleTest, IgnoresMethodsAndMentions) {
  EXPECT_TRUE(RuleHits("src/nn/x.cc",
                       "Var h = g->Tanh(x);\n"
                       "kernels::Tanh(n, x, y);\n"
                       "ActiveKernels().tanh(n, x, y);\n"
                       "void (*tanh)(size_t, const float*, float*);\n"
                       "float tanh_c = 0.0f;  // std::tanh(c) in a comment\n"
                       "const char* s = \"tanhf(x)\";\n",
                       "libm-tanh")
                  .empty());
  // Tests and tools may compare against libm.
  EXPECT_TRUE(
      RuleHits("tests/nn/x.cc", "EXPECT_EQ(y, std::tanh(x));", "libm-tanh")
          .empty());
}

TEST(BareFopenRuleTest, FlagsUnwrappedFopen) {
  auto hits =
      RuleHits("src/kg/x.cc", "FILE* f = fopen(\"a\", \"r\");", "bare-fopen");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 1);
}

TEST(BareFopenRuleTest, AllowsFilePtrWrapped) {
  EXPECT_TRUE(
      RuleHits("src/kg/x.cc",
               "FilePtr f(fopen(path, \"r\"), &std::fclose);\n"
               "std::unique_ptr<FILE, int (*)(FILE*)> g(fopen(p, \"w\"), "
               "&std::fclose);\n",
               "bare-fopen")
          .empty());
}

TEST(UsingNamespaceHeaderRuleTest, FlagsHeadersOnly) {
  const std::string src = "using namespace std;\n";
  auto hits = RuleHits("src/kg/x.h", src, "using-namespace-header");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_TRUE(
      RuleHits("src/kg/x.cc", src, "using-namespace-header").empty());
}

TEST(IncludeGuardRuleTest, FlagsPragmaOnceAndMismatch) {
  auto pragma = RuleHits("src/kg/x.h", "#pragma once\nint x;\n",
                         "include-guard");
  ASSERT_EQ(pragma.size(), 1u);

  auto mismatch = RuleHits("src/eval/metrics2.h",
                           "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n",
                           "include-guard");
  ASSERT_EQ(mismatch.size(), 1u);
  EXPECT_NE(mismatch[0].message.find("ALICOCO_EVAL_METRICS2_H_"),
            std::string::npos);
}

TEST(IncludeGuardRuleTest, AcceptsCanonicalGuard) {
  EXPECT_TRUE(RuleHits("src/eval/metrics2.h",
                       "#ifndef ALICOCO_EVAL_METRICS2_H_\n"
                       "#define ALICOCO_EVAL_METRICS2_H_\n"
                       "#endif  // ALICOCO_EVAL_METRICS2_H_\n",
                       "include-guard")
                  .empty());
}

TEST(IncludeOrderRuleTest, OwnHeaderMustComeFirst) {
  auto hits = RuleHits("src/eval/metrics2.cc",
                       "#include <vector>\n"
                       "#include \"eval/metrics2.h\"\n",
                       "include-order");
  ASSERT_FALSE(hits.empty());
  EXPECT_NE(hits[0].message.find("own header"), std::string::npos);
}

TEST(IncludeOrderRuleTest, AcceptsCanonicalLayout) {
  EXPECT_TRUE(RuleHits("src/eval/metrics2.cc",
                       "#include \"eval/metrics2.h\"\n"
                       "\n"
                       "#include <algorithm>\n"
                       "#include <vector>\n"
                       "\n"
                       "#include \"common/check.h\"\n"
                       "#include \"common/status.h\"\n",
                       "include-order")
                  .empty());
}

TEST(IncludeOrderRuleTest, FlagsUnsortedBlock) {
  auto hits = RuleHits("src/eval/metrics2.cc",
                       "#include \"eval/metrics2.h\"\n"
                       "\n"
                       "#include <vector>\n"
                       "#include <algorithm>\n",
                       "include-order");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("not sorted"), std::string::npos);
}

TEST(BannedTimeRuleTest, FlagsWallClockAndEntropy) {
  auto hits = RuleHits("src/datagen/x.cc",
                       "std::random_device rd;\n"
                       "long t = time(nullptr);\n",
                       "banned-time");
  ASSERT_EQ(hits.size(), 2u);
}

TEST(BannedTimeRuleTest, AllowsRngModuleAndMonotonicClocks) {
  EXPECT_TRUE(RuleHits("src/common/rng.cc",
                       "std::random_device rd; long t = time(nullptr);",
                       "banned-time")
                  .empty());
  EXPECT_TRUE(RuleHits("src/datagen/x.cc",
                       "auto t0 = std::chrono::steady_clock::now();\n"
                       "int runtime = 3;  // `time` as a substring is fine\n",
                       "banned-time")
                  .empty());
}

TEST(UnorderedPersistIterRuleTest, FlagsRangeForInPersistencePaths) {
  const std::string src =
      "std::unordered_map<int, int> index_;\n"
      "void Save() {\n"
      "  for (const auto& kv : index_) { Write(kv); }\n"
      "}\n";
  auto hits =
      RuleHits("src/kg/persistence_x.cc", src, "unordered-persist-iter");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
  // The same code outside the persisted-output paths is untouched.
  EXPECT_TRUE(
      RuleHits("src/kg/taxonomy.cc", src, "unordered-persist-iter").empty());
}

TEST(LockDisciplineRuleTest, FlagsRawStdMutex) {
  auto hits = RuleHits("src/matching/x.h",
                       "#include <mutex>\nstd::mutex mu_;\n",
                       "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2);
}

TEST(LockDisciplineRuleTest, RequiresGuardedByNextToMutexMembers) {
  const std::string bare =
      "class C {\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int total_ = 0;\n"
      "};\n";
  auto hits = RuleHits("src/matching/x.h", bare, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);

  const std::string annotated =
      "class C {\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int total_ ALICOCO_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(
      RuleHits("src/matching/x.h", annotated, "lock-discipline").empty());
}

TEST(DirectStderrLogRuleTest, FlagsRawStderrWritesInSrc) {
  auto hits = RuleHits("src/pipeline/x.cc",
                       "fprintf(stderr, \"boom\\n\");\n"
                       "std::cerr << \"boom\\n\";\n",
                       "direct-stderr-log");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[1].line, 2);
}

TEST(DirectStderrLogRuleTest, AllowsLoggingBackendAndNonSrc) {
  const std::string src = "fprintf(stderr, \"boom\\n\");\n";
  // The two sanctioned raw-stderr writers.
  EXPECT_TRUE(
      RuleHits("src/common/logging.cc", src, "direct-stderr-log").empty());
  EXPECT_TRUE(
      RuleHits("src/common/check.cc", src, "direct-stderr-log").empty());
  // CLIs and benches outside src/ report to the console however they like.
  EXPECT_TRUE(
      RuleHits("bench/obs_report.cc", src, "direct-stderr-log").empty());
  // fprintf to other streams is not a log write.
  EXPECT_TRUE(RuleHits("src/pipeline/x.cc",
                       "fprintf(out, \"row\\n\");\n", "direct-stderr-log")
                  .empty());
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(SuppressionsTest, ParsesAndMatchesPrefixes) {
  auto sup = Suppressions::Parse(
      "# comment line\n"
      "banned-rand src/text/\n"
      "* src/legacy/\n");
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();
  EXPECT_EQ(sup->size(), 2u);
  EXPECT_TRUE(sup->Matches("banned-rand", "src/text/tokenizer.cc"));
  EXPECT_FALSE(sup->Matches("banned-rand", "src/kg/taxonomy.cc"));
  EXPECT_FALSE(sup->Matches("raw-new-delete", "src/text/tokenizer.cc"));
  EXPECT_TRUE(sup->Matches("raw-new-delete", "src/legacy/old.cc"));
}

TEST(SuppressionsTest, RejectsUnknownRuleAndBadShape) {
  EXPECT_FALSE(Suppressions::Parse("not-a-rule src/\n").ok());
  EXPECT_FALSE(Suppressions::Parse("banned-rand\n").ok());
  EXPECT_FALSE(Suppressions::Parse("banned-rand src/ extra\n").ok());
}

TEST(SuppressionsTest, FileSuppressionsFilterFindings) {
  auto sup = Suppressions::Parse("banned-rand src/text/\n");
  ASSERT_TRUE(sup.ok());
  const std::string src = "int r = rand();\n";
  EXPECT_TRUE(AnalyzeSource("src/text/x.cc", src, &*sup).empty());
  EXPECT_EQ(AnalyzeSource("src/kg/x.cc", src, &*sup).size(), 1u);
}

TEST(SuppressionsTest, LoadsExampleFixtureFile) {
  auto sup = Suppressions::LoadFile(std::string(ALICOCO_LINT_FIXTURE_DIR) +
                                    "/suppressions_example.txt");
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();
  EXPECT_EQ(sup->size(), 2u);
  EXPECT_TRUE(sup->Matches("banned-rand", "src/text/anything.cc"));
  EXPECT_TRUE(sup->Matches("include-guard", "src/legacy/x.h"));
}

TEST(InlineAllowTest, SameLineCommentSuppressesThatRuleOnly) {
  EXPECT_TRUE(AnalyzeSource("src/apps/x.cc",
                            "int* p = new int;  // lint:allow(raw-new-delete)\n",
                            nullptr)
                  .empty());
  // The allowance is line- and rule-scoped.
  EXPECT_EQ(AnalyzeSource("src/apps/x.cc",
                          "int* p = new int;  // lint:allow(banned-rand)\n",
                          nullptr)
                .size(),
            1u);
  EXPECT_EQ(AnalyzeSource("src/apps/x.cc",
                          "// lint:allow(raw-new-delete)\nint* p = new int;\n",
                          nullptr)
                .size(),
            1u);
}

// ---------------------------------------------------------------------------
// Registry + golden corpus

TEST(RuleRegistryTest, IdsAreUniqueKebabCaseAndDocumented) {
  std::vector<std::string> ids;
  for (const auto& rule : RuleRegistry()) {
    ids.emplace_back(rule->id());
    EXPECT_FALSE(rule->rationale().empty());
    for (char c : rule->id()) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '-')
          << "rule id not kebab-case: " << rule->id();
    }
  }
  auto sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(ids.size(), 11u);
}

/// Every fixture under tests/tools/fixtures/ declares its repo-logical
/// path on line one (`// lint-fixture: <path>`); the analyzer output over
/// the whole corpus must match expected.txt byte for byte.
TEST(GoldenCorpusTest, MatchesExpectedFindings) {
  const fs::path dir = ALICOCO_LINT_FIXTURE_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;

  std::vector<fs::path> sources;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
      sources.push_back(entry.path());
    }
  }
  std::sort(sources.begin(), sources.end());
  ASSERT_FALSE(sources.empty());

  const std::string kMarker = "// lint-fixture: ";
  std::vector<std::string> got;
  for (const fs::path& path : sources) {
    std::string contents = ReadFileOrDie(path);
    ASSERT_EQ(contents.compare(0, kMarker.size(), kMarker), 0)
        << path << " is missing the lint-fixture marker line";
    size_t eol = contents.find('\n');
    std::string logical =
        contents.substr(kMarker.size(), eol - kMarker.size());
    for (const Finding& f : AnalyzeSource(logical, contents, nullptr)) {
      got.push_back(path.filename().string() + ": " + FormatFinding(f));
    }
  }

  std::vector<std::string> want;
  std::istringstream expected(ReadFileOrDie(dir / "expected.txt"));
  std::string line;
  while (std::getline(expected, line)) {
    if (line.empty() || line[0] == '#') continue;
    want.push_back(line);
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace alicoco::lint
