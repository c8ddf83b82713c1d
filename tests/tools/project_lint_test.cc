// Tests for the whole-program half of alicoco_lint: the ProjectIndex
// extractor, the graph machinery, the cross-file passes against the
// fixture mini-trees, and the SARIF writer.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/analyzer.h"
#include "tools/lint/graph.h"
#include "tools/lint/index.h"
#include "tools/lint/passes/interproc.h"
#include "tools/lint/passes/passes.h"
#include "tools/lint/sarif.h"

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

fs::path FixtureRoot(const std::string& name) {
  return fs::path(ALICOCO_PROJECT_FIXTURE_DIR) / name;
}

ProjectReport AnalyzeFixture(const std::string& name) {
  ProjectOptions options;
  options.project_dir = "src";
  options.layers_path = (FixtureRoot(name) / "layers.txt").generic_string();
  auto report = AnalyzeProject(FixtureRoot(name).generic_string(), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(*report) : ProjectReport{};
}

// ---------------------------------------------------------------------------
// Layers parsing

TEST(LayersTest, ParsesRanksInDeclarationOrder) {
  auto layers = Layers::Parse(
      "# comment\n"
      "layer base\n"
      "layer mid peer  # trailing comment\n"
      "layer top\n");
  ASSERT_TRUE(layers.ok());
  EXPECT_EQ(layers->num_layers(), 3u);
  EXPECT_EQ(layers->num_modules(), 4u);
  EXPECT_EQ(layers->RankOf("base"), 0);
  EXPECT_EQ(layers->RankOf("mid"), 1);
  EXPECT_EQ(layers->RankOf("peer"), 1);
  EXPECT_EQ(layers->RankOf("top"), 2);
  EXPECT_EQ(layers->RankOf("absent"), -1);
  EXPECT_EQ(layers->ModulesAt(1), (std::vector<std::string>{"mid", "peer"}));
}

TEST(LayersTest, RejectsDuplicateAndMalformedDeclarations) {
  EXPECT_FALSE(Layers::Parse("layer a\nlayer a\n").ok());
  EXPECT_FALSE(Layers::Parse("tier a\n").ok());
  EXPECT_FALSE(Layers::Parse("layer\n").ok());
  EXPECT_FALSE(Layers::Parse("# only comments\n").ok());
}

// ---------------------------------------------------------------------------
// Digraph

TEST(DigraphTest, ReportsDeterministicCycleWitnesses) {
  Digraph g;
  g.AddEdge("b", "c", {"b.h", 1});
  g.AddEdge("c", "b", {"c.h", 2});
  g.AddEdge("a", "b", {"a.h", 3});  // feeds the SCC but is not in it
  g.AddEdge("d", "d", {"d.h", 4});  // self-loop
  auto cycles = g.Cycles();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0], (std::vector<std::string>{"b", "c", "b"}));
  EXPECT_EQ(cycles[1], (std::vector<std::string>{"d", "d"}));
  const EdgeSite* site = g.FindSite("b", "c");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->file, "b.h");
}

TEST(DigraphTest, AcyclicGraphHasNoCycles) {
  Digraph g;
  g.AddEdge("a", "b", {"a.h", 1});
  g.AddEdge("b", "c", {"b.h", 1});
  g.AddEdge("a", "c", {"a.h", 2});
  EXPECT_TRUE(g.Cycles().empty());
}

TEST(DigraphTest, StronglyConnectedComponentsEmitCalleesFirst) {
  Digraph g;
  g.AddEdge("a", "b", {"a.h", 1});
  g.AddEdge("b", "c", {"b.h", 1});
  g.AddEdge("c", "a", {"c.h", 1});  // three-way recursion: one component
  g.AddEdge("d", "a", {"d.h", 1});  // d calls into the cycle
  g.AddEdge("e", "e", {"e.h", 1});  // self-recursion
  g.AddEdge("f", "g", {"f.h", 1});  // mutual recursion...
  g.AddEdge("g", "f", {"g.h", 1});
  g.AddEdge("g", "e", {"g.h", 2});  // ...that calls the self-loop
  const auto sccs = g.StronglyConnectedComponents();
  auto where = [&](const std::string& node) {
    for (size_t i = 0; i < sccs.size(); ++i) {
      if (std::find(sccs[i].begin(), sccs[i].end(), node) != sccs[i].end()) {
        return i;
      }
    }
    ADD_FAILURE() << "node " << node << " missing from the condensation";
    return sccs.size();
  };
  EXPECT_EQ(sccs.size(), 4u);
  EXPECT_EQ(where("a"), where("b"));
  EXPECT_EQ(where("a"), where("c"));
  EXPECT_EQ(where("f"), where("g"));
  // Callees-first: a bottom-up sweep sees a component only after every
  // component it calls into.
  EXPECT_LT(where("a"), where("d"));
  EXPECT_LT(where("e"), where("f"));
}

// ---------------------------------------------------------------------------
// Extraction

TEST(SummarizeSourceTest, ExtractsIncludesMutexesAndFunctions) {
  const std::string src =
      "#include \"kg/net.h\"\n"
      "#include <vector>\n"
      "class Store {\n"
      " public:\n"
      "  void Put() {\n"
      "    MutexLock lock(mu_);\n"
      "    MutexLock nested(aux_);\n"
      "    this->Flush();\n"
      "  }\n"
      "  void Flush() {}\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  Mutex aux_;\n"
      "  int n_ ALICOCO_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  FileSummary summary = SummarizeSource("src/a/store.h", src);

  ASSERT_EQ(summary.includes.size(), 2u);
  EXPECT_EQ(summary.includes[0].path, "kg/net.h");
  EXPECT_FALSE(summary.includes[0].angled);
  EXPECT_TRUE(summary.includes[1].angled);

  // mu_ (twice: Mutex member + GUARDED_BY) and aux_, deduplicated.
  ASSERT_EQ(summary.mutexes.size(), 2u);
  EXPECT_EQ(summary.mutexes[0].member, "aux_");
  EXPECT_EQ(summary.mutexes[0].class_name, "Store");
  EXPECT_EQ(summary.mutexes[1].member, "mu_");

  ASSERT_EQ(summary.functions.size(), 1u);  // Flush has no locks/calls
  const FunctionSummary& put = summary.functions[0];
  EXPECT_EQ(put.name, "Put");
  EXPECT_EQ(put.class_name, "Store");
  ASSERT_EQ(put.acquisitions.size(), 2u);
  EXPECT_EQ(put.acquisitions[0].name, "mu_");
  EXPECT_TRUE(put.acquisitions[0].held.empty());
  EXPECT_EQ(put.acquisitions[1].name, "aux_");
  EXPECT_EQ(put.acquisitions[1].held, (std::vector<int>{0}));
  ASSERT_EQ(put.calls.size(), 1u);
  EXPECT_EQ(put.calls[0].callee, "Flush");
  EXPECT_EQ(put.calls[0].kind, CallKind::kThis);
  EXPECT_EQ(put.calls[0].held, (std::vector<int>{0, 1}));
}

TEST(SummarizeSourceTest, ClassifiesCheckedDeclarations) {
  const std::string src =
      "[[nodiscard]] bool LoadThing();\n"
      "Status SaveThing();\n"
      "Result<int> ParseThing(const std::string& s);\n"
      "bool MaybeThing();\n"
      "int CountThings();\n"
      "void Touch();\n";
  FileSummary summary = SummarizeSource("src/a/api.h", src);
  ASSERT_EQ(summary.decls.size(), 6u);
  auto checked = [&](const std::string& name) {
    for (const DeclInfo& d : summary.decls) {
      if (d.name == name) return d.checked;
    }
    ADD_FAILURE() << "no decl named " << name;
    return false;
  };
  EXPECT_TRUE(checked("LoadThing"));
  EXPECT_TRUE(checked("SaveThing"));
  EXPECT_TRUE(checked("ParseThing"));
  EXPECT_FALSE(checked("MaybeThing"));  // bool but not a Load/Save name
  EXPECT_FALSE(checked("CountThings"));
  EXPECT_FALSE(checked("Touch"));
}

TEST(SummarizeSourceTest, RecordsBareCallStatementsOnly) {
  const std::string src =
      "inline void Use() {\n"
      "  LoadThing();\n"
      "  obj.Save();\n"
      "  chain()->Next();\n"
      "  (void)LoadThing();\n"
      "  bool ok = LoadThing();\n"
      "  return;\n"
      "}\n";
  FileSummary summary = SummarizeSource("src/a/use.h", src);
  std::vector<std::string> callees;
  for (const CallStatement& c : summary.call_statements) {
    callees.push_back(c.callee);
  }
  EXPECT_EQ(callees, (std::vector<std::string>{"LoadThing", "Save", "Next"}));
}

TEST(SummarizeSourceTest, ExtractsGuardedMembersRequiresAndViewEscapes) {
  const std::string src =
      "#ifndef ALICOCO_A_GUARD_H_\n"
      "#define ALICOCO_A_GUARD_H_\n"
      "class Box {\n"
      " public:\n"
      "  int Read() const ALICOCO_REQUIRES(mu_) { return items_; }\n"
      "  void Bump() {\n"
      "    MutexLock lock(mu_);\n"
      "    items_ += 1;\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int items_ ALICOCO_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "inline std::string_view Half(const std::string& s) {\n"
      "  return std::string_view(s.data(), 1);\n"
      "}\n"
      "inline std::string_view Top() {\n"
      "  std::string owner = MakeName();\n"
      "  return Half(owner);\n"
      "}\n"
      "#endif  // ALICOCO_A_GUARD_H_\n";
  FileSummary s = SummarizeSource("src/a/guard.h", src);

  ASSERT_EQ(s.guarded_members.size(), 1u);
  EXPECT_EQ(s.guarded_members[0].class_name, "Box");
  EXPECT_EQ(s.guarded_members[0].member, "items_");
  EXPECT_EQ(s.guarded_members[0].mutex, "mu_");

  auto fn = [&](const std::string& name) -> const FunctionSummary* {
    for (const FunctionSummary& f : s.functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  };
  const FunctionSummary* read = fn("Read");
  ASSERT_NE(read, nullptr);
  ASSERT_EQ(read->member_refs.size(), 1u);
  EXPECT_EQ(read->member_refs[0].name, "items_");
  EXPECT_TRUE(read->member_refs[0].held.empty());  // contract, not a lock
  const FunctionSummary* bump = fn("Bump");
  ASSERT_NE(bump, nullptr);
  ASSERT_EQ(bump->member_refs.size(), 1u);
  EXPECT_EQ(bump->member_refs[0].held, (std::vector<int>{0}));
  const FunctionSummary* top = fn("Top");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->view_returns.size(), 1u);
  EXPECT_EQ(top->view_returns[0].callee, "Half");
  ASSERT_EQ(top->view_returns[0].args.size(), 1u);
  EXPECT_EQ(top->view_returns[0].args[0].owner, "owner");
  EXPECT_FALSE(top->view_returns[0].args[0].is_temp);

  auto decl = [&](const std::string& name) -> const DeclInfo* {
    for (const DeclInfo& d : s.decls) {
      if (d.name == name) return &d;
    }
    return nullptr;
  };
  const DeclInfo* read_decl = decl("Read");
  ASSERT_NE(read_decl, nullptr);
  EXPECT_EQ(read_decl->requires_locks, (std::vector<std::string>{"mu_"}));
  const DeclInfo* half = decl("Half");
  ASSERT_NE(half, nullptr);
  ASSERT_EQ(half->params.size(), 1u);
  EXPECT_FALSE(half->params[0].by_value);
  EXPECT_TRUE(half->params[0].escapes_return);
}

TEST(SummarizeSourceTest, TaintFixturesYieldTaintFacts) {
  // The taint fixtures exist to exercise these summary records; if
  // extraction stops producing them, the cross-file taint pass has
  // nothing to join and its goldens go quietly empty.
  bool saw_taint_out = false;
  bool saw_call = false;
  bool saw_pending = false;
  for (const char* fixture : {"taintalloc", "taintmul", "taintindex"}) {
    auto index =
        ProjectIndex::Build(FixtureRoot(fixture).generic_string(), {"src"});
    ASSERT_TRUE(index.ok()) << fixture << ": " << index.status().ToString();
    for (const FileSummary& file : index->files()) {
      for (const DeclInfo& decl : file.decls) {
        for (const ParamInfo& param : decl.params) {
          saw_taint_out |= param.taint_out;
        }
      }
      saw_call |= !file.taint_calls.empty();
      saw_pending |= !file.taint_pending.empty();
    }
  }
  EXPECT_TRUE(saw_taint_out);
  EXPECT_TRUE(saw_call);
  EXPECT_TRUE(saw_pending);
}

// ---------------------------------------------------------------------------
// The interprocedural tier

TEST(InterprocTest, BlockingSeedTableSplitsSeededFromPropagated) {
  // The seed table is the ground truth for what blocks directly.
  EXPECT_STREQ(BlockingSeedKind("fwrite"), "file I/O");
  EXPECT_STREQ(BlockingSeedKind("fprintf"), "file I/O");
  EXPECT_STREQ(BlockingSeedKind("sleep_for"), "sleep");
  EXPECT_STREQ(BlockingSeedKind("Wait"), "condition-variable wait");
  EXPECT_STREQ(BlockingSeedKind("join"), "thread join");
  EXPECT_STREQ(BlockingSeedKind("malloc"), "unbounded allocation");
  EXPECT_EQ(BlockingSeedKind("Compute"), nullptr);
  EXPECT_EQ(BlockingSeedKind("push_back"), nullptr);
  EXPECT_TRUE(IsWaitSeedKind(BlockingSeedKind("wait_for")));
  EXPECT_FALSE(IsWaitSeedKind(BlockingSeedKind("join")));
  EXPECT_FALSE(IsWaitSeedKind(nullptr));

  // Everything else is propagation, witnessed by the evidence chain.
  auto index =
      ProjectIndex::Build(FixtureRoot("blockinglock").generic_string(), {"src"});
  ASSERT_TRUE(index.ok());
  const Interproc ip = Interproc::Build(*index);
  EXPECT_TRUE(ip.MayBlock("Server::WriteLog"));  // seeded: calls fwrite
  EXPECT_EQ(ip.BlockKind("Server::WriteLog"), "file I/O");
  EXPECT_EQ(ip.BlockChain("Server::WriteLog"),
            (std::vector<std::string>{"Server::WriteLog", "fwrite"}));
  EXPECT_TRUE(ip.MayBlock("Server::Publish"));  // propagated one hop
  EXPECT_EQ(ip.BlockChain("Server::Publish"),
            (std::vector<std::string>{"Server::Publish", "Server::WriteLog",
                                      "fwrite"}));
  EXPECT_TRUE(ip.MayBlock("Server::Collect"));  // propagated two hops
  EXPECT_EQ(ip.BlockKind("Server::Collect"), "thread join");
}

TEST(InterprocTest, EntryHeldPropagatesThroughUnannotatedCalls) {
  auto index =
      ProjectIndex::Build(FixtureRoot("guardedby").generic_string(), {"src"});
  ASSERT_TRUE(index.ok());
  const Interproc ip = Interproc::Build(*index);
  // Tick holds mu_ around Step, and Step is Bump's only caller: the lock
  // flows two unannotated hops down.
  EXPECT_EQ(ip.EntryHeld("Meter::Step"),
            (std::set<std::string>{"Meter::mu_"}));
  EXPECT_EQ(ip.EntryHeld("Meter::Bump"),
            (std::set<std::string>{"Meter::mu_"}));
  // FlushLocked is reached with the lock (Flush) and without it (Drop);
  // the call-site meet collapses to empty.
  EXPECT_TRUE(ip.EntryHeld("Store::FlushLocked").empty());
  // No observed callers: the REQUIRES contract alone carries the lock.
  EXPECT_EQ(ip.RequiresOf("Store::Sum"),
            (std::set<std::string>{"Store::mu_"}));
  EXPECT_EQ(ip.EntryHeld("Store::Sum"),
            (std::set<std::string>{"Store::mu_"}));
  // Uncalled public functions are never assumed to run under a lock.
  EXPECT_TRUE(ip.EntryHeld("Store::Peek").empty());
}

// ---------------------------------------------------------------------------
// Fixture goldens: one mini-tree per pass

class ProjectFixtureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ProjectFixtureTest, MatchesGolden) {
  const std::string name = GetParam();
  ProjectReport report = AnalyzeFixture(name);
  std::string got;
  for (const Finding& f : report.findings) {
    got += FormatFinding(f) + "\n";
  }
  EXPECT_EQ(got, ReadFileOrDie(FixtureRoot(name) / "expected.txt"))
      << "fixture " << name << " drifted from its golden";
}

INSTANTIATE_TEST_SUITE_P(AllFixtures, ProjectFixtureTest,
                         ::testing::Values("cycle", "layering", "lockorder",
                                           "nodiscard", "useaftermove",
                                           "danglingview", "hotloop",
                                           "paramheavy", "guardedby",
                                           "blockinglock", "viewescape",
                                           "taintalloc", "taintmul",
                                           "taintindex"));

// ---------------------------------------------------------------------------
// SARIF

TEST(SarifTest, EscapesSpecialCharactersInResults) {
  // Quote, backslash, newline and tab take their short JSON escapes; any
  // other control byte comes out as \u00XX.
  const std::string got = WriteSarif(
      {{"src/b \"q\".cc", 12, "discarded-result",
        "tricky \\ payload\nwith newline,\ttab and \x01"}});
  const std::string results =
      "      \"results\": [\n"
      "        {\n"
      "          \"ruleId\": \"discarded-result\",\n"
      "          \"level\": \"warning\",\n"
      "          \"message\": {\"text\": "
      "\"tricky \\\\ payload\\nwith newline,\\ttab and \\u0001\"},\n"
      "          \"locations\": [\n"
      "            {\"physicalLocation\": {\"artifactLocation\": "
      "{\"uri\": \"src/b \\\"q\\\".cc\"}, \"region\": {\"startLine\": 12}}}\n"
      "          ]\n"
      "        }\n"
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  // Everything before "results" is the rule catalog, the same for every
  // finding list; MatchesFixtureGolden pins it byte for byte.
  const std::string empty = WriteSarif({});
  const std::string catalog = empty.substr(0, empty.find("      \"results\""));
  EXPECT_EQ(got, catalog + results);
}

TEST(SarifTest, MatchesFixtureGolden) {
  ProjectReport report = AnalyzeFixture("nodiscard");
  EXPECT_EQ(WriteSarif(report.findings),
            ReadFileOrDie(FixtureRoot("nodiscard") / "expected.sarif"));
}

// ---------------------------------------------------------------------------
// Pass registry + suppression integration

/// Copies a fixture tree into a fresh temp dir so the test can mutate it.
fs::path CloneFixture(const std::string& name, const std::string& tag) {
  fs::path dst = fs::path(::testing::TempDir()) / ("project_lint_" + tag);
  fs::remove_all(dst);
  fs::copy(FixtureRoot(name), dst, fs::copy_options::recursive);
  return dst;
}

TEST(ProjectLintTest, PassIdsAreKnownToSuppressions) {
  for (const PassInfo& pass : PassRegistry()) {
    EXPECT_TRUE(KnownRule(pass.id)) << pass.id;
  }
  auto sup = Suppressions::Parse("lock-order-cycle src/locks/\n");
  EXPECT_TRUE(sup.ok()) << "pass ids must be valid in suppressions.txt";
}

TEST(ProjectLintTest, InlineAllowSilencesAPassFinding) {
  fs::path root = CloneFixture("nodiscard", "inline_allow");
  // Add an allowance to one of the two discard lines.
  fs::path client = root / "src/client/client.h";
  std::string text = ReadFileOrDie(client);
  const std::string needle = "  LoadIndex();";
  auto at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(),
               "  LoadIndex();  // lint:allow(discarded-result)");
  {
    std::ofstream out(client, std::ios::trunc);
    out << text;
  }
  ProjectOptions options;
  options.project_dir = "src";
  options.layers_path = (root / "layers.txt").generic_string();
  auto report = AnalyzeProject(root.generic_string(), options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_EQ(report->findings[0].message.find("result of 'SaveIndex'"), 0u)
      << report->findings[0].message;
}

TEST(ProjectLintTest, FileSuppressionSilencesAPassFinding) {
  Suppressions sup;
  sup.Add("discarded-result", "src/client/");
  ProjectOptions options;
  options.project_dir = "src";
  options.layers_path =
      (FixtureRoot("nodiscard") / "layers.txt").generic_string();
  options.suppressions = &sup;
  auto report =
      AnalyzeProject(FixtureRoot("nodiscard").generic_string(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->findings.empty());
}

}  // namespace
}  // namespace alicoco::lint
