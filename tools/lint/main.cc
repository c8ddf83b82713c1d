// alicoco_lint CLI: the first-party static-analysis gate.
//
//   alicoco_lint --root <repo-root> [--suppressions FILE | --no-suppressions]
//   alicoco_lint --root <repo-root> <repo-relative-file>...
//   alicoco_lint --root <repo-root> --project src [--sarif OUT]
//                [--layers FILE] [--stats]
//   alicoco_lint --list-rules
//   alicoco_lint --explain <rule-id>
//
// Findings go to stdout as stable `file:line:rule-id: message` lines;
// exit status is 1 iff any finding survives suppression. With no explicit
// file arguments the whole first-party tree is scanned per-file.
//
// `--project DIR` switches to whole-program mode: the subtree is indexed
// from source on every run, and the cross-file passes of every tier
// (include-graph, lock-order, discarded-result, dataflow, interprocedural,
// taint; `--list-rules` names each pass) run alongside every per-file
// rule. `--sarif` writes the findings as a SARIF 2.1.0 document for CI
// upload; `--stats` prints the index and tier sizes to stderr.
//
// `--explain <rule-id>` prints the rule's rationale plus a minimal
// bad/good example pair, from the same registries the SARIF writer and
// --list-rules use.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/analyzer.h"
#include "tools/lint/passes/passes.h"
#include "tools/lint/sarif.h"

namespace {

int Fail(const alicoco::Status& status) {
  std::cerr << "alicoco_lint: " << status.ToString() << "\n";
  return 2;
}

/// Indents every line of a (possibly multi-line) example by four spaces.
void PrintIndented(std::string_view text) {
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::cout << "    " << text.substr(start, end - start) << "\n";
    start = end + 1;
  }
}

/// `--explain <rule>`: rationale + example pair from the shared
/// registries. Returns 0 when found, 2 for an unknown id.
int ExplainRule(const std::string& id) {
  std::string_view rationale, bad, good;
  bool found = false;
  for (const auto& rule : alicoco::lint::RuleRegistry()) {
    if (rule->id() == id) {
      rationale = rule->rationale();
      bad = rule->example_bad();
      good = rule->example_good();
      found = true;
    }
  }
  for (const auto& pass : alicoco::lint::PassRegistry()) {
    if (pass.id == id) {
      rationale = pass.rationale;
      bad = pass.bad_example;
      good = pass.good_example;
      found = true;
    }
  }
  if (!found) {
    std::cerr << "alicoco_lint: unknown rule '" << id
              << "' (see --list-rules)\n";
    return 2;
  }
  std::cout << id << ": " << rationale << "\n";
  if (!bad.empty()) {
    std::cout << "\n  bad:\n";
    PrintIndented(bad);
  }
  if (!good.empty()) {
    std::cout << "\n  good:\n";
    PrintIndented(good);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string suppressions_path;
  std::string project_dir;
  std::string sarif_path;
  std::string layers_path;
  std::string explain_rule;
  bool use_suppressions = true;
  bool list_rules = false;
  bool print_stats = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--suppressions" && i + 1 < argc) {
      suppressions_path = argv[++i];
    } else if (arg == "--no-suppressions") {
      use_suppressions = false;
    } else if (arg == "--project" && i + 1 < argc) {
      project_dir = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_path = argv[++i];
    } else if (arg == "--explain" && i + 1 < argc) {
      explain_rule = argv[++i];
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: alicoco_lint [--root DIR] [--suppressions FILE] "
                   "[--no-suppressions] [--list-rules]\n"
                   "                    [--project DIR] [--sarif OUT] "
                   "[--layers FILE] [--stats]\n"
                   "                    [--explain RULE] [file...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "alicoco_lint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  if (!explain_rule.empty()) return ExplainRule(explain_rule);

  if (list_rules) {
    for (const auto& rule : alicoco::lint::RuleRegistry()) {
      std::cout << rule->id() << ": " << rule->rationale() << "\n";
    }
    for (const auto& pass : alicoco::lint::PassRegistry()) {
      std::cout << pass.id << ": " << pass.rationale << "\n";
    }
    return 0;
  }

  if (project_dir.empty() && (!sarif_path.empty() || !layers_path.empty())) {
    std::cerr << "alicoco_lint: --sarif/--layers require --project\n";
    return 2;
  }

  alicoco::lint::Suppressions suppressions;
  if (use_suppressions) {
    if (suppressions_path.empty()) {
      std::string fallback = root + "/tools/lint/suppressions.txt";
      if (std::filesystem::exists(fallback)) suppressions_path = fallback;
    }
    if (!suppressions_path.empty()) {
      auto loaded = alicoco::lint::Suppressions::LoadFile(suppressions_path);
      if (!loaded.ok()) return Fail(loaded.status());
      suppressions = std::move(*loaded);
    }
  }

  std::vector<alicoco::lint::Finding> findings;
  if (!project_dir.empty()) {
    alicoco::lint::ProjectOptions options;
    options.project_dir = project_dir;
    options.layers_path = layers_path;
    options.suppressions = &suppressions;
    auto report = alicoco::lint::AnalyzeProject(root, options);
    if (!report.ok()) return Fail(report.status());
    findings = std::move(report->findings);
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        return Fail(
            alicoco::Status::IOError("cannot write SARIF: " + sarif_path));
      }
      out << alicoco::lint::WriteSarif(findings);
    }
    if (print_stats) {
      const alicoco::lint::IndexStats& stats = report->stats;
      std::cerr << "alicoco_lint: " << stats.files << " files, "
                << stats.bytes_lexed << " bytes lexed\n";
      const alicoco::lint::InterprocStats& ip = report->interproc;
      std::cerr << "alicoco_lint: interproc " << ip.functions
                << " functions, " << ip.sccs << " sccs, " << ip.edges
                << " edges, " << ip.may_block << " may-block\n";
      const alicoco::lint::TaintStats& ts = report->taint;
      std::cerr << "alicoco_lint: taint " << ts.call_args << " call args, "
                << ts.pending << " pending, " << ts.sink_params
                << " sink params\n";
    }
  } else if (files.empty()) {
    auto result = alicoco::lint::AnalyzeTree(root, &suppressions);
    if (!result.ok()) return Fail(result.status());
    findings = std::move(*result);
  } else {
    for (const std::string& rel : files) {
      std::ifstream in(root + "/" + rel, std::ios::binary);
      if (!in) {
        return Fail(alicoco::Status::IOError("cannot open: " + rel));
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      auto file_findings =
          alicoco::lint::AnalyzeSource(rel, buf.str(), &suppressions);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
    }
  }

  for (const auto& finding : findings) {
    std::cout << alicoco::lint::FormatFinding(finding) << "\n";
  }
  if (!findings.empty()) {
    std::cerr << "alicoco_lint: " << findings.size() << " finding(s)\n";
    return 1;
  }
  std::cerr << "alicoco_lint: clean\n";
  return 0;
}
