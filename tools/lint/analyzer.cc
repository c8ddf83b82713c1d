#include "tools/lint/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/string_util.h"
#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

namespace fs = std::filesystem;

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

bool KnownRule(const std::string& id) {
  for (const auto& rule : RuleRegistry()) {
    if (rule->id() == id) return true;
  }
  for (const PassInfo& pass : PassRegistry()) {
    if (pass.id == id) return true;
  }
  return false;
}

std::map<int, std::set<std::string>> InlineAllowances(
    const std::vector<Token>& tokens) {
  std::map<int, std::set<std::string>> allowed;
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment) continue;
    size_t at = t.text.find("lint:allow(");
    if (at == std::string::npos) continue;
    size_t open = at + std::string("lint:allow(").size();
    size_t close = t.text.find(')', open);
    if (close == std::string::npos) continue;
    std::string inside = t.text.substr(open, close - open);
    for (char& c : inside) {
      if (c == ',') c = ' ';
    }
    std::istringstream parts(inside);
    std::string rule;
    while (parts >> rule) allowed[t.line].insert(rule);
  }
  return allowed;
}

Result<Suppressions> Suppressions::Parse(const std::string& text) {
  Suppressions sup;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string rule, prefix, extra;
    if (!(fields >> rule)) continue;  // blank or comment-only
    if (!(fields >> prefix) || (fields >> extra)) {
      return Status::InvalidArgument(
          "suppressions line " + std::to_string(lineno) +
          ": expected '<rule-id> <path-prefix>'");
    }
    if (rule != "*" && !KnownRule(rule)) {
      return Status::InvalidArgument("suppressions line " +
                                     std::to_string(lineno) +
                                     ": unknown rule id '" + rule + "'");
    }
    sup.Add(std::move(rule), std::move(prefix));
  }
  return sup;
}

Result<Suppressions> Suppressions::LoadFile(const std::string& path) {
  ALICOCO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return Parse(text);
}

void Suppressions::Add(std::string rule, std::string path_prefix) {
  entries_.emplace_back(std::move(rule), std::move(path_prefix));
}

bool Suppressions::Matches(const std::string& rule,
                           const std::string& path) const {
  for (const auto& [r, prefix] : entries_) {
    if ((r == "*" || r == rule) && path.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> AnalyzeSource(const std::string& path,
                                   const std::string& contents,
                                   const Suppressions* suppressions) {
  FileContext file;
  file.path = path;
  file.is_header = EndsWith(path, ".h") || EndsWith(path, ".hpp");
  file.tokens = Lex(contents);

  std::vector<Finding> findings;
  for (const auto& rule : RuleRegistry()) {
    rule->Check(file, &findings);
  }

  auto allowed = InlineAllowances(file.tokens);
  auto is_suppressed = [&](const Finding& f) {
    if (suppressions != nullptr && suppressions->Matches(f.rule, f.file)) {
      return true;
    }
    auto it = allowed.find(f.line);
    return it != allowed.end() && it->second.count(f.rule) != 0;
  };
  findings.erase(
      std::remove_if(findings.begin(), findings.end(), is_suppressed),
      findings.end());

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  return findings;
}

Result<std::vector<Finding>> AnalyzeTree(const std::string& root,
                                         const Suppressions* suppressions) {
  static const char* kRoots[] = {"src", "tests", "bench", "examples",
                                 "tools/lint"};
  static const char* kExtensions[] = {".h", ".hpp", ".cc", ".cpp"};

  std::vector<std::string> paths;
  for (const char* sub : kRoots) {
    fs::path dir = fs::path(root) / sub;
    if (!fs::is_directory(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();  // fixture corpus is deliberately bad
        continue;
      }
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (std::find(std::begin(kExtensions), std::end(kExtensions), ext) ==
          std::end(kExtensions)) {
        continue;
      }
      paths.push_back(
          fs::relative(it->path(), fs::path(root)).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<Finding> findings;
  for (const std::string& rel : paths) {
    ALICOCO_ASSIGN_OR_RETURN(
        std::string contents,
        ReadFile((fs::path(root) / rel).generic_string()));
    std::vector<Finding> file_findings =
        AnalyzeSource(rel, contents, suppressions);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ":" +
         finding.rule + ": " + finding.message;
}

Result<ProjectReport> AnalyzeProject(const std::string& root,
                                     const ProjectOptions& options) {
  ALICOCO_ASSIGN_OR_RETURN(ProjectIndex index,
                           ProjectIndex::Build(root, {options.project_dir}));

  std::string layers_path = options.layers_path.empty()
                                ? (fs::path(root) / "tools/lint/layers.txt")
                                      .generic_string()
                                : options.layers_path;
  ALICOCO_ASSIGN_OR_RETURN(Layers layers, Layers::LoadFile(layers_path));

  std::vector<Finding> findings;
  for (const FileSummary& file : index.files()) {
    findings.insert(findings.end(), file.findings.begin(),
                    file.findings.end());
  }
  InterprocStats interproc_stats;
  TaintStats taint_stats;
  std::vector<Finding> pass_findings =
      RunAllPasses(index, layers, &interproc_stats, &taint_stats);
  findings.insert(findings.end(), pass_findings.begin(), pass_findings.end());

  auto drop = [&](const Finding& f) {
    if (options.suppressions != nullptr &&
        options.suppressions->Matches(f.rule, f.file)) {
      return true;
    }
    const FileSummary* summary = index.Find(f.file);
    if (summary == nullptr) return false;
    auto it = summary->allowances.find(f.line);
    return it != summary->allowances.end() && it->second.count(f.rule) != 0;
  };
  findings.erase(std::remove_if(findings.begin(), findings.end(), drop),
                 findings.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  ProjectReport report;
  report.findings = std::move(findings);
  report.stats = index.stats();
  report.interproc = interproc_stats;
  report.taint = taint_stats;
  return report;
}

}  // namespace alicoco::lint
