// Orchestration for alicoco_lint: suppression handling, single-source
// analysis, and the deterministic repo-tree walk.
//
// Suppression layers:
//   * file: tools/lint/suppressions.txt, lines of `<rule-id> <path-prefix>`
//     (`*` as rule-id matches every rule; `#` starts a comment)
//   * inline: a comment containing `lint:allow(rule-a, rule-b)` suppresses
//     those rules on the comment's own line

#ifndef ALICOCO_TOOLS_LINT_ANALYZER_H_
#define ALICOCO_TOOLS_LINT_ANALYZER_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "tools/lint/index.h"
#include "tools/lint/passes/interproc.h"
#include "tools/lint/passes/passes.h"
#include "tools/lint/rules.h"

namespace alicoco::lint {

class Suppressions {
 public:
  /// Parses the `<rule-id> <path-prefix>` format; unknown rule ids are an
  /// error so stale entries cannot linger silently.
  static Result<Suppressions> Parse(const std::string& text);
  static Result<Suppressions> LoadFile(const std::string& path);

  void Add(std::string rule, std::string path_prefix);
  bool Matches(const std::string& rule, const std::string& path) const;
  size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Runs every registry rule over one source buffer. `path` is the
/// repo-relative logical path the path-scoped rules dispatch on; findings
/// are sorted by (line, rule, message) and filtered through both
/// suppression layers. Pass nullptr to skip file-level suppressions.
std::vector<Finding> AnalyzeSource(const std::string& path,
                                   const std::string& contents,
                                   const Suppressions* suppressions);

/// Walks the first-party roots (src, tests, bench, examples, tools/lint)
/// under `root`, skipping any directory named `fixtures`, and analyzes
/// every .h/.cc/.cpp in sorted order.
Result<std::vector<Finding>> AnalyzeTree(const std::string& root,
                                         const Suppressions* suppressions);

/// `file:line:rule-id: message` — the stable machine-readable line.
std::string FormatFinding(const Finding& finding);

/// True when `id` names a per-file rule or a cross-file pass; the
/// suppression parser uses this to reject stale entries.
bool KnownRule(const std::string& id);

/// line -> rules allowed on that line via `lint:allow(...)` comments.
/// Shared by AnalyzeSource and the ProjectIndex summarizer.
std::map<int, std::set<std::string>> InlineAllowances(
    const std::vector<Token>& tokens);

/// Whole-program analysis over one project subtree.
struct ProjectOptions {
  /// Subdirectory of the root to index, e.g. "src".
  std::string project_dir = "src";
  /// Layering declaration; empty means `<root>/tools/lint/layers.txt`.
  std::string layers_path;
  const Suppressions* suppressions = nullptr;
};

struct ProjectReport {
  /// Per-file rule findings and cross-file pass findings, merged,
  /// suppression-filtered, sorted by (file, line, rule, message).
  std::vector<Finding> findings;
  IndexStats stats;
  /// Size counters of the interprocedural tier (call-graph condensation
  /// + fixpoints).
  InterprocStats interproc;
  /// Size counters of the cross-file taint pass.
  TaintStats taint;
};

/// Builds the ProjectIndex for `<root>/<project_dir>`, runs every
/// per-file rule (via the index summaries) and every cross-file pass,
/// and applies both suppression layers to the merged result.
Result<ProjectReport> AnalyzeProject(const std::string& root,
                                     const ProjectOptions& options);

}  // namespace alicoco::lint

#endif  // ALICOCO_TOOLS_LINT_ANALYZER_H_
