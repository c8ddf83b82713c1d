// SARIF 2.1.0 output for alicoco_lint.
//
// The writer emits the interchange subset CI artifact viewers and code
// scanning consume: one run, the full rule catalog (per-file rules and
// cross-file passes) under tool.driver.rules, and one result per finding
// with a physical location.

#ifndef ALICOCO_TOOLS_LINT_SARIF_H_
#define ALICOCO_TOOLS_LINT_SARIF_H_

#include <string>
#include <vector>

#include "tools/lint/rules.h"

namespace alicoco::lint {

/// Serializes findings as a SARIF 2.1.0 document. Output is byte-stable
/// for a given finding list: fixed key order, two-space indentation,
/// rules sorted registry-first then passes.
std::string WriteSarif(const std::vector<Finding>& findings);

}  // namespace alicoco::lint

#endif  // ALICOCO_TOOLS_LINT_SARIF_H_
