// The cross-file (whole-program) analysis passes and their registry.
//
// A pass consumes the ProjectIndex — never raw tokens — and returns
// findings in the same Finding shape the per-file rules use, so the
// suppression layers, the text reporter, and the SARIF writer treat both
// kinds uniformly. Pass ids share the rule-id namespace: `lint:allow()`
// comments and suppressions.txt entries work on them unchanged.

#ifndef ALICOCO_TOOLS_LINT_PASSES_PASSES_H_
#define ALICOCO_TOOLS_LINT_PASSES_PASSES_H_

#include <string>
#include <vector>

#include "tools/lint/cfg.h"
#include "tools/lint/graph.h"
#include "tools/lint/index.h"
#include "tools/lint/rules.h"

namespace alicoco::lint {

class Interproc;
struct InterprocStats;

struct PassInfo {
  std::string id;
  std::string rationale;
  /// Minimal bad/good example pair for `--explain <rule>`; the SARIF
  /// writer ignores these, so the CLI and the rule table share one
  /// registry and cannot drift.
  std::string bad_example;
  std::string good_example;
};

/// Every cross-file pass id with its one-line rationale and examples, in
/// reporting order.
const std::vector<PassInfo>& PassRegistry();

/// Pass 1a/1b — include graph. Builds the file-level include graph and the
/// module DAG from every resolved quoted #include in the index, then
/// reports `include-cycle` for file-level cycles and `layer-violation` for
/// module edges that contradict the declared layering (upward edges,
/// same-rank cross-module edges, and modules missing from layers.txt).
std::vector<Finding> RunIncludeGraphPass(const ProjectIndex& index,
                                         const Layers& layers);

/// Pass 2 — lock order. Composes per-function acquisition summaries into a
/// global lock-acquisition graph (class-resolved lock keys, transitive
/// acquisitions through the call graph) and reports `lock-order-cycle` for
/// every cycle, including self-edges (double acquisition of a
/// non-reentrant mutex).
std::vector<Finding> RunLockOrderPass(const ProjectIndex& index);

/// Pass 3 — discarded result. Indexes every declaration whose return value
/// is an error signal ([[nodiscard]], Status/Result, checked-bool APIs)
/// and reports `discarded-result` for bare statement-expression calls to
/// them. A name is only flagged when every declaration of that name in the
/// project is checked, so overloaded or reused names cannot false-positive.
/// Opt out at a call site by casting to void.
std::vector<Finding> RunDiscardedResultPass(const ProjectIndex& index);

/// Pass 4 — param-by-value-heavy. Flags by-value parameters of known-heavy
/// types (std::string, containers, and project classes the index saw
/// declare container/string members) crossing function boundaries.
/// Unanimity over every declaration of a (class, function) pair, and a
/// parameter the definition body std::moves is a sanctioned sink and stays
/// silent.
std::vector<Finding> RunParamByValuePass(const ProjectIndex& index);

/// Pass 5 — guarded-by-violation. Interprocedural GUARDED_BY enforcement:
/// an access to an annotated member is reported unless the guard is held
/// lexically, held by every observed caller (through arbitrarily deep
/// unannotated calls), or promised by ALICOCO_REQUIRES on the function.
std::vector<Finding> RunGuardedByPass(const ProjectIndex& index,
                                      const Interproc& interproc);

/// Pass 6 — blocking-under-lock. Reports blocking work (cond-var waits,
/// sleeps, file/socket I/O, thread joins, raw allocation — seeded from a
/// table, propagated transitively) reachable while any mutex is held.
/// The direct `cv_.Wait(mu_)` idiom on the held lock is sanctioned.
std::vector<Finding> RunBlockingLockPass(const ProjectIndex& index,
                                         const Interproc& interproc);

/// Pass 7 — view-escapes-call. Cross-function dangling views: returning a
/// view of a by-value owner parameter, and `return F(local)` where every
/// definition of F returns a view aliasing that parameter.
std::vector<Finding> RunViewEscapePass(const ProjectIndex& index);

/// Size counters of the cross-file taint tier, for `--stats`.
struct TaintStats {
  size_t call_args = 0;    ///< suspect call-site arguments examined
  size_t pending = 0;      ///< guard-checked local sink hits
  size_t sink_params = 0;  ///< parameters proven to reach a sink
};

/// Pass 8 — taint flow across calls. Resolves the taint_calls /
/// taint_pending records of every summary against callee definitions:
/// confirms Read*/Parse*-guarded local findings (the callee's taint_out /
/// returns_tainted bit), propagates parameter sink masks bottom-up
/// through argument-forwarding call sites, and reports tainted arguments
/// that land on a sink parameter. Unknown callees are assumed clean for
/// sinks (silence) and tainting for Read*/Parse*-named guards (the naming
/// convention is the contract); resolved callees use unanimity over every
/// definition so overloads cannot false-positive.
std::vector<Finding> RunTaintPass(const ProjectIndex& index,
                                  TaintStats* stats = nullptr);

/// Runs all cross-file passes in registry order and returns the merged
/// findings sorted by (file, line, rule, message). The interprocedural
/// tier (call-graph condensation + fixpoints) is built once and shared by
/// the passes that need it; when `interproc_stats` is non-null it
/// receives that tier's size counters for `--stats`.
std::vector<Finding> RunAllPasses(const ProjectIndex& index,
                                  const Layers& layers,
                                  InterprocStats* interproc_stats = nullptr,
                                  TaintStats* taint_stats = nullptr);

// ---------------------------------------------------------------------------
// Intraprocedural dataflow checks.
//
// These run at summarize time (per file), so their findings are stored in
// the FileSummary exactly like per-file rule findings. Each check consumes
// the function's CFG; none of them reports anything on a function whose
// CFG builder fell back.

/// use-after-move: `std::move(x)` poisons `x` until it is reassigned /
/// cleared / rebound; a use while poisoned on ANY path (merged over
/// branches and loop back-edges) is a finding.
void CheckUseAfterMove(const std::string& path,
                       const std::vector<const Token*>& code,
                       const FunctionBody& fn, const Cfg& cfg,
                       std::vector<Finding>* out);

/// dangling-view: a string_view/span bound to a temporary or to a local
/// that dies before the view, and `return view-of-local` /
/// `return local` from a view- or reference-returning function.
void CheckDanglingView(const std::string& path,
                       const std::vector<const Token*>& code,
                       const FunctionBody& fn, const Cfg& cfg,
                       std::vector<Finding>* out);

/// hot-loop-alloc: heap allocation, std container construction, or
/// un-reserve()d push_back growth inside a loop, in hot-path files
/// (src/nn, src/matching, src/pipeline) or functions marked `// lint:hot`.
void CheckHotLoopAlloc(const std::string& path,
                       const std::vector<const Token*>& code,
                       const FunctionBody& fn, const Cfg& cfg,
                       std::vector<Finding>* out);

/// tainted-alloc-size / unchecked-mul-overflow / tainted-index: forward
/// taint + interval analysis over the function CFG. Lattice values carry
/// taint provenance, declared width, a coarse upper bound, and the set of
/// enclosing parameters they derive from. Builtin-source findings go to
/// `out`; sink hits whose taint hinges on a Read*/Parse*-named callee go
/// to summary->taint_pending; suspect call arguments and per-parameter
/// sink facts are recorded on the summary for the cross-file pass.
void CheckTaintFlow(const std::string& path,
                    const std::vector<const Token*>& code,
                    const FunctionBody& fn, const Cfg& cfg,
                    FileSummary* summary, std::vector<Finding>* out);

/// Driver used by SummarizeSource: builds each function's CFG once and
/// runs the three checks above, returning findings sorted by
/// (line, rule, message).
std::vector<Finding> RunFunctionDataflowChecks(
    const std::string& path, const std::vector<const Token*>& code,
    const std::vector<FunctionBody>& functions);

/// Driver used by SummarizeSource alongside RunFunctionDataflowChecks:
/// runs CheckTaintFlow over every function, appending builtin-source
/// findings to summary->findings and taint records to the summary.
void RunTaintChecks(const std::string& path,
                    const std::vector<const Token*>& code,
                    const std::vector<FunctionBody>& functions,
                    FileSummary* summary);

}  // namespace alicoco::lint

#endif  // ALICOCO_TOOLS_LINT_PASSES_PASSES_H_
