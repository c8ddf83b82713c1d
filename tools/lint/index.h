// ProjectIndex: the whole-program layer under alicoco_lint.
//
// A single deterministic walk lexes every first-party file once and boils
// it down to a FileSummary — include edges, mutex members, per-function
// lock acquisitions and calls, checked-return declarations, bare
// statement-expression call sites, per-file rule findings, and inline
// `lint:allow` lines. The cross-file passes (tools/lint/passes/) consume
// summaries only, never tokens. Every run is cold: each file is read and
// summarized from source.

#ifndef ALICOCO_TOOLS_LINT_INDEX_H_
#define ALICOCO_TOOLS_LINT_INDEX_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "tools/lint/rules.h"

namespace alicoco::lint {

/// One #include directive.
struct IncludeSite {
  int line = 0;
  bool angled = false;
  std::string path;  ///< as written between the delimiters
};

/// A mutex-typed member (or one named by ALICOCO_GUARDED_BY), keyed by the
/// class that declares it. The lock-order pass unions these across files
/// so a .cc can resolve members its header declared.
struct MutexMemberDecl {
  std::string class_name;
  std::string member;
};

/// A data member annotated ALICOCO_GUARDED_BY: `member` of `class_name`
/// must only be touched while `mutex` is held. The guarded-by-violation
/// pass unions these across files, like MutexMemberDecl.
struct GuardedMemberDecl {
  std::string class_name;
  std::string member;
  std::string mutex;  ///< last identifier of the annotation argument
};

/// One lock acquisition inside a function body: `MutexLock l(expr);`.
struct Acquisition {
  int line = 0;
  /// Last identifier of the lock expression (`mu_`).
  std::string name;
  /// True when the expression is a single identifier — resolvable against
  /// the enclosing class's mutex members. Otherwise `expr` is the verbatim
  /// expression and stands for itself.
  bool is_plain_member = true;
  std::string expr;
  /// Indices (into the function's `acquisitions`) of locks already held
  /// when this one is taken.
  std::vector<int> held;
};

/// How a call names its target — the lock-order pass resolves each shape
/// differently to keep unqualified-name collisions (a project `size()`
/// versus `std::vector::size()`) from fabricating graph edges.
enum class CallKind {
  kPlain,      ///< `F(...)` — free function or same-class method
  kThis,       ///< `this->F(...)`
  kQualified,  ///< `Q::F(...)` — `qualifier` holds Q
  kMember,     ///< `obj.F(...)` / `obj->F(...)` — receiver type unknown
};

/// A call made inside a function body, with the locks held at the call.
struct CallInfo {
  int line = 0;
  std::string callee;  ///< unqualified method/function name
  CallKind kind = CallKind::kPlain;
  std::string qualifier;  ///< class/namespace before ::, kQualified only
  /// Last identifier of the first argument ("" when no arguments). Lets
  /// the blocking-under-lock pass recognize the sanctioned condition-wait
  /// idiom `cv_.Wait(mu_)` — the waited-on lock is named right there.
  std::string arg0;
  std::vector<int> held;
};

/// A read or write of a member field (`items_`, `this->items_`) inside a
/// function body, with the locks held lexically at the access. Only
/// trailing-underscore identifiers are collected — that is this
/// codebase's member naming convention, and it is what GUARDED_BY
/// annotations attach to.
struct MemberRef {
  int line = 0;
  std::string name;
  std::vector<int> held;
};

/// One argument of a view-returning call site, as the view-escapes-call
/// pass needs it: either the name of a local/by-value owner, or a marker
/// that the argument is a temporary. Position matters — args align with
/// the callee's parameters.
struct ViewArg {
  std::string owner;    ///< local owner / by-value owner param, or ""
  bool is_temp = false;
};

/// `return Callee(args...);` inside a view- or reference-returning
/// function. If one of Callee's escaping parameters receives a local
/// owner or a temporary, the returned view dangles. Only sites with at
/// least one owner/temp argument are recorded.
struct ViewReturnCall {
  int line = 0;
  std::string callee;
  std::vector<ViewArg> args;
};

/// One parameter of a function declaration, as the param-by-value-heavy
/// pass needs it. `type` is the normalized type name with qualifiers and
/// template arguments stripped ("std::string", "ConceptNode"); `by_value`
/// is false for references, pointers, and rvalue references.
struct ParamInfo {
  std::string type;
  std::string name;
  bool by_value = false;
  /// Definition sites only: the body contains `std::move(<name>)`, which
  /// sanctions the by-value sink pattern.
  bool moved = false;
  /// Definition sites of view/reference-returning functions only: this
  /// parameter is named in a return expression, so the returned view may
  /// alias it. The view-escapes-call pass propagates this across calls.
  bool escapes_return = false;
  /// Definition sites only: untrusted-value sinks this parameter reaches
  /// uncapped inside the body — a bitmask of kTaintSinkAlloc /
  /// kTaintSinkIndex. The cross-file taint pass composes these with
  /// tainted arguments at call sites.
  uint8_t taint_sink_mask = 0;
  /// Definition sites only: the body writes a source-derived, uncapped
  /// value through this pointer/reference parameter (the `ReadU32(f, &x)`
  /// out-param shape). Callers' taint from this parameter is real.
  bool taint_out = false;
};

/// taint_sink_mask bits: the value is used as an allocation / IO-length
/// size, or as a container index / loop bound.
inline constexpr uint8_t kTaintSinkAlloc = 1;
inline constexpr uint8_t kTaintSinkIndex = 2;

/// A function declaration or definition seen at class or namespace scope.
struct DeclInfo {
  int line = 0;
  std::string name;
  std::string class_name;  ///< "" for free functions
  /// Return value must not be ignored: [[nodiscard]], or a Status/Result
  /// return, or a bool-returning Load/Save/Parse/Read/Write-style API.
  bool checked = false;
  /// This declaration carries a body (it is the definition).
  bool has_body = false;
  std::vector<ParamInfo> params;
  /// Locks named by an ALICOCO_REQUIRES annotation on this declaration —
  /// the caller-must-hold contract the guarded-by pass honors.
  std::vector<std::string> requires_locks;
  /// Definition sites only: a return expression carries a source-derived,
  /// uncapped value, so `x = ThisFn(...)` taints x in the caller.
  bool returns_tainted = false;
};

/// A statement that consists of nothing but a call — the shape that
/// discards the callee's return value.
struct CallStatement {
  int line = 0;
  std::string callee;
};

/// Where a suspect value's taint came from. Builtin sources (fread, recv,
/// std::sto*) taint unconditionally; a Read*/Parse*-named project call
/// taints only if its definition really writes untrusted data — a claim
/// the cross-file taint pass checks against the callee's summary before
/// believing it.
enum class TaintOrigin {
  kNone = 0,          ///< not tainted; recorded for its param_mask only
  kBuiltin = 1,       ///< direct read of program input
  kCalleeOut = 2,     ///< out-param of a Read*/Parse*-named call
  kCalleeReturn = 3,  ///< return value of a Read*/Parse*-named call
};

/// A call site passing a suspect integer argument (tainted, or flowing
/// from the caller's own parameters) to a project function. The
/// cross-file taint pass joins these against the callee's per-parameter
/// taint_sink_mask to report flows that cross function boundaries.
struct TaintCallArg {
  int line = 0;
  std::string caller;
  std::string caller_class;  ///< "" for free functions
  std::string callee;        ///< unqualified callee name
  CallKind kind = CallKind::kPlain;
  std::string qualifier;  ///< class/namespace before ::, kQualified only
  int arg_index = 0;
  std::string var;  ///< the argument, a single identifier
  TaintOrigin origin = TaintOrigin::kNone;
  std::string source;   ///< builtin source name, or the guard callee
  int source_line = 0;  ///< line the taint entered
  int guard_param = -1;  ///< kCalleeOut: out-param index of the guard call
  uint32_t param_mask = 0;  ///< caller params feeding the arg, uncapped
};

/// A local sink hit whose only taint evidence is a Read*/Parse*-named
/// call. Held in the summary until the cross-file pass confirms the named
/// callee really produces untrusted data (taint_out / returns_tainted on
/// its definition), so a reader that caps internally silences every
/// caller without per-site edits.
struct PendingTaintFinding {
  int line = 0;
  std::string rule;
  std::string message;
  std::string guard_callee;
  int guard_param = -1;  ///< out-param index; -1 = return value
};

struct FunctionSummary {
  std::string name;
  std::string class_name;  ///< "" for free functions
  std::vector<Acquisition> acquisitions;
  std::vector<CallInfo> calls;
  std::vector<MemberRef> member_refs;
  std::vector<ViewReturnCall> view_returns;
};

/// Everything the cross-file passes need to know about one file.
struct FileSummary {
  std::string path;  ///< repo-relative, forward slashes
  std::vector<IncludeSite> includes;
  std::vector<MutexMemberDecl> mutexes;
  std::vector<GuardedMemberDecl> guarded_members;
  std::vector<FunctionSummary> functions;
  std::vector<DeclInfo> decls;
  std::vector<CallStatement> call_statements;
  std::vector<TaintCallArg> taint_calls;
  std::vector<PendingTaintFinding> taint_pending;
  std::vector<Finding> findings;  ///< per-file rule findings, unsuppressed
  /// line -> rules allowed there via inline `lint:allow(...)` comments.
  std::map<int, std::set<std::string>> allowances;
  /// Classes declared here that own a string/container member — they copy
  /// heavily, so param-by-value-heavy treats them like std containers.
  std::vector<std::string> heavy_classes;
};

struct IndexStats {
  size_t files = 0;  ///< files in the index
  uint64_t bytes_lexed = 0;
};

/// Lexes `contents` once and extracts the full FileSummary, running every
/// per-file registry rule along the way. Exposed for unit tests; Build is
/// the production entry point.
FileSummary SummarizeSource(const std::string& path,
                            const std::string& contents);

class ProjectIndex {
 public:
  /// Walks `subdirs` under `root` (skipping any directory literally named
  /// "fixtures"), summarizing every .h/.hpp/.cc/.cpp in sorted order.
  static Result<ProjectIndex> Build(const std::string& root,
                                    const std::vector<std::string>& subdirs);

  const std::vector<FileSummary>& files() const { return files_; }
  const FileSummary* Find(const std::string& path) const;
  const IndexStats& stats() const { return stats_; }

 private:
  std::vector<FileSummary> files_;
  IndexStats stats_;
};

}  // namespace alicoco::lint

#endif  // ALICOCO_TOOLS_LINT_INDEX_H_
