// The interprocedural tier under the guarded-by-violation,
// blocking-under-lock, and view-escapes-call passes — plus the call/lock
// resolution machinery the lock-order pass shares.
//
// Interproc::Build condenses the shape-resolved call graph with Tarjan
// SCCs (graph.h) and runs two fixpoints over the condensation:
//
//  - bottom-up (callees first): may-block propagation, seeded from a
//    table of blocking primitives (condition-variable waits, sleeps,
//    file I/O, thread joins, unbounded allocation) and carried through
//    every resolved call edge. Each may-block function keeps a witness
//    chain down to the primitive that started it.
//  - top-down (callers first): the lock set definitely held on entry to
//    each function — the intersection, over every observed call site, of
//    the locks held at that site, unioned with the function's own
//    ALICOCO_REQUIRES contract.
//
// Conservatism rules (see DESIGN.md §4): an unknown callee is assumed
// blocking (its caller is marked may-block) but lock-neutral (it
// contributes nothing to entry sets); a function with no observed call
// sites has an empty entry set, so public API surfaces are never assumed
// to be called under a lock.

#ifndef ALICOCO_TOOLS_LINT_PASSES_INTERPROC_H_
#define ALICOCO_TOOLS_LINT_PASSES_INTERPROC_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/index.h"

namespace alicoco::lint {

/// A function summary with its owning file, the unit every
/// interprocedural pass iterates over.
struct FnRef {
  const FileSummary* file = nullptr;
  const FunctionSummary* fn = nullptr;
};

/// Method names std containers/atomics also expose. A member-access call
/// on an unknown receiver (`finished_.size()`) must not resolve to a
/// project method that happens to share such a name — that is how
/// `Tracer::size()` would grow a phantom edge from every vector.
bool StdLikeMethodName(const std::string& name);

/// Lock identity resolution: a single-identifier lock expression inside a
/// class that declares that mutex member is `Class::member`; otherwise a
/// member name declared by exactly one class resolves to that class;
/// anything else stands for itself verbatim.
std::string LockKey(
    const Acquisition& acq, const std::string& enclosing_class,
    const std::map<std::string, std::set<std::string>>& member_classes);

/// Resolves one call to candidate project functions, per CallKind:
/// plain calls see free functions plus the enclosing class's methods;
/// `this->` calls see the enclosing class only; `Q::` calls see Q's
/// methods plus free functions (Q may be a namespace); member-access
/// calls on unknown receivers resolve only when exactly one class defines
/// the method and the name is not std-container-like — anything more
/// aggressive invents findings out of name collisions.
class CallResolver {
 public:
  explicit CallResolver(const std::vector<FnRef>& all_fns);

  std::vector<FnRef> Resolve(const CallInfo& call,
                             const std::string& enclosing_class) const;

 private:
  std::map<std::string, std::vector<FnRef>> free_fns_;
  std::map<std::string, std::vector<FnRef>> methods_;
  std::map<std::string, std::set<std::string>> method_classes_;
};

/// The blocking seed table: primitive name -> human-readable kind
/// ("condition-variable wait", "sleep", "file I/O", "thread join",
/// "unbounded allocation"), or nullptr for names not seeded. Exposed so
/// tests can pin the seeded-vs-propagated split.
const char* BlockingSeedKind(const std::string& callee);

/// Seed kinds that name a condition-variable wait — the one blocking
/// primitive with a sanctioned direct-use idiom (`cv_.Wait(mu_)` with the
/// held lock as the argument, or inside an ALICOCO_REQUIRES function).
bool IsWaitSeedKind(const char* kind);

/// Aggregate statistics for `--stats`.
struct InterprocStats {
  size_t functions = 0;  ///< function summaries fed to the fixpoints
  size_t sccs = 0;       ///< call-graph condensation components
  size_t edges = 0;      ///< resolved caller->callee key edges
  size_t may_block = 0;  ///< functions the bottom-up fixpoint marked
};

/// The computed interprocedural facts. Build once per analysis; the three
/// passes that consume it are read-only.
class Interproc {
 public:
  static Interproc Build(const ProjectIndex& index);

  const std::vector<FnRef>& functions() const { return functions_; }
  const CallResolver& resolver() const { return resolver_; }
  const std::map<std::string, std::set<std::string>>& member_classes() const {
    return member_classes_;
  }

  /// "Class::Name" for methods, "Name" for free functions.
  static std::string KeyOf(const FunctionSummary& fn);

  /// Resolved lock keys for acquisition indices of `ref`'s function.
  std::set<std::string> HeldKeys(const FnRef& ref,
                                 const std::vector<int>& held) const;

  /// Locks definitely held whenever `key` runs: the call-site
  /// intersection unioned with its REQUIRES contract. Empty for functions
  /// with no observed callers and no contract.
  const std::set<std::string>& EntryHeld(const std::string& key) const;

  /// The REQUIRES contract alone (resolved to lock keys).
  const std::set<std::string>& RequiresOf(const std::string& key) const;

  bool MayBlock(const std::string& key) const;
  /// Witness path from `key` down to the blocking primitive, primitive
  /// last (e.g. {"Server::WriteLog", "fprintf"}). Empty when !MayBlock.
  std::vector<std::string> BlockChain(const std::string& key) const;
  /// Kind of the chain's terminal primitive ("file I/O", ...).
  std::string BlockKind(const std::string& key) const;

  /// GUARDED_BY declarations unioned across files:
  /// (class, member) -> mutex name. Members with conflicting guards are
  /// dropped rather than guessed.
  const std::map<std::pair<std::string, std::string>, std::string>& guarded()
      const {
    return guarded_;
  }

  const InterprocStats& stats() const { return stats_; }

 private:
  Interproc(const ProjectIndex& index);

  struct BlockEvidence {
    std::string via;   ///< next key toward the primitive; "" at the seed
    std::string seed;  ///< primitive name when via is ""
    std::string kind;
  };

  std::vector<FnRef> functions_;
  std::map<std::string, std::set<std::string>> member_classes_;
  CallResolver resolver_;
  std::map<const FunctionSummary*, std::vector<std::string>> acq_keys_;
  std::map<std::string, std::set<std::string>> requires_;
  /// Names whose every project definition produced no summary — bodies
  /// with no calls at all, hence provably non-blocking.
  std::set<std::string> call_free_names_;
  std::map<std::string, std::set<std::string>> entry_;
  /// Cache for EntryHeld's observed-entry ∪ REQUIRES union, so the
  /// accessor can return a stable reference.
  mutable std::map<std::string, std::set<std::string>> merged_entry_;
  std::map<std::string, BlockEvidence> blocking_;
  std::map<std::pair<std::string, std::string>, std::string> guarded_;
  InterprocStats stats_;
};

}  // namespace alicoco::lint

#endif  // ALICOCO_TOOLS_LINT_PASSES_INTERPROC_H_
