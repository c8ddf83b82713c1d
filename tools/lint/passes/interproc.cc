#include "tools/lint/passes/interproc.h"

#include <algorithm>

#include "tools/lint/graph.h"

namespace alicoco::lint {
namespace {

/// All-caps identifiers are macros (ALICOCO_CHECK, ...), not functions;
/// treating them as unknown callees would mark half the tree may-block.
bool IsMacroName(const std::string& name) {
  bool has_alpha = false;
  for (char c : name) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

std::vector<FnRef> CollectFns(const ProjectIndex& index) {
  std::vector<FnRef> fns;
  for (const FileSummary& file : index.files()) {
    for (const FunctionSummary& fn : file.functions) {
      fns.push_back(FnRef{&file, &fn});
    }
  }
  return fns;
}

}  // namespace

bool StdLikeMethodName(const std::string& name) {
  static const char* kNames[] = {
      "size",    "empty",   "count",     "min",       "max",      "swap",
      "clear",   "begin",   "end",       "front",     "back",     "push_back",
      "pop_back", "push",   "pop",       "top",       "insert",   "erase",
      "find",    "at",      "reset",     "get",       "data",     "load",
      "store",   "exchange", "fetch_add", "str",      "c_str",    "substr",
      "append",  "lock",    "unlock",    "try_lock",  "wait",     "notify_one",
      "notify_all", "emplace", "emplace_back", "try_emplace", "resize",
      "reserve", "now",     "time_since_epoch", "duration_cast"};
  return std::any_of(std::begin(kNames), std::end(kNames),
                     [&](const char* n) { return name == n; });
}

std::string LockKey(
    const Acquisition& acq, const std::string& enclosing_class,
    const std::map<std::string, std::set<std::string>>& member_classes) {
  auto it = member_classes.find(acq.name);
  if (it != member_classes.end()) {
    if (acq.is_plain_member && it->second.count(enclosing_class) != 0) {
      return enclosing_class + "::" + acq.name;
    }
    if (it->second.size() == 1) {
      return *it->second.begin() + "::" + acq.name;
    }
  }
  return acq.name;
}

CallResolver::CallResolver(const std::vector<FnRef>& all_fns) {
  for (const FnRef& ref : all_fns) {
    if (ref.fn->class_name.empty()) {
      free_fns_[ref.fn->name].push_back(ref);
    } else {
      methods_[ref.fn->class_name + "::" + ref.fn->name].push_back(ref);
      method_classes_[ref.fn->name].insert(ref.fn->class_name);
    }
  }
}

std::vector<FnRef> CallResolver::Resolve(
    const CallInfo& call, const std::string& enclosing_class) const {
  std::vector<FnRef> out;
  auto add_methods = [&](const std::string& cls) {
    auto it = methods_.find(cls + "::" + call.callee);
    if (it != methods_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  };
  auto add_free = [&] {
    auto it = free_fns_.find(call.callee);
    if (it != free_fns_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  };
  switch (call.kind) {
    case CallKind::kPlain:
      add_free();
      if (!enclosing_class.empty()) add_methods(enclosing_class);
      break;
    case CallKind::kThis:
      if (!enclosing_class.empty()) add_methods(enclosing_class);
      break;
    case CallKind::kQualified:
      if (!call.qualifier.empty()) add_methods(call.qualifier);
      add_free();
      break;
    case CallKind::kMember: {
      if (StdLikeMethodName(call.callee)) break;
      auto it = method_classes_.find(call.callee);
      if (it != method_classes_.end() && it->second.size() == 1) {
        add_methods(*it->second.begin());
      }
      break;
    }
  }
  return out;
}

const char* BlockingSeedKind(const std::string& callee) {
  static const std::map<std::string, const char*> kSeeds = {
      // Condition-variable waits (project CondVar and std names).
      {"Wait", "condition-variable wait"},
      {"wait", "condition-variable wait"},
      {"wait_for", "condition-variable wait"},
      {"wait_until", "condition-variable wait"},
      // Sleeps.
      {"sleep_for", "sleep"},
      {"sleep_until", "sleep"},
      {"sleep", "sleep"},
      {"usleep", "sleep"},
      {"nanosleep", "sleep"},
      // Thread joins.
      {"join", "thread join"},
      // C stdio / POSIX I/O.
      {"fprintf", "file I/O"},
      {"printf", "file I/O"},
      {"fputs", "file I/O"},
      {"fputc", "file I/O"},
      {"fwrite", "file I/O"},
      {"fread", "file I/O"},
      {"fgets", "file I/O"},
      {"fopen", "file I/O"},
      {"fclose", "file I/O"},
      {"fflush", "file I/O"},
      {"fsync", "file I/O"},
      {"recv", "file I/O"},
      {"send", "file I/O"},
      {"accept", "file I/O"},
      {"connect", "file I/O"},
      // Raw heap traffic (std containers are deliberately not seeded —
      // a push_back under a short lock is normal; malloc in a loop under
      // a lock is not).
      {"malloc", "unbounded allocation"},
      {"calloc", "unbounded allocation"},
      {"realloc", "unbounded allocation"},
  };
  auto it = kSeeds.find(callee);
  return it == kSeeds.end() ? nullptr : it->second;
}

bool IsWaitSeedKind(const char* kind) {
  return kind != nullptr && std::string(kind) == "condition-variable wait";
}

std::string Interproc::KeyOf(const FunctionSummary& fn) {
  return fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
}

Interproc Interproc::Build(const ProjectIndex& index) {
  return Interproc(index);
}

Interproc::Interproc(const ProjectIndex& index)
    : functions_(CollectFns(index)), resolver_(functions_) {
  // Mutex member declarations, unioned across files so a .cc resolves
  // members its header declared.
  for (const FileSummary& file : index.files()) {
    for (const MutexMemberDecl& m : file.mutexes) {
      member_classes_[m.member].insert(m.class_name);
    }
  }

  // GUARDED_BY declarations; a member with two different guards is
  // ill-formed input — drop it rather than pick one.
  std::set<std::pair<std::string, std::string>> conflicting;
  for (const FileSummary& file : index.files()) {
    for (const GuardedMemberDecl& g : file.guarded_members) {
      auto key = std::make_pair(g.class_name, g.member);
      auto [it, inserted] = guarded_.emplace(key, g.mutex);
      if (!inserted && it->second != g.mutex) conflicting.insert(key);
    }
  }
  for (const auto& key : conflicting) guarded_.erase(key);

  // Names that are provably call-free: every project definition with the
  // name produced no FunctionSummary, and a summary is only dropped when
  // the body has no calls, no acquisitions, no guarded-member refs, and
  // no view returns. Such a callee cannot block, however the call fails
  // to resolve (`LevelName(...)` in an anonymous namespace is the
  // canonical case).
  std::set<std::string> summarized_names;
  for (const FnRef& ref : functions_) summarized_names.insert(ref.fn->name);
  for (const FileSummary& file : index.files()) {
    for (const DeclInfo& d : file.decls) {
      if (d.has_body && summarized_names.count(d.name) == 0) {
        call_free_names_.insert(d.name);
      }
    }
  }

  // Per-acquisition resolved lock keys.
  for (const FnRef& ref : functions_) {
    std::vector<std::string>& keys = acq_keys_[ref.fn];
    for (const Acquisition& acq : ref.fn->acquisitions) {
      keys.push_back(LockKey(acq, ref.fn->class_name, member_classes_));
    }
  }

  // REQUIRES contracts, resolved like plain-member lock expressions and
  // unioned over every declaration of the same (class, name).
  for (const FileSummary& file : index.files()) {
    for (const DeclInfo& d : file.decls) {
      if (d.requires_locks.empty()) continue;
      std::string key =
          d.class_name.empty() ? d.name : d.class_name + "::" + d.name;
      for (const std::string& name : d.requires_locks) {
        Acquisition as_acq;
        as_acq.name = name;
        as_acq.is_plain_member = true;
        requires_[key].insert(LockKey(as_acq, d.class_name, member_classes_));
      }
    }
  }

  // The call graph over function keys, plus per-callee observed call
  // sites (caller key + locks held directly at the site).
  struct CallSite {
    std::string caller;
    std::set<std::string> held;
  };
  Digraph call_graph;
  std::map<std::string, std::vector<CallSite>> sites;
  std::set<std::pair<std::string, std::string>> edge_set;
  for (const FnRef& ref : functions_) {
    const std::string caller = KeyOf(*ref.fn);
    call_graph.AddNode(caller);
    for (const CallInfo& call : ref.fn->calls) {
      std::set<std::string> held;
      const std::vector<std::string>& keys = acq_keys_[ref.fn];
      for (int idx : call.held) {
        held.insert(keys[static_cast<size_t>(idx)]);
      }
      for (const FnRef& target : resolver_.Resolve(call, ref.fn->class_name)) {
        const std::string callee = KeyOf(*target.fn);
        call_graph.AddEdge(caller, callee, EdgeSite{ref.file->path, call.line});
        edge_set.emplace(caller, callee);
        sites[callee].push_back(CallSite{caller, held});
      }
    }
  }

  const std::vector<std::vector<std::string>> components =
      call_graph.StronglyConnectedComponents();

  // Group function summaries by key (overloads and header/impl pairs
  // merge), in deterministic functions_ order.
  std::map<std::string, std::vector<const FunctionSummary*>> by_key;
  for (const FnRef& ref : functions_) {
    by_key[KeyOf(*ref.fn)].push_back(ref.fn);
  }

  // Bottom-up may-block fixpoint: components come out callees-first, so
  // one sweep per component round converges quickly; the inner loop
  // handles recursion within a component.
  for (const std::vector<std::string>& component : components) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const std::string& key : component) {
        if (blocking_.count(key) != 0) continue;
        auto fns_it = by_key.find(key);
        if (fns_it == by_key.end()) continue;
        for (const FunctionSummary* fn : fns_it->second) {
          for (const CallInfo& call : fn->calls) {
            if (const char* kind = BlockingSeedKind(call.callee)) {
              blocking_[key] = BlockEvidence{"", call.callee, kind};
              changed = true;
              break;
            }
            std::vector<FnRef> targets =
                resolver_.Resolve(call, fn->class_name);
            if (targets.empty()) {
              // Unknown callee: assumed blocking unless it is clearly
              // benign (std-container-shaped, a macro, std::, or a
              // project definition whose body is provably call-free).
              if (StdLikeMethodName(call.callee) ||
                  IsMacroName(call.callee) || call.qualifier == "std" ||
                  call_free_names_.count(call.callee) != 0) {
                continue;
              }
              blocking_[key] = BlockEvidence{
                  "", call.callee, "unresolved callee, assumed blocking"};
              changed = true;
              break;
            }
            for (const FnRef& target : targets) {
              const std::string target_key = KeyOf(*target.fn);
              if (target_key != key && blocking_.count(target_key) != 0) {
                blocking_[key] = BlockEvidence{target_key, "", ""};
                changed = true;
                break;
              }
            }
            if (blocking_.count(key) != 0) break;
          }
          if (blocking_.count(key) != 0) break;
        }
      }
    }
  }

  // Top-down entry-held fixpoint, callers first (components reversed).
  // `entry_` absence means top (no constraint yet); keys without observed
  // call sites resolve to empty at the end — never assumed to be called
  // under a lock.
  for (auto it = components.rbegin(); it != components.rend(); ++it) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const std::string& key : *it) {
        auto site_it = sites.find(key);
        if (site_it == sites.end()) continue;
        std::set<std::string> meet;
        bool have = false;
        for (const CallSite& site : site_it->second) {
          auto caller_entry = entry_.find(site.caller);
          if (caller_entry == entry_.end() && sites.count(site.caller) != 0) {
            continue;  // caller still at top (same-component recursion)
          }
          std::set<std::string> at_site = site.held;
          if (caller_entry != entry_.end()) {
            at_site.insert(caller_entry->second.begin(),
                           caller_entry->second.end());
          }
          auto req = requires_.find(site.caller);
          if (req != requires_.end()) {
            at_site.insert(req->second.begin(), req->second.end());
          }
          if (!have) {
            meet = std::move(at_site);
            have = true;
            continue;
          }
          std::set<std::string> narrowed;
          std::set_intersection(meet.begin(), meet.end(), at_site.begin(),
                                at_site.end(),
                                std::inserter(narrowed, narrowed.begin()));
          meet = std::move(narrowed);
        }
        if (!have) continue;  // every observed caller still at top
        auto cur = entry_.find(key);
        if (cur == entry_.end() || cur->second != meet) {
          entry_[key] = std::move(meet);
          changed = true;
        }
      }
    }
  }
  // Anything still at top (unreachable recursion, or simply uncalled)
  // falls to the empty set via EntryHeld's default.

  stats_.functions = functions_.size();
  stats_.sccs = components.size();
  stats_.edges = edge_set.size();
  stats_.may_block = blocking_.size();
}

std::set<std::string> Interproc::HeldKeys(const FnRef& ref,
                                          const std::vector<int>& held) const {
  std::set<std::string> out;
  auto it = acq_keys_.find(ref.fn);
  if (it == acq_keys_.end()) return out;
  for (int idx : held) {
    if (idx >= 0 && static_cast<size_t>(idx) < it->second.size()) {
      out.insert(it->second[static_cast<size_t>(idx)]);
    }
  }
  return out;
}

const std::set<std::string>& Interproc::EntryHeld(
    const std::string& key) const {
  static const std::set<std::string> kEmpty;
  auto it = entry_.find(key);
  const std::set<std::string>& observed =
      it == entry_.end() ? kEmpty : it->second;
  auto req = requires_.find(key);
  if (req == requires_.end()) return observed;
  // Merge lazily: cache the union so the reference stays valid.
  auto [cached, inserted] = merged_entry_.try_emplace(key, observed);
  if (inserted) {
    cached->second.insert(req->second.begin(), req->second.end());
  }
  return cached->second;
}

const std::set<std::string>& Interproc::RequiresOf(
    const std::string& key) const {
  static const std::set<std::string> kEmpty;
  auto it = requires_.find(key);
  return it == requires_.end() ? kEmpty : it->second;
}

bool Interproc::MayBlock(const std::string& key) const {
  return blocking_.count(key) != 0;
}

std::vector<std::string> Interproc::BlockChain(const std::string& key) const {
  std::vector<std::string> chain;
  std::string cur = key;
  while (true) {
    auto it = blocking_.find(cur);
    if (it == blocking_.end()) break;
    chain.push_back(cur);
    if (it->second.via.empty()) {
      chain.push_back(it->second.seed);
      break;
    }
    cur = it->second.via;
  }
  return chain;
}

std::string Interproc::BlockKind(const std::string& key) const {
  std::string cur = key;
  while (true) {
    auto it = blocking_.find(cur);
    if (it == blocking_.end()) return "";
    if (it->second.via.empty()) return it->second.kind;
    cur = it->second.via;
  }
}

}  // namespace alicoco::lint
