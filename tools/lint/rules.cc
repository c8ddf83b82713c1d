#include "tools/lint/rules.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>

namespace alicoco::lint {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view Basename(std::string_view path) {
  size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

/// File stem: basename without the last extension.
std::string_view Stem(std::string_view path) {
  std::string_view base = Basename(path);
  size_t dot = base.rfind('.');
  return dot == std::string_view::npos ? base : base.substr(0, dot);
}

/// The token stream with comments removed: rules that pattern-match code
/// adjacency must not see an intervening comment as a neighbor.
std::vector<const Token*> CodeTokens(const FileContext& file) {
  std::vector<const Token*> code;
  code.reserve(file.tokens.size());
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::kComment) code.push_back(&t);
  }
  return code;
}

bool IsIdent(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kIdentifier && t->text == text;
}

bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

const Token* At(const std::vector<const Token*>& code, size_t i) {
  return i < code.size() ? code[i] : nullptr;
}

const Token* Prev(const std::vector<const Token*>& code, size_t i) {
  return i == 0 ? nullptr : code[i - 1];
}

void Report(const FileContext& file, const Token& at, std::string_view rule,
            std::string message, std::vector<Finding>* out) {
  out->push_back(Finding{file.path, at.line, std::string(rule),
                         std::move(message)});
}

// ---- raw-new-delete -----------------------------------------------------

class RawNewDeleteRule : public Rule {
 public:
  std::string_view id() const override { return "raw-new-delete"; }
  std::string_view rationale() const override {
    return "ownership must be containers or smart pointers; raw new/delete "
           "is allowed only in src/nn arena code and the global allocator "
           "replacements in src/obs/prof/alloc_hook.cc";
  }
  std::string_view example_bad() const override {
    return "Node* n = new Node();\n// ...every early return above leaks n\n"
           "delete n;";
  }
  std::string_view example_good() const override {
    return "auto n = std::make_unique<Node>();  // freed on every path";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    if (StartsWith(file.path, "src/nn/")) return;
    // The heap-attribution hook IS the operator new/delete replacement
    // set; its raw expressions are the implementation, not ownership.
    if (file.path == "src/obs/prof/alloc_hook.cc") return;
    auto code = CodeTokens(file);
    for (size_t i = 0; i < code.size(); ++i) {
      if (IsIdent(code[i], "new")) {
        Report(file, *code[i], id(),
               "raw 'new' (use std::make_unique / containers)", out);
      } else if (IsIdent(code[i], "delete") && !IsPunct(Prev(code, i), "=")) {
        Report(file, *code[i], id(),
               "raw 'delete' (ownership should be RAII)", out);
      }
    }
  }
};

// ---- banned-rand --------------------------------------------------------

class BannedRandRule : public Rule {
 public:
  std::string_view id() const override { return "banned-rand"; }
  std::string_view rationale() const override {
    return "all randomness goes through common/rng.h so every run is "
           "reproducible per seed";
  }
  std::string_view example_bad() const override {
    return "int pick = rand() % candidates.size();  // differs every run";
  }
  std::string_view example_good() const override {
    return "Rng rng(config.seed);\n"
           "int pick = rng.UniformInt(0, candidates.size() - 1);";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    static const char* kBanned[] = {"rand", "srand", "rand_r", "drand48",
                                    "lrand48"};
    auto code = CodeTokens(file);
    for (size_t i = 0; i < code.size(); ++i) {
      const Token* t = code[i];
      if (t->kind != TokenKind::kIdentifier) continue;
      bool banned = std::any_of(std::begin(kBanned), std::end(kBanned),
                                [&](const char* b) { return t->text == b; });
      if (!banned || !IsPunct(At(code, i + 1), "(")) continue;
      const Token* prev = Prev(code, i);
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      Report(file, *t, id(),
             "'" + t->text + "()' is non-deterministic (use common/rng.h)",
             out);
    }
  }
};

// ---- bare-fopen ---------------------------------------------------------

class BareFopenRule : public Rule {
 public:
  std::string_view id() const override { return "bare-fopen"; }
  std::string_view rationale() const override {
    return "fopen handles must live in the FilePtr RAII wrapper so they "
           "close on every path";
  }
  std::string_view example_bad() const override {
    return "FILE* f = fopen(path.c_str(), \"rb\");\n"
           "if (!Parse(f)) return Status::IOError(path);  // leaks f";
  }
  std::string_view example_good() const override {
    return "FilePtr f(fopen(path.c_str(), \"rb\"));  // closes on all paths";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    auto code = CodeTokens(file);
    for (size_t i = 0; i < code.size(); ++i) {
      if (!IsIdent(code[i], "fopen") || !IsPunct(At(code, i + 1), "(")) {
        continue;
      }
      // Wrapped when the same statement mentions FilePtr or unique_ptr.
      bool wrapped = false;
      for (size_t j = i; j-- > 0;) {
        const Token* t = code[j];
        if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) break;
        if (IsIdent(t, "FilePtr") || IsIdent(t, "unique_ptr")) {
          wrapped = true;
          break;
        }
      }
      if (!wrapped) {
        Report(file, *code[i], id(),
               "bare fopen() (wrap the handle in FilePtr)", out);
      }
    }
  }
};

// ---- using-namespace-header ---------------------------------------------

class UsingNamespaceHeaderRule : public Rule {
 public:
  std::string_view id() const override { return "using-namespace-header"; }
  std::string_view rationale() const override {
    return "a using-directive in a header leaks into every includer";
  }
  std::string_view example_bad() const override {
    return "// widget.h\nusing namespace std;  // every includer inherits it";
  }
  std::string_view example_good() const override {
    return "// widget.cc (or spell the names out)\nusing std::string;";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    if (!file.is_header) return;
    auto code = CodeTokens(file);
    for (size_t i = 0; i + 1 < code.size(); ++i) {
      if (IsIdent(code[i], "using") && IsIdent(code[i + 1], "namespace")) {
        Report(file, *code[i], id(),
               "'using namespace' in a header pollutes all includers", out);
      }
    }
  }
};

// ---- include-guard ------------------------------------------------------

std::string ExpectedGuard(std::string_view path) {
  std::string_view p = path;
  if (StartsWith(p, "src/")) p.remove_prefix(4);
  std::string guard = "ALICOCO_";
  for (char c : p) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

class IncludeGuardRule : public Rule {
 public:
  std::string_view id() const override { return "include-guard"; }
  std::string_view rationale() const override {
    return "guard names must be derivable from the path "
           "(ALICOCO_<PATH>_H_) so moves and copies cannot collide";
  }
  std::string_view example_bad() const override {
    return "// src/kg/taxonomy.h\n#ifndef TAXONOMY_H  // collides on copy\n"
           "#define TAXONOMY_H";
  }
  std::string_view example_good() const override {
    return "// src/kg/taxonomy.h\n#ifndef ALICOCO_KG_TAXONOMY_H_\n"
           "#define ALICOCO_KG_TAXONOMY_H_";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    if (!file.is_header) return;
    std::string expected = ExpectedGuard(file.path);
    const Token* ifndef = nullptr;
    const Token* define = nullptr;
    for (const Token& t : file.tokens) {
      if (t.kind != TokenKind::kDirective) continue;
      if (StartsWith(t.text, "#pragma once")) {
        Report(file, t, id(),
               "#pragma once (use the " + expected + " guard)", out);
        return;
      }
      if (ifndef == nullptr) {
        if (StartsWith(t.text, "#ifndef ")) {
          ifndef = &t;
          continue;
        }
        // Any other directive before the guard: not a guarded header.
        break;
      }
      if (StartsWith(t.text, "#define ")) define = &t;
      break;
    }
    if (ifndef == nullptr || define == nullptr) {
      if (!file.tokens.empty()) {
        Report(file, file.tokens.front(), id(),
               "missing include guard (expected " + expected + ")", out);
      }
      return;
    }
    std::string got = ifndef->text.substr(8);
    std::string defined = define->text.substr(8);
    if (got != expected || defined != expected) {
      Report(file, *ifndef, id(),
             "guard is '" + got + "', expected '" + expected + "'", out);
    }
  }
};

// ---- include-order ------------------------------------------------------

struct Include {
  const Token* token;
  bool angled;
  std::string path;
};

std::vector<Include> ParseIncludes(const FileContext& file) {
  std::vector<Include> incs;
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::kDirective ||
        !StartsWith(t.text, "#include")) {
      continue;
    }
    size_t open = t.text.find_first_of("<\"");
    if (open == std::string::npos) continue;
    char close = t.text[open] == '<' ? '>' : '"';
    size_t end = t.text.find(close, open + 1);
    if (end == std::string::npos) continue;
    incs.push_back(Include{&t, t.text[open] == '<',
                           t.text.substr(open + 1, end - open - 1)});
  }
  return incs;
}

class IncludeOrderRule : public Rule {
 public:
  std::string_view id() const override { return "include-order"; }
  std::string_view rationale() const override {
    return "own header first, <system> before \"project\" within a block, "
           "blocks sorted — diffs stay minimal and hidden dependencies "
           "surface";
  }
  std::string_view example_bad() const override {
    return "// src/kg/taxonomy.cc\n#include \"common/status.h\"\n"
           "#include <vector>\n#include \"kg/taxonomy.h\"  // own header last";
  }
  std::string_view example_good() const override {
    return "// src/kg/taxonomy.cc\n#include \"kg/taxonomy.h\"\n\n"
           "#include <vector>\n\n#include \"common/status.h\"";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    auto incs = ParseIncludes(file);
    if (incs.empty()) return;

    // Own-header-first: a quoted include of `<stem>.h` from a .cc must be
    // the file's first include.
    if (!file.is_header) {
      std::string own = std::string(Stem(file.path)) + ".h";
      for (size_t i = 0; i < incs.size(); ++i) {
        if (!incs[i].angled && Basename(incs[i].path) == own && i != 0) {
          Report(file, *incs[i].token, id(),
                 "own header \"" + incs[i].path +
                     "\" must be the first include",
                 out);
        }
      }
    }

    // Within a run of adjacent include lines: no <system> include after a
    // "project" include, and same-style neighbors sorted.
    for (size_t i = 1; i < incs.size(); ++i) {
      if (incs[i].token->line != incs[i - 1].token->line + 1) continue;
      if (incs[i].angled && !incs[i - 1].angled) {
        Report(file, *incs[i].token, id(),
               "<" + incs[i].path + "> after \"" + incs[i - 1].path +
                   "\" (system includes go in an earlier block)",
               out);
      } else if (incs[i].angled == incs[i - 1].angled &&
                 incs[i].path < incs[i - 1].path) {
        Report(file, *incs[i].token, id(),
               "include block not sorted: '" + incs[i].path + "' after '" +
                   incs[i - 1].path + "'",
               out);
      }
    }
  }
};

// ---- banned-time --------------------------------------------------------

class BannedTimeRule : public Rule {
 public:
  std::string_view id() const override { return "banned-time"; }
  std::string_view rationale() const override {
    return "wall-clock and hardware entropy make runs unreproducible; "
           "seeded common/rng.h is the only randomness source";
  }
  std::string_view example_bad() const override {
    return "std::mt19937 gen(std::random_device{}());  // new seed each run";
  }
  std::string_view example_good() const override {
    return "Rng rng(config.seed);  // same seed, same run, bit for bit";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    if (StartsWith(file.path, "src/common/rng")) return;
    static const char* kBannedCalls[] = {"time",      "clock", "gettimeofday",
                                         "localtime", "gmtime"};
    static const char* kBannedNames[] = {"random_device", "system_clock"};
    auto code = CodeTokens(file);
    for (size_t i = 0; i < code.size(); ++i) {
      const Token* t = code[i];
      if (t->kind != TokenKind::kIdentifier) continue;
      for (const char* name : kBannedNames) {
        if (t->text == name) {
          Report(file, *t, id(),
                 "'" + t->text + "' is non-deterministic (seed common/rng.h "
                 "explicitly)",
                 out);
        }
      }
      const Token* prev = Prev(code, i);
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      if (!IsPunct(At(code, i + 1), "(")) continue;
      for (const char* name : kBannedCalls) {
        if (t->text == name) {
          Report(file, *t, id(),
                 "'" + t->text + "()' reads the wall clock (determinism "
                 "gate)",
                 out);
        }
      }
    }
  }
};

// ---- unordered-persist-iter ---------------------------------------------

bool IsUnorderedContainer(std::string_view text) {
  return text == "unordered_map" || text == "unordered_set" ||
         text == "unordered_multimap" || text == "unordered_multiset";
}

class UnorderedPersistIterRule : public Rule {
 public:
  std::string_view id() const override { return "unordered-persist-iter"; }
  std::string_view rationale() const override {
    return "iterating a hash container while writing a snapshot bakes "
           "hash-order into persisted bytes; sort keys first";
  }
  std::string_view example_bad() const override {
    return "for (const auto& [id, node] : nodes_) {  // unordered_map\n"
           "  out << id << node.name;  // byte order = hash order\n}";
  }
  std::string_view example_good() const override {
    return "std::vector<int64_t> ids = SortedKeys(nodes_);\n"
           "for (int64_t id : ids) out << id << nodes_.at(id).name;";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    if (!StartsWith(file.path, "src/kg/persistence")) return;
    auto code = CodeTokens(file);

    // Pass 1: names declared with an unordered container type.
    std::set<std::string> unordered_names;
    for (size_t i = 0; i < code.size(); ++i) {
      if (code[i]->kind != TokenKind::kIdentifier ||
          !IsUnorderedContainer(code[i]->text)) {
        continue;
      }
      size_t j = i + 1;
      if (IsPunct(At(code, j), "<")) {
        int depth = 0;
        for (; j < code.size(); ++j) {
          if (IsPunct(code[j], "<")) ++depth;
          if (IsPunct(code[j], ">") && --depth == 0) {
            ++j;
            break;
          }
        }
      }
      while (IsPunct(At(code, j), "&") || IsPunct(At(code, j), "*")) ++j;
      const Token* name = At(code, j);
      if (name != nullptr && name->kind == TokenKind::kIdentifier) {
        unordered_names.insert(name->text);
      }
    }

    // Pass 2: range-fors whose range expression names one of them (or an
    // unordered type directly).
    for (size_t i = 0; i + 1 < code.size(); ++i) {
      if (!IsIdent(code[i], "for") || !IsPunct(code[i + 1], "(")) continue;
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < code.size(); ++j) {
        if (IsPunct(code[j], "(")) ++depth;
        if (IsPunct(code[j], ")") && --depth == 0) {
          close = j;
          break;
        }
        if (depth == 1 && colon == 0 && IsPunct(code[j], ":")) colon = j;
      }
      if (colon == 0 || close == 0) continue;
      for (size_t j = colon + 1; j < close; ++j) {
        if (code[j]->kind != TokenKind::kIdentifier) continue;
        if (unordered_names.count(code[j]->text) != 0 ||
            IsUnorderedContainer(code[j]->text)) {
          Report(file, *code[i], id(),
                 "iteration over unordered container '" + code[j]->text +
                     "' feeds persisted output; sort keys first",
                 out);
          break;
        }
      }
    }
  }
};

// ---- lock-discipline ----------------------------------------------------

class LockDisciplineRule : public Rule {
 public:
  std::string_view id() const override { return "lock-discipline"; }
  std::string_view rationale() const override {
    return "concurrency state must be visible to clang -Wthread-safety: "
           "annotated alicoco::Mutex/CondVar only, and a mutex member must "
           "guard something";
  }
  std::string_view example_bad() const override {
    return "std::mutex mu_;  // invisible to -Wthread-safety\nint hits_;";
  }
  std::string_view example_good() const override {
    return "Mutex mu_;\nint hits_ ALICOCO_GUARDED_BY(mu_);";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    if (StartsWith(file.path, "tools/lint/") ||
        file.path == "src/common/mutex.h") {
      return;  // the wrapper itself, and this analyzer's own string tables
    }
    auto code = CodeTokens(file);

    bool has_guard_annotation = false;
    for (const Token* t : code) {
      if (t->kind == TokenKind::kIdentifier &&
          (t->text == "ALICOCO_GUARDED_BY" ||
           t->text == "ALICOCO_PT_GUARDED_BY")) {
        has_guard_annotation = true;
        break;
      }
    }

    static const char* kRawTypes[] = {
        "mutex",        "recursive_mutex",        "timed_mutex",
        "shared_mutex", "condition_variable",     "condition_variable_any",
    };
    for (size_t i = 0; i + 2 < code.size(); ++i) {
      // Raw standard-library lock types anywhere in first-party code.
      if (IsIdent(code[i], "std") && IsPunct(code[i + 1], "::")) {
        for (const char* raw : kRawTypes) {
          if (IsIdent(code[i + 2], raw)) {
            Report(file, *code[i + 2], id(),
                   "raw std::" + code[i + 2]->text +
                       " (use the annotated alicoco::Mutex/CondVar from "
                       "common/mutex.h)",
                   out);
          }
        }
      }
      // A Mutex/CondVar member whose file declares no guarded data.
      if ((IsIdent(code[i], "Mutex") || IsIdent(code[i], "CondVar")) &&
          At(code, i + 1) != nullptr &&
          code[i + 1]->kind == TokenKind::kIdentifier &&
          EndsWith(code[i + 1]->text, "_") && IsPunct(At(code, i + 2), ";") &&
          !has_guard_annotation) {
        Report(file, *code[i], id(),
               "'" + code[i]->text + " " + code[i + 1]->text +
                   "' member but no ALICOCO_GUARDED_BY annotation in this "
                   "file",
               out);
      }
    }
  }
};

// ---- direct-stderr-log --------------------------------------------------

class DirectStderrLogRule : public Rule {
 public:
  std::string_view id() const override { return "direct-stderr-log"; }
  std::string_view rationale() const override {
    return "library code must log through common/logging.h (ALICOCO_LOG) "
           "so records carry timestamps/thread ids and honor the "
           "installed sink; raw stderr writes bypass all of that";
  }
  std::string_view example_bad() const override {
    return "std::cerr << \"rebuild failed: \" << status << \"\\n\";";
  }
  std::string_view example_good() const override {
    return "ALICOCO_LOG(ERROR) << \"rebuild failed: \" << status;";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    // Only library code under src/; the logging backend itself and the
    // CHECK-failure path are the two sanctioned raw-stderr writers.
    if (!StartsWith(file.path, "src/")) return;
    if (file.path == "src/common/logging.cc" ||
        file.path == "src/common/check.cc") {
      return;
    }
    auto code = CodeTokens(file);
    for (size_t i = 0; i < code.size(); ++i) {
      const Token* t = code[i];
      if (t->kind != TokenKind::kIdentifier) continue;
      if (t->text == "fprintf" && IsPunct(At(code, i + 1), "(") &&
          IsIdent(At(code, i + 2), "stderr")) {
        Report(file, *t, id(),
               "fprintf(stderr, ...) bypasses the Logger sink (use "
               "ALICOCO_LOG from common/logging.h)",
               out);
      }
      if (t->text == "cerr") {
        Report(file, *t, id(),
               "std::cerr bypasses the Logger sink (use ALICOCO_LOG from "
               "common/logging.h)",
               out);
      }
    }
  }
};

// ---- libm-tanh ----------------------------------------------------------

class LibmTanhRule : public Rule {
 public:
  std::string_view id() const override { return "libm-tanh"; }
  std::string_view rationale() const override {
    return "every tanh in library code goes through nn::kernels::Tanh, "
           "which computes fdlibm's tanhf in both kernel tiers; a libm call "
           "is several times slower per value and makes the built net "
           "depend on the host's libm";
  }
  std::string_view example_bad() const override {
    return "for (int k = 0; k < d; ++k) h[k] = std::tanh(z[k]);";
  }
  std::string_view example_good() const override {
    return "nn::kernels::Tanh(d, z, h);  // one call, eight lanes a step";
  }
  void Check(const FileContext& file,
             std::vector<Finding>* out) const override {
    if (!StartsWith(file.path, "src/")) return;
    auto code = CodeTokens(file);
    for (size_t i = 0; i < code.size(); ++i) {
      const Token* t = code[i];
      if (!IsIdent(t, "tanh") && !IsIdent(t, "tanhf")) continue;
      if (!IsPunct(At(code, i + 1), "(")) continue;
      const Token* prev = Prev(code, i);
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      Report(file, *t, id(),
             "'" + t->text + "()' calls libm (use nn::kernels::Tanh)", out);
    }
  }
};

}  // namespace

const std::vector<std::unique_ptr<Rule>>& RuleRegistry() {
  static const std::vector<std::unique_ptr<Rule>> kRules = [] {
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<RawNewDeleteRule>());
    rules.push_back(std::make_unique<BannedRandRule>());
    rules.push_back(std::make_unique<BareFopenRule>());
    rules.push_back(std::make_unique<UsingNamespaceHeaderRule>());
    rules.push_back(std::make_unique<IncludeGuardRule>());
    rules.push_back(std::make_unique<IncludeOrderRule>());
    rules.push_back(std::make_unique<BannedTimeRule>());
    rules.push_back(std::make_unique<UnorderedPersistIterRule>());
    rules.push_back(std::make_unique<LockDisciplineRule>());
    rules.push_back(std::make_unique<DirectStderrLogRule>());
    rules.push_back(std::make_unique<LibmTanhRule>());
    return rules;
  }();
  return kRules;
}

}  // namespace alicoco::lint
