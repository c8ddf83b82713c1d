#include "tools/lint/index.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/string_util.h"
#include "tools/lint/analyzer.h"
#include "tools/lint/cfg.h"
#include "tools/lint/lexer.h"
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

// ---------------------------------------------------------------------------
// Token-stream extraction

bool IsIdent(const Token* t) {
  return t != nullptr && t->kind == TokenKind::kIdentifier;
}

bool IsIdent(const Token* t, std::string_view text) {
  return IsIdent(t) && t->text == text;
}

bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

/// Keywords that look like calls (`if (...)`) but never are.
bool IsNonCallKeyword(const std::string& text) {
  static const char* kKeywords[] = {
      "if",     "for",    "while",   "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "static_assert", "throw", "new",
      "delete", "assert", "defined", "alignas", "noexcept"};
  return std::any_of(std::begin(kKeywords), std::end(kKeywords),
                     [&](const char* k) { return text == k; });
}

/// bool-returning APIs whose result is still an error signal.
bool CheckedBoolName(const std::string& name) {
  static const char* kPrefixes[] = {"Load", "Save", "Parse", "Serialize",
                                    "Deserialize"};
  return std::any_of(std::begin(kPrefixes), std::end(kPrefixes),
                     [&](const char* p) { return StartsWith(name, p); });
}

/// std containers that make a by-value member (and so its class) heavy.
bool HeavyStdContainer(const std::string& name) {
  static const char* kHeavy[] = {"string",        "vector",   "map",
                                 "set",           "unordered_map",
                                 "unordered_set", "multimap", "multiset",
                                 "deque",         "list"};
  return std::any_of(std::begin(kHeavy), std::end(kHeavy),
                     [&](const char* h) { return name == h; });
}

/// std types whose locals/by-value params own their payload — a view
/// into one dies with it. `std::array` is aggregated in because a view
/// into a dead array is just as dangling, heavy or not.
bool OwnerStdType(const std::string& name) {
  return HeavyStdContainer(name) || name == "array";
}

/// The normalized param types ParseOneParam produces for owners.
bool OwnerParamType(const std::string& type) {
  return StartsWith(type, "std::") && OwnerStdType(type.substr(5));
}

/// ALICOCO_GUARDED_BY and friends: all-caps project annotation macros
/// that take arguments at declaration position.
bool IsAnnotationMacro(const std::string& name) {
  if (!StartsWith(name, "ALICOCO_")) return false;
  for (char c : name) {
    if (c >= 'a' && c <= 'z') return false;
  }
  return true;
}

/// Words that appear in a parameter's type position but never name it.
bool IsTypeQualifierWord(const std::string& text) {
  static const char* kWords[] = {"const",   "volatile", "unsigned", "signed",
                                 "struct",  "class",    "typename", "long",
                                 "short",   "register", "inline"};
  return std::any_of(std::begin(kWords), std::end(kWords),
                     [&](const char* w) { return text == w; });
}

/// Walks the whole-file token stream once, tracking namespace / class /
/// function scopes, and fills the structural half of a FileSummary. The
/// grammar is the pragmatic subset this codebase uses; anything the
/// scanner cannot classify is skipped, never mis-filed — extraction
/// failures degrade to missing graph edges, not crashes or phantoms.
class Extractor {
 public:
  Extractor(const std::vector<Token>& tokens, FileSummary* out) : out_(out) {
    code_.reserve(tokens.size());
    for (const Token& t : tokens) {
      if (t.kind != TokenKind::kComment && t.kind != TokenKind::kDirective) {
        code_.push_back(&t);
      }
    }
  }

  void Run() {
    size_t i = 0;
    ParseOuter(&i, /*class_name=*/"", code_.size());
    std::sort(out_->heavy_classes.begin(), out_->heavy_classes.end());
    out_->heavy_classes.erase(std::unique(out_->heavy_classes.begin(),
                                          out_->heavy_classes.end()),
                              out_->heavy_classes.end());
  }

  /// The comment/directive-free token-pointer stream the extractor walked;
  /// FunctionBody token indices refer to this stream.
  const std::vector<const Token*>& code() const { return code_; }

  /// Every function definition found, in source order.
  std::vector<FunctionBody>& bodies() { return bodies_; }

 private:
  const Token* At(size_t i) const {
    return i < code_.size() ? code_[i] : nullptr;
  }

  /// Advances past a balanced (...) group; *i must be at '('.
  void SkipParens(size_t* i) const {
    int depth = 0;
    while (*i < code_.size()) {
      if (IsPunct(code_[*i], "(")) ++depth;
      if (IsPunct(code_[*i], ")") && --depth == 0) {
        ++*i;
        return;
      }
      ++*i;
    }
  }

  /// Advances past a balanced {...} group; *i must be at '{'.
  void SkipBraces(size_t* i) const {
    int depth = 0;
    while (*i < code_.size()) {
      if (IsPunct(code_[*i], "{")) ++depth;
      if (IsPunct(code_[*i], "}") && --depth == 0) {
        ++*i;
        return;
      }
      ++*i;
    }
  }

  /// Advances past a balanced <...> group; *i must be at '<'. Template
  /// argument lists only — the caller decides the context.
  void SkipAngles(size_t* i) const {
    int depth = 0;
    while (*i < code_.size()) {
      if (IsPunct(code_[*i], "<")) ++depth;
      if (IsPunct(code_[*i], ">") && --depth == 0) {
        ++*i;
        return;
      }
      // A ';' or '{' inside "angles" means this was a comparison after
      // all; bail rather than swallow the file.
      if (IsPunct(code_[*i], ";") || IsPunct(code_[*i], "{")) return;
      ++*i;
    }
  }

  /// Parses declarations at namespace or class scope until `end` (the
  /// index just past this scope's closing brace) or end of stream.
  void ParseOuter(size_t* i, const std::string& class_name, size_t end) {
    while (*i < end && *i < code_.size()) {
      const Token* t = code_[*i];
      if (IsPunct(t, ";") || IsPunct(t, "}")) {
        ++*i;
        continue;
      }
      if (IsIdent(t, "template")) {
        ++*i;
        if (IsPunct(At(*i), "<")) SkipAngles(i);
        continue;
      }
      if (IsIdent(t, "namespace") || (IsIdent(t, "extern") &&
                                      At(*i + 1) != nullptr &&
                                      At(*i + 1)->kind == TokenKind::kString)) {
        // namespace [a::b] { ... } | namespace x = ...; | extern "C" { ... }
        size_t j = *i + 1;
        while (j < code_.size() && !IsPunct(code_[j], "{") &&
               !IsPunct(code_[j], ";") && !IsPunct(code_[j], "=")) {
          ++j;
        }
        if (j < code_.size() && IsPunct(code_[j], "{")) {
          size_t close = j;
          SkipBraces(&close);  // close = just past '}'
          ++j;
          ParseOuter(&j, class_name, close - 1);
          *i = close;
        } else {
          while (j < code_.size() && !IsPunct(code_[j], ";")) ++j;
          *i = j + 1;
        }
        continue;
      }
      if (IsIdent(t, "class") || IsIdent(t, "struct") ||
          IsIdent(t, "union")) {
        ParseClass(i, class_name);
        continue;
      }
      if (IsIdent(t, "enum")) {
        // enum [class] Name [: type] { ... } ; — nothing to extract.
        size_t j = *i + 1;
        while (j < code_.size() && !IsPunct(code_[j], "{") &&
               !IsPunct(code_[j], ";")) {
          ++j;
        }
        if (j < code_.size() && IsPunct(code_[j], "{")) SkipBraces(&j);
        *i = j;
        continue;
      }
      if (IsIdent(t, "using") || IsIdent(t, "typedef") ||
          IsIdent(t, "friend") || IsIdent(t, "static_assert")) {
        while (*i < code_.size() && !IsPunct(code_[*i], ";")) ++*i;
        continue;
      }
      if (IsIdent(t) && IsPunct(At(*i + 1), ":") &&
          (t->text == "public" || t->text == "private" ||
           t->text == "protected")) {
        *i += 2;
        continue;
      }
      ParseDeclaration(i, class_name);
    }
    *i = std::min(end, code_.size());
  }

  /// *i is at `class`/`struct`/`union`. Extracts the class name (the last
  /// identifier before '{' / ':' / '<', skipping attribute-macro parens)
  /// and recurses into the body as a class scope.
  void ParseClass(size_t* i, const std::string& enclosing) {
    ++*i;
    std::string name;
    while (*i < code_.size()) {
      const Token* t = code_[*i];
      if (IsIdent(t)) {
        if (t->text != "final" && t->text != "alignas") name = t->text;
        ++*i;
        continue;
      }
      if (IsPunct(t, "(")) {  // attribute macro, e.g. ALICOCO_CAPABILITY(..)
        if (!name.empty()) name.clear();  // that ident was the macro
        SkipParens(i);
        continue;
      }
      if (IsPunct(t, "<")) {  // explicit specialization args
        SkipAngles(i);
        continue;
      }
      break;  // '{', ':', ';', or anything else
    }
    // Scan to the body brace through any base-clause.
    while (*i < code_.size() && !IsPunct(code_[*i], "{") &&
           !IsPunct(code_[*i], ";")) {
      if (IsPunct(code_[*i], "<")) {
        SkipAngles(i);
        continue;
      }
      ++*i;
    }
    if (*i >= code_.size() || IsPunct(code_[*i], ";")) {
      ++*i;  // forward declaration
      return;
    }
    size_t close = *i;
    SkipBraces(&close);
    ++*i;
    ParseOuter(i, name.empty() ? enclosing : name, close - 1);
    *i = close;
  }

  struct DeclShape {
    bool is_function = false;
    bool has_body = false;
    size_t name_index = 0;   ///< the identifier before the param '('
    size_t body_index = 0;   ///< index of the body '{' when has_body
    size_t end_index = 0;    ///< one past the declaration
    size_t params_begin = 0;  ///< index of the parameter-list '('
    size_t params_end = 0;    ///< one past the parameter-list ')'
    bool checked = false;    ///< [[nodiscard]] / Status / Result / bool API
    bool returns_view = false;  ///< return type mentions string_view/span
    bool returns_ref = false;   ///< return type is an lvalue reference
    std::string class_qualifier;  ///< Foo for `void Foo::Bar(...)`
    /// Locks named by ALICOCO_REQUIRES after the parameter list.
    std::vector<std::string> requires_locks;
  };

  /// Parses `ALICOCO_REQUIRES(a, b)` at `j` (the macro identifier) into
  /// one lock name per top-level comma piece (the piece's last
  /// identifier, matching how lock expressions are named elsewhere).
  /// Returns one past the closing ')'.
  size_t ParseRequires(size_t j, std::vector<std::string>* out) const {
    size_t close = j + 1;
    SkipParens(&close);  // close = one past ')'
    std::string last_ident;
    int nest = 0;
    for (size_t m = j + 2; m + 1 < close; ++m) {
      const Token* t = code_[m];
      if (IsPunct(t, "(")) ++nest;
      if (IsPunct(t, ")")) --nest;
      if (IsPunct(t, ",") && nest == 0) {
        if (!last_ident.empty()) out->push_back(last_ident);
        last_ident.clear();
        continue;
      }
      if (IsIdent(t)) last_ident = t->text;
    }
    if (!last_ident.empty()) out->push_back(last_ident);
    return close;
  }

  /// Classifies one declaration starting at *i (not a keyword the caller
  /// handles). Fills a DeclShape and leaves *i untouched.
  DeclShape ClassifyDeclaration(size_t start) const {
    DeclShape shape;
    size_t j = start;
    bool saw_params = false;
    bool in_init_list = false;
    bool saw_nodiscard = false;
    size_t params_end = 0;
    while (j < code_.size()) {
      const Token* t = code_[j];
      if (!saw_params) {
        if (IsPunct(t, "(") && j > start && IsIdent(code_[j - 1])) {
          // An annotation macro (`int x_ ALICOCO_GUARDED_BY(mu_) = 0;`)
          // would match the `ident (` function shape and swallow the
          // member declaration — skip its argument list instead.
          if (IsAnnotationMacro(code_[j - 1]->text)) {
            SkipParens(&j);
            continue;
          }
          shape.name_index = j - 1;
          saw_params = true;
          shape.params_begin = j;
          size_t k = j;
          SkipParens(&k);
          params_end = k;
          shape.params_end = k;
          j = k;
          continue;
        }
        if (IsIdent(t, "nodiscard")) saw_nodiscard = true;
        if (IsPunct(t, "<")) {
          size_t k = j;
          SkipAngles(&k);
          if (k == j) break;  // bailed: not template args
          j = k;
          continue;
        }
        if (IsPunct(t, ";")) {
          shape.end_index = j + 1;
          return shape;  // plain variable / field declaration
        }
        if (IsPunct(t, "=") || IsPunct(t, "{")) {
          // Initialized variable: skip to ';' balancing groups.
          while (j < code_.size() && !IsPunct(code_[j], ";")) {
            if (IsPunct(code_[j], "{")) {
              SkipBraces(&j);
              continue;
            }
            if (IsPunct(code_[j], "(")) {
              SkipParens(&j);
              continue;
            }
            ++j;
          }
          shape.end_index = j + 1;
          return shape;
        }
        ++j;
        continue;
      }
      // Past the parameter list: qualifiers, init list, body or ';'.
      if (IsPunct(t, ";")) {
        shape.is_function = true;
        shape.end_index = j + 1;
        break;
      }
      if ((IsIdent(t, "ALICOCO_REQUIRES") ||
           IsIdent(t, "ALICOCO_REQUIRES_SHARED")) &&
          IsPunct(At(j + 1), "(")) {
        j = ParseRequires(j, &shape.requires_locks);
        continue;
      }
      if (IsPunct(t, "(")) {  // noexcept(...) / annotation macro args
        SkipParens(&j);
        continue;
      }
      if (IsPunct(t, ":") ) {
        in_init_list = true;
        ++j;
        continue;
      }
      if (IsPunct(t, "{")) {
        const Token* prev = code_[j - 1];
        bool brace_init = in_init_list &&
                          (IsIdent(prev) || IsPunct(prev, ">"));
        if (brace_init) {
          SkipBraces(&j);
          continue;
        }
        shape.is_function = true;
        shape.has_body = true;
        shape.body_index = j;
        size_t k = j;
        SkipBraces(&k);
        shape.end_index = k;
        break;
      }
      if (IsPunct(t, "=")) {
        // = default; / = delete; / = 0;
        while (j < code_.size() && !IsPunct(code_[j], ";")) ++j;
        shape.is_function = true;
        shape.end_index = j + 1;
        break;
      }
      ++j;
    }
    if (shape.end_index == 0) shape.end_index = code_.size();
    if (!shape.is_function) return shape;

    // Name qualification: walk `A::B::Name` back from the name.
    size_t name = shape.name_index;
    if (name >= 2 && IsPunct(code_[name - 1], "::") &&
        IsIdent(code_[name - 2])) {
      shape.class_qualifier = code_[name - 2]->text;
    }

    // Checked-return detection: return-type tokens before the name chain,
    // plus a trailing return type after the parameter list.
    size_t chain_start = shape.name_index;
    while (chain_start >= 2 && IsPunct(code_[chain_start - 1], "::") &&
           IsIdent(code_[chain_start - 2])) {
      chain_start -= 2;
    }
    bool returns_checked_type = false;
    bool returns_bool = false;
    for (size_t k = start; k < chain_start; ++k) {
      if (IsIdent(code_[k], "Status") || IsIdent(code_[k], "Result")) {
        returns_checked_type = true;
      }
      if (IsIdent(code_[k], "bool")) returns_bool = true;
      if (IsIdent(code_[k], "string_view") || IsIdent(code_[k], "span")) {
        shape.returns_view = true;
      }
      // An lvalue reference return: a lone `&` (the lexer leaves `&&` as
      // two adjacent single-char puncts, so check both neighbors).
      if (IsPunct(code_[k], "&") &&
          !(k > start && IsPunct(code_[k - 1], "&")) &&
          !IsPunct(At(k + 1), "&")) {
        shape.returns_ref = true;
      }
    }
    for (size_t k = params_end; k + 1 < shape.end_index; ++k) {
      if (!IsPunct(code_[k], "->")) continue;
      if (IsIdent(At(k + 1), "Status") || IsIdent(At(k + 1), "Result")) {
        returns_checked_type = true;
      }
      if (IsIdent(At(k + 1), "bool")) returns_bool = true;
      break;
    }
    const std::string& fn_name = code_[shape.name_index]->text;
    shape.checked = saw_nodiscard || returns_checked_type ||
                    (returns_bool && CheckedBoolName(fn_name));
    return shape;
  }

  void ParseDeclaration(size_t* i, const std::string& class_name) {
    size_t start = *i;
    DeclShape shape = ClassifyDeclaration(start);
    if (!shape.is_function) {
      ExtractMemberInfo(start, shape.end_index, class_name);
      *i = shape.end_index;
      return;
    }
    DeclInfo decl;
    decl.line = code_[shape.name_index]->line;
    decl.name = code_[shape.name_index]->text;
    decl.class_name =
        shape.class_qualifier.empty() ? class_name : shape.class_qualifier;
    decl.checked = shape.checked;
    decl.has_body = shape.has_body;
    decl.params = ParseParams(shape.params_begin, shape.params_end);
    decl.requires_locks = shape.requires_locks;

    size_t body_end = shape.body_index;
    if (shape.has_body) {
      SkipBraces(&body_end);
      // `std::move(param)` anywhere in the body sanctions a by-value sink.
      for (size_t k = shape.body_index; k + 5 < body_end; ++k) {
        if (IsIdent(code_[k], "std") && IsPunct(code_[k + 1], "::") &&
            IsIdent(code_[k + 2], "move") && IsPunct(code_[k + 3], "(") &&
            IsIdent(code_[k + 4])) {
          for (ParamInfo& p : decl.params) {
            if (p.name == code_[k + 4]->text) p.moved = true;
          }
        }
      }
    }

    if (shape.has_body) {
      FunctionBody body;
      body.name = decl.name;
      body.class_name = decl.class_name;
      body.line = decl.line;
      body.decl_begin = start;
      body.body_begin = shape.body_index;
      body.body_end = body_end;
      body.returns_view = shape.returns_view;
      body.returns_ref = shape.returns_ref;
      bodies_.push_back(std::move(body));

      FunctionSummary fn;
      fn.name = decl.name;
      fn.class_name = decl.class_name;
      ParseFunctionBody(shape.body_index, body_end, &fn);
      AnalyzeReturns(shape, body_end, &decl, &fn);
      if (!fn.acquisitions.empty() || !fn.calls.empty() ||
          !fn.member_refs.empty() || !fn.view_returns.empty()) {
        out_->functions.push_back(std::move(fn));
      }
    }
    // Constructors/destructors are not value-returning APIs.
    if (decl.name != decl.class_name) out_->decls.push_back(std::move(decl));
    *i = shape.end_index;
  }

  /// Scans a function body's return statements. In view/ref-returning
  /// functions, marks parameters named in any return expression as
  /// escaping, and records `return Callee(args);` sites whose arguments
  /// are local owners or temporaries — the raw material the
  /// view-escapes-call pass composes with callee escape bits.
  void AnalyzeReturns(const DeclShape& shape, size_t body_end, DeclInfo* decl,
                      FunctionSummary* fn) {
    if (!shape.returns_view && !shape.returns_ref) return;

    // Owners whose lifetime ends with this function: local std owners and
    // by-value owner-typed parameters.
    std::set<std::string> owners;
    for (const ParamInfo& p : decl->params) {
      if (p.by_value && OwnerParamType(p.type)) owners.insert(p.name);
    }
    for (size_t k = shape.body_index; k + 2 < body_end; ++k) {
      if (!IsIdent(code_[k], "std") || !IsPunct(code_[k + 1], "::") ||
          !IsIdent(At(k + 2)) || !OwnerStdType(code_[k + 2]->text)) {
        continue;
      }
      size_t m = k + 3;
      if (m < body_end && IsPunct(code_[m], "<")) SkipAngles(&m);
      if (m < body_end && IsIdent(At(m))) owners.insert(code_[m]->text);
    }

    for (size_t k = shape.body_index; k < body_end; ++k) {
      if (!IsIdent(code_[k], "return")) continue;
      size_t stmt_end = k + 1;
      while (stmt_end < body_end && !IsPunct(code_[stmt_end], ";")) {
        ++stmt_end;
      }
      for (size_t m = k + 1; m < stmt_end; ++m) {
        if (!IsIdent(code_[m])) continue;
        const Token* prev = code_[m - 1];
        if (IsPunct(prev, ".") || IsPunct(prev, "->") ||
            IsPunct(prev, "::")) {
          continue;  // member/qualified name, not the parameter itself
        }
        for (ParamInfo& p : decl->params) {
          if (p.name == code_[m]->text) p.escapes_return = true;
        }
      }
      ParseViewReturnCall(k + 1, stmt_end, owners, fn);
      k = stmt_end;
    }
  }

  /// Matches `return [ns::]*Callee(args);` exactly — the call must be the
  /// whole return expression — and records it when an argument is a local
  /// owner or a recognizably-temporary std::string.
  void ParseViewReturnCall(size_t expr_begin, size_t stmt_end,
                           const std::set<std::string>& owners,
                           FunctionSummary* fn) const {
    size_t m = expr_begin;
    std::string callee;
    bool std_qualified = false;
    while (m < stmt_end && (IsIdent(code_[m]) || IsPunct(code_[m], "::"))) {
      if (IsIdent(code_[m])) {
        if (code_[m]->text == "std") std_qualified = true;
        callee = code_[m]->text;
      }
      ++m;
    }
    if (callee.empty() || std_qualified || m >= stmt_end ||
        !IsPunct(code_[m], "(") || IsNonCallKeyword(callee)) {
      return;
    }
    size_t close = m;
    SkipParens(&close);  // one past ')'
    if (close != stmt_end) return;  // call result is further transformed

    ViewReturnCall site;
    site.line = code_[expr_begin]->line;
    site.callee = callee;
    bool interesting = false;
    size_t piece_start = m + 1;
    int nest = 0;
    for (size_t j = m + 1; j < close; ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[")) ++nest;
      if (IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]")) --nest;
      const bool at_end = j + 1 == close;
      if (!(IsPunct(t, ",") && nest == 0) && !at_end) continue;
      const size_t piece_end = at_end ? close - 1 : j;
      if (piece_end > piece_start) {
        ViewArg arg;
        if (piece_end == piece_start + 1 && IsIdent(code_[piece_start]) &&
            owners.count(code_[piece_start]->text) != 0) {
          arg.owner = code_[piece_start]->text;
        } else {
          for (size_t p = piece_start; p + 1 < piece_end; ++p) {
            const bool string_ctor =
                IsIdent(code_[p], "std") && IsPunct(At(p + 1), "::") &&
                p + 3 < piece_end && IsIdent(At(p + 2), "string") &&
                IsPunct(At(p + 3), "(");
            const bool to_string =
                IsIdent(code_[p], "to_string") && IsPunct(At(p + 1), "(");
            const bool str_call = IsPunct(code_[p], ".") &&
                                  IsIdent(At(p + 1), "str") &&
                                  IsPunct(At(p + 2), "(");
            if (string_ctor || to_string || str_call) arg.is_temp = true;
          }
        }
        if (!arg.owner.empty() || arg.is_temp) interesting = true;
        site.args.push_back(std::move(arg));
      }
      piece_start = j + 1;
    }
    if (interesting) fn->view_returns.push_back(std::move(site));
  }

  /// Parses the parameter list between `begin` (the '(') and `end` (one
  /// past the ')') into ParamInfo records. Only the facts the
  /// param-by-value-heavy pass needs survive: a normalized type name, the
  /// parameter name, and whether it is passed by value.
  std::vector<ParamInfo> ParseParams(size_t begin, size_t end) const {
    std::vector<ParamInfo> params;
    if (begin + 1 >= end || end > code_.size()) return params;
    size_t piece_start = begin + 1;
    int nest = 0;
    for (size_t j = begin + 1; j < end; ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[") ||
          IsPunct(t, "<")) {
        ++nest;
      } else if (IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]") ||
                 IsPunct(t, ">")) {
        --nest;
      }
      const bool at_end = j + 1 == end;
      if ((IsPunct(t, ",") && nest == 0) || at_end) {
        const size_t piece_end = at_end ? j : j;
        if (piece_end > piece_start) {
          params.push_back(ParseOneParam(piece_start, piece_end));
        }
        piece_start = j + 1;
      }
    }
    return params;
  }

  ParamInfo ParseOneParam(size_t begin, size_t end) const {
    ParamInfo param;
    param.by_value = true;
    std::vector<std::string> idents;
    int angle = 0;
    for (size_t j = begin; j < end; ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "<")) {
        ++angle;
        continue;
      }
      if (IsPunct(t, ">")) {
        if (angle > 0) --angle;
        continue;
      }
      if (angle > 0) continue;  // template arguments don't shape the pass
      if (IsPunct(t, "=")) break;  // default argument
      if (IsPunct(t, "&") || IsPunct(t, "*") || IsPunct(t, ".")) {
        // References, pointers, and `...` packs are not by-value copies.
        param.by_value = false;
        continue;
      }
      if (IsPunct(t, "(") || IsPunct(t, "[")) {
        // Function pointers / array declarators: out of scope, and never
        // a silent heavy copy.
        param.by_value = false;
        break;
      }
      if (!IsIdent(t) || IsTypeQualifierWord(t->text)) continue;
      if (t->text == "std" && IsPunct(At(j + 1), "::") && IsIdent(At(j + 2))) {
        idents.push_back("std::" + code_[j + 2]->text);
        j += 2;
        continue;
      }
      idents.push_back(t->text);
    }
    if (idents.size() >= 2) {
      param.type = idents[idents.size() - 2];
      param.name = idents.back();
    } else if (idents.size() == 1) {
      param.type = idents.front();  // unnamed parameter
    }
    return param;
  }

  /// Non-function declaration in a class body: mutex members, either
  /// declared as `Mutex name_;` or implied by ALICOCO_GUARDED_BY(name_).
  void ExtractMemberInfo(size_t start, size_t end,
                         const std::string& class_name) {
    if (class_name.empty()) return;
    for (size_t k = start; k + 1 < end && k + 1 < code_.size(); ++k) {
      if (IsIdent(code_[k], "Mutex") && IsIdent(code_[k + 1])) {
        out_->mutexes.push_back(MutexMemberDecl{class_name,
                                                code_[k + 1]->text});
      }
      // A by-value std::string / container member makes the class itself
      // expensive to copy — the param-by-value-heavy pass treats such
      // classes like std containers.
      if (IsIdent(code_[k], "std") && IsPunct(At(k + 1), "::") &&
          IsIdent(At(k + 2)) && HeavyStdContainer(code_[k + 2]->text)) {
        size_t m = k + 3;
        if (m < end && IsPunct(code_[m], "<")) {
          SkipAngles(&m);
        }
        // Pointer/reference members don't carry the payload.
        if (m < end && IsIdent(At(m))) {
          out_->heavy_classes.push_back(class_name);
        }
      }
      if ((IsIdent(code_[k], "ALICOCO_GUARDED_BY") ||
           IsIdent(code_[k], "ALICOCO_PT_GUARDED_BY")) &&
          IsPunct(At(k + 1), "(")) {
        size_t close = k + 1;
        SkipParens(&close);
        std::string last_ident;
        for (size_t m = k + 2; m + 1 < close; ++m) {
          if (IsIdent(code_[m])) last_ident = code_[m]->text;
        }
        if (!last_ident.empty()) {
          out_->mutexes.push_back(MutexMemberDecl{class_name, last_ident});
          // The annotated member is the identifier right before the macro:
          // `std::queue<Task> tasks_ ALICOCO_GUARDED_BY(mu_)`.
          if (k >= 1 && IsIdent(code_[k - 1])) {
            out_->guarded_members.push_back(GuardedMemberDecl{
                class_name, code_[k - 1]->text, last_ident});
          }
        }
      }
    }
    DedupMutexes();
  }

  void DedupMutexes() {
    auto& v = out_->mutexes;
    std::sort(v.begin(), v.end(), [](const MutexMemberDecl& a,
                                     const MutexMemberDecl& b) {
      return std::tie(a.class_name, a.member) <
             std::tie(b.class_name, b.member);
    });
    v.erase(std::unique(v.begin(), v.end(),
                        [](const MutexMemberDecl& a, const MutexMemberDecl& b) {
                          return a.class_name == b.class_name &&
                                 a.member == b.member;
                        }),
            v.end());
    auto& g = out_->guarded_members;
    std::sort(g.begin(), g.end(), [](const GuardedMemberDecl& a,
                                     const GuardedMemberDecl& b) {
      return std::tie(a.class_name, a.member, a.mutex) <
             std::tie(b.class_name, b.member, b.mutex);
    });
    g.erase(std::unique(g.begin(), g.end(),
                        [](const GuardedMemberDecl& a,
                           const GuardedMemberDecl& b) {
                          return a.class_name == b.class_name &&
                                 a.member == b.member && a.mutex == b.mutex;
                        }),
            g.end());
  }

  /// If a bare statement-expression call chain starts at `i`, returns the
  /// index of the final called identifier; otherwise npos. Handles
  /// `Foo(x);`, `a.b(x);`, `a->b()->c();`, `ns::Foo(x);`.
  size_t BareCallCallee(size_t i) const {
    constexpr size_t kNone = static_cast<size_t>(-1);
    size_t j = i;
    size_t callee = kNone;
    bool expect_name = true;
    while (j < code_.size()) {
      const Token* t = code_[j];
      if (expect_name) {
        if (!IsIdent(t) || IsNonCallKeyword(t->text)) return kNone;
        if (IsPunct(At(j + 1), "(")) {
          callee = j;
          ++j;
          SkipParens(&j);
          // After the call: ';' ends the statement, '.'/'->' chains on.
          if (IsPunct(At(j), ";")) return callee;
          if (IsPunct(At(j), ".") || IsPunct(At(j), "->")) {
            ++j;
            expect_name = true;
            continue;
          }
          return kNone;  // result is used (assigned, compared, ...)
        }
        ++j;
        expect_name = false;
        continue;
      }
      if (IsPunct(t, "::") || IsPunct(t, ".") || IsPunct(t, "->")) {
        ++j;
        expect_name = true;
        continue;
      }
      return kNone;
    }
    return kNone;
  }

  void ParseFunctionBody(size_t body_start, size_t body_end,
                         FunctionSummary* fn) {
    int depth = 0;
    bool stmt_start = false;
    // (brace depth at acquisition, index into fn->acquisitions)
    std::vector<std::pair<int, int>> held;
    std::set<std::pair<std::string, std::string>> seen_calls;
    std::set<std::pair<std::string, std::string>> seen_refs;

    auto held_indices = [&held] {
      std::vector<int> out;
      out.reserve(held.size());
      for (const auto& [unused, idx] : held) out.push_back(idx);
      return out;
    };
    auto held_key_of = [&held_indices] {
      std::string key;
      for (int idx : held_indices()) key += std::to_string(idx) + ",";
      return key;
    };

    for (size_t j = body_start; j < body_end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "{")) {
        ++depth;
        stmt_start = true;
        continue;
      }
      if (IsPunct(t, "}")) {
        --depth;
        while (!held.empty() && held.back().first > depth) held.pop_back();
        stmt_start = true;
        continue;
      }
      if (IsPunct(t, ";")) {
        stmt_start = true;
        continue;
      }
      if (IsIdent(t, "MutexLock") && IsIdent(At(j + 1)) &&
          IsPunct(At(j + 2), "(")) {
        Acquisition acq;
        acq.line = t->line;
        size_t close = j + 2;
        SkipParens(&close);  // close = one past ')'
        std::string expr;
        std::string last_ident;
        size_t arg_count = 0;
        for (size_t m = j + 3; m + 1 < close; ++m) {
          expr += code_[m]->text;
          ++arg_count;
          if (IsIdent(code_[m])) last_ident = code_[m]->text;
        }
        if (last_ident.empty()) {
          j = close - 1;
          stmt_start = false;
          continue;
        }
        acq.name = last_ident;
        acq.is_plain_member = arg_count == 1;
        acq.expr = expr;
        acq.held = held_indices();
        fn->acquisitions.push_back(acq);
        held.emplace_back(depth, static_cast<int>(fn->acquisitions.size()) - 1);
        j = close - 1;
        stmt_start = false;
        continue;
      }
      if (stmt_start && IsIdent(t) && !IsNonCallKeyword(t->text)) {
        size_t callee = BareCallCallee(j);
        if (callee != static_cast<size_t>(-1)) {
          out_->call_statements.push_back(
              CallStatement{code_[callee]->line, code_[callee]->text});
        }
      }
      if (IsIdent(t) && IsPunct(At(j + 1), "(") &&
          !IsNonCallKeyword(t->text) && !IsIdent(code_[j - 1]) &&
          t->text != "MutexLock") {
        CallInfo call;
        call.line = t->line;
        call.callee = t->text;
        const Token* prev = code_[j - 1];
        if (IsPunct(prev, "::")) {
          call.kind = CallKind::kQualified;
          if (j >= 2 && IsIdent(code_[j - 2])) {
            call.qualifier = code_[j - 2]->text;
          }
        } else if (IsPunct(prev, ".") || IsPunct(prev, "->")) {
          call.kind = j >= 2 && IsIdent(code_[j - 2], "this")
                          ? CallKind::kThis
                          : CallKind::kMember;
        }
        // Last identifier of the first argument, for the condition-wait
        // idiom check.
        int nest = 1;
        for (size_t m = j + 2; m < code_.size(); ++m) {
          const Token* a = code_[m];
          if (IsPunct(a, "(")) ++nest;
          if (IsPunct(a, ")") && --nest == 0) break;
          if (IsPunct(a, ",") && nest == 1) break;
          if (IsIdent(a)) call.arg0 = a->text;
        }
        std::string held_key = call.qualifier + "#" +
                               std::to_string(static_cast<int>(call.kind)) +
                               held_key_of();
        if (seen_calls.emplace(t->text, held_key).second) {
          call.held = held_indices();
          fn->calls.push_back(std::move(call));
        }
      }
      // Member-field reads/writes: trailing-underscore identifiers that
      // are not calls, not qualified, and not reached through a receiver
      // other than `this`. Deduped per (name, held-set) like calls.
      if (IsIdent(t) && t->text.size() > 1 && t->text.back() == '_' &&
          !IsPunct(At(j + 1), "(")) {
        const Token* prev = code_[j - 1];
        bool own_member = !IsPunct(prev, "::");
        if ((IsPunct(prev, ".") || IsPunct(prev, "->")) &&
            !(j >= 2 && IsIdent(code_[j - 2], "this"))) {
          own_member = false;
        }
        if (own_member && seen_refs.emplace(t->text, held_key_of()).second) {
          MemberRef ref;
          ref.line = t->line;
          ref.name = t->text;
          ref.held = held_indices();
          fn->member_refs.push_back(std::move(ref));
        }
      }
      stmt_start = false;
    }
  }

  std::vector<const Token*> code_;
  std::vector<FunctionBody> bodies_;
  FileSummary* out_;
};

}  // namespace

FileSummary SummarizeSource(const std::string& path,
                            const std::string& contents) {
  FileSummary summary;
  summary.path = path;

  std::vector<Token> tokens = Lex(contents);

  FileContext file;
  file.path = path;
  file.is_header = EndsWith(path, ".h") || EndsWith(path, ".hpp");
  file.tokens = std::move(tokens);
  for (const auto& rule : RuleRegistry()) {
    rule->Check(file, &summary.findings);
  }
  summary.allowances = InlineAllowances(file.tokens);

  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::kDirective || !StartsWith(t.text, "#include")) {
      continue;
    }
    size_t open = t.text.find_first_of("<\"");
    if (open == std::string::npos) continue;
    char close = t.text[open] == '<' ? '>' : '"';
    size_t end = t.text.find(close, open + 1);
    if (end == std::string::npos) continue;
    summary.includes.push_back(IncludeSite{
        t.line, t.text[open] == '<',
        t.text.substr(open + 1, end - open - 1)});
  }

  Extractor extractor(file.tokens, &summary);
  extractor.Run();

  // `// lint:hot` markers opt a function into the hot-loop-alloc check
  // regardless of its path; a marker on the signature line (or up to two
  // lines above it) or anywhere inside the body counts.
  std::vector<int> hot_lines;
  for (const Token& t : file.tokens) {
    if (t.kind == TokenKind::kComment &&
        t.text.find("lint:hot") != std::string::npos) {
      hot_lines.push_back(t.line);
    }
  }
  const std::vector<const Token*>& code = extractor.code();
  for (FunctionBody& fn : extractor.bodies()) {
    const int last_line =
        fn.body_end > 0 && fn.body_end <= code.size()
            ? code[fn.body_end - 1]->line
            : fn.line;
    for (int hot : hot_lines) {
      if (hot >= fn.line - 2 && hot <= last_line) fn.hot = true;
    }
  }

  // The intraprocedural dataflow checks run here — at summarize time — so
  // their findings live in the summary exactly like per-file rule findings.
  std::vector<Finding> flow =
      RunFunctionDataflowChecks(path, code, extractor.bodies());
  summary.findings.insert(summary.findings.end(), flow.begin(), flow.end());

  // The taint tier runs here too: builtin-source findings are appended to
  // summary.findings, while Read*/Parse*-guarded hits and call-site taint
  // facts land in taint_pending / taint_calls for the cross-file pass.
  RunTaintChecks(path, code, extractor.bodies(), &summary);

  std::sort(summary.findings.begin(), summary.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  return summary;
}

const FileSummary* ProjectIndex::Find(const std::string& path) const {
  auto it = std::lower_bound(
      files_.begin(), files_.end(), path,
      [](const FileSummary& f, const std::string& p) { return f.path < p; });
  return it != files_.end() && it->path == path ? &*it : nullptr;
}

Result<ProjectIndex> ProjectIndex::Build(
    const std::string& root, const std::vector<std::string>& subdirs) {
  static const char* kExtensions[] = {".h", ".hpp", ".cc", ".cpp"};

  std::vector<std::string> paths;
  for (const std::string& sub : subdirs) {
    fs::path dir = fs::path(root) / sub;
    if (!fs::is_directory(dir)) {
      return Status::NotFound("project subdir is not a directory: " + sub);
    }
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();
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

  ProjectIndex index;
  for (const std::string& rel : paths) {
    ALICOCO_ASSIGN_OR_RETURN(
        std::string contents,
        ReadFile((fs::path(root) / rel).generic_string()));
    index.files_.push_back(SummarizeSource(rel, contents));
    index.stats_.bytes_lexed += contents.size();
  }
  index.stats_.files = index.files_.size();
  return index;
}

}  // namespace alicoco::lint
