// The taint + interval tier: tainted-alloc-size, unchecked-mul-overflow,
// and tainted-index.
//
// Intraprocedurally (CheckTaintFlow, run at summarize time like the other
// dataflow checks) a forward may-analysis tracks integer locals whose
// value derives from program input. Lattice values carry the taint's
// provenance, the variable's declared width, a coarse upper bound, and
// the set of enclosing parameters the value flows from. Sources are
// builtin input reads (fread/recv out-params, std::sto*/atoi/strto*) and
// Read*/Parse*-named project calls — the repo's reader naming convention.
// argv/getenv/JSON strings need no separate modelling: an INTEGER derived
// from one necessarily flows through the sto*/ato*/strto*/Parse* family,
// which taints the result regardless of what argument it parsed.
// Sinks are allocation/IO lengths (resize/reserve/assign, new[], malloc,
// memcpy lengths, fread counts, container construction), container
// subscripts, and loop bounds. Sanitizers: comparing a value against a
// compile-time-constant-shaped cap (literal, kConstant/ALL_CAPS name,
// sizeof) bounds it and kills live taint; `% const` and `& literal` mask
// it; a widening cast to a 64-bit type discharges the narrow-multiply
// overflow rule (and only that — a wide copy of untrusted input is still
// untrusted for allocation purposes).
//
// Conservatism (the cfg.h doctrine — missed findings are acceptable,
// false ones are not): a cap kills taint on BOTH branches of the guard
// (the failing branch returns in the idiom this enforces); `f(&x)` by an
// unknown callee re-establishes x as clean; lambdas are skipped whole;
// anything the evaluator cannot shape is width-64 and untainted. Findings
// whose only taint evidence is a Read*/Parse*-named call are not emitted
// directly: they become PendingTaintFinding records, and RunTaintPass
// emits them only if the named callee's definition really produces
// untrusted data (taint_out / returns_tainted in its summary) — so a
// reader that caps internally silences all of its callers at once.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/dataflow.h"
#include "tools/lint/passes/interproc.h"
#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

bool IsIdentTok(const Token* t) {
  return t != nullptr && t->kind == TokenKind::kIdentifier;
}

bool IsIdent(const Token* t, std::string_view text) {
  return IsIdentTok(t) && t->text == text;
}

bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

bool IsNumber(const Token* t) {
  return t != nullptr && t->kind == TokenKind::kNumber;
}

/// Declared width in bits of an integer type name, or 0 for non-integer
/// types (doubles, strings, pointers-to-struct — not tracked).
int IntWidth(const std::string& type) {
  if (type == "uint8_t" || type == "int8_t") return 8;
  if (type == "uint16_t" || type == "int16_t" || type == "short") return 16;
  if (type == "uint32_t" || type == "int32_t" || type == "int" ||
      type == "unsigned") {
    return 32;
  }
  if (type == "uint64_t" || type == "int64_t" || type == "size_t" ||
      type == "ptrdiff_t" || type == "ssize_t" || type == "long" ||
      type == "uintptr_t") {
    return 64;
  }
  return 0;
}

/// Value-returning builtin sources: name -> width of the parsed integer.
/// 0 means "not a source".
int ValueSourceWidth(const std::string& name) {
  if (name == "stoi" || name == "atoi") return 32;
  if (name == "stol" || name == "stoll" || name == "stoul" ||
      name == "stoull" || name == "strtol" || name == "strtoul" ||
      name == "strtoull" || name == "atol" || name == "atoll") {
    return 64;
  }
  return 0;
}

/// Read*/Parse*-named project calls — this repo's reader convention. The
/// trailing-width suffix (ReadU32) narrows the produced value.
bool IsReaderName(const std::string& name) {
  return (name.size() > 4 && name.compare(0, 4, "Read") == 0 &&
          std::isupper(static_cast<unsigned char>(name[4]))) ||
         (name.size() > 5 && name.compare(0, 5, "Parse") == 0 &&
          std::isupper(static_cast<unsigned char>(name[5])));
}

int ReaderWidth(const std::string& name) {
  size_t end = name.size();
  size_t start = end;
  while (start > 0 && std::isdigit(static_cast<unsigned char>(name[start - 1]))) {
    --start;
  }
  if (start == end) return 64;
  const std::string digits = name.substr(start);
  if (digits == "8") return 8;
  if (digits == "16") return 16;
  if (digits == "32") return 32;
  return 64;
}

/// A token that names a compile-time constant for cap purposes: a number
/// literal, a kCamelCase / ALL_CAPS identifier, or sizeof.
bool IsConstantShaped(const Token* t) {
  if (IsNumber(t)) return true;
  if (!IsIdentTok(t)) return false;
  const std::string& s = t->text;
  if (s == "sizeof") return true;
  if (s.size() >= 2 && s[0] == 'k' &&
      std::isupper(static_cast<unsigned char>(s[1]))) {
    return true;
  }
  bool caps = s.size() >= 2;
  for (char c : s) {
    if (!std::isupper(static_cast<unsigned char>(c)) && c != '_' &&
        !std::isdigit(static_cast<unsigned char>(c))) {
      caps = false;
    }
  }
  return caps;
}

/// Parses an integer literal's value (decimal/hex/octal, digit
/// separators, u/l suffixes). Returns 0 for floats and parse failures —
/// callers treat 0 as "value unknown".
uint64_t LiteralValue(const Token* t) {
  if (!IsNumber(t)) return 0;
  std::string s;
  for (char c : t->text) {
    if (c == '\'') continue;
    if (c == '.' || c == 'e' || c == 'E' || c == 'p' || c == 'P') {
      if (!(s.size() >= 2 && (s[1] == 'x' || s[1] == 'X'))) return 0;
    }
    s.push_back(c);
  }
  while (!s.empty()) {
    char c = s.back();
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L') {
      s.pop_back();
    } else {
      break;
    }
  }
  try {
    return std::stoull(s, nullptr, 0);
  } catch (...) {
    return 0;
  }
}

/// One tracked value. `origin` is the LIVE taint (killed by caps);
/// `ever_*` keep the first provenance sticky for the overflow rule —
/// capping an allocation size after a narrow multiply does not undo the
/// overflow that already happened.
struct TaintVal {
  TaintOrigin origin = TaintOrigin::kNone;
  std::string source;  ///< live provenance label ("fread", "ReadU32", ...)
  int source_line = 0;
  int guard_param = -1;  ///< kCalleeOut: which out-param of `source`
  TaintOrigin ever_origin = TaintOrigin::kNone;
  std::string ever_source;
  int ever_line = 0;
  int ever_guard_param = -1;
  int width = 64;
  bool bounded = false;
  uint64_t bound = 0;  ///< literal cap value; 0 = cap of unknown size
  uint32_t params = 0;  ///< enclosing params the value flows from, uncapped
  int mul_line = 0;  ///< line of an unwidened narrow multiply feeding this
  std::string mul_detail;

  bool operator==(const TaintVal& o) const {
    return origin == o.origin && source == o.source &&
           source_line == o.source_line && guard_param == o.guard_param &&
           ever_origin == o.ever_origin && ever_source == o.ever_source &&
           ever_line == o.ever_line &&
           ever_guard_param == o.ever_guard_param && width == o.width &&
           bounded == o.bounded && bound == o.bound && params == o.params &&
           mul_line == o.mul_line && mul_detail == o.mul_detail;
  }

  bool Interesting() const {
    return origin != TaintOrigin::kNone || ever_origin != TaintOrigin::kNone ||
           params != 0 || bounded || mul_line != 0;
  }
};

void TakeTaint(TaintVal* out, const TaintVal& in) {
  if (in.origin != TaintOrigin::kNone &&
      (out->origin == TaintOrigin::kNone || in.source_line < out->source_line)) {
    out->origin = in.origin;
    out->source = in.source;
    out->source_line = in.source_line;
    out->guard_param = in.guard_param;
  }
  if (in.ever_origin != TaintOrigin::kNone &&
      (out->ever_origin == TaintOrigin::kNone ||
       in.ever_line < out->ever_line)) {
    out->ever_origin = in.ever_origin;
    out->ever_source = in.ever_source;
    out->ever_line = in.ever_line;
    out->ever_guard_param = in.ever_guard_param;
  }
}

/// May-join: taint wins over clean (earliest source line for stable
/// provenance), bounds survive only when both sides are bounded.
TaintVal JoinVal(const TaintVal& a, const TaintVal& b) {
  TaintVal out = a;
  TakeTaint(&out, b);
  out.width = std::max(a.width, b.width);
  out.bounded = a.bounded && b.bounded;
  out.bound = (a.bound != 0 && b.bound != 0) ? std::max(a.bound, b.bound) : 0;
  out.params = a.params | b.params;
  if (out.mul_line == 0 ||
      (b.mul_line != 0 && b.mul_line < out.mul_line)) {
    if (b.mul_line != 0) {
      out.mul_line = b.mul_line;
      out.mul_detail = b.mul_detail;
    }
  }
  return out;
}

using TaintState = std::map<std::string, TaintVal>;

TaintState JoinState(const TaintState& a, const TaintState& b) {
  TaintState out = a;
  for (const auto& [var, val] : b) {
    auto it = out.find(var);
    if (it == out.end()) {
      out[var] = val;
    } else {
      it->second = JoinVal(it->second, val);
    }
  }
  return out;
}

bool IsContainerTypeName(const std::string& name) {
  return name == "vector" || name == "string" || name == "deque" ||
         name == "basic_string" || name == "valarray";
}

const char* kRuleAlloc = "tainted-alloc-size";
const char* kRuleIndex = "tainted-index";
const char* kRuleMul = "unchecked-mul-overflow";

class Analysis {
 public:
  Analysis(const std::string& path, const std::vector<const Token*>& code,
           const FunctionBody& fn, FileSummary* summary,
           std::vector<Finding>* findings)
      : path_(path), code_(code), fn_(fn), summary_(summary),
        findings_(findings) {
    for (DeclInfo& d : summary->decls) {
      if (d.has_body && d.line == fn.line && d.name == fn.name &&
          d.class_name == fn.class_name) {
        def_ = &d;
        break;
      }
    }
    if (def_ == nullptr) return;
    for (size_t i = 0; i < def_->params.size() && i < 32; ++i) {
      const ParamInfo& p = def_->params[i];
      const int width = IntWidth(p.type);
      if (width == 0 || p.name.empty()) continue;
      widths_[p.name] = width;
      if (p.by_value) {
        TaintVal v;
        v.width = width;
        v.params = 1u << i;
        boundary_[p.name] = v;
      } else {
        out_params_[p.name] = i;
      }
    }
  }

  bool usable() const { return def_ != nullptr; }
  const TaintState& boundary() const { return boundary_; }

  const Token* At(size_t i) const {
    return i < code_.size() ? code_[i] : nullptr;
  }

  size_t MatchBalanced(size_t i, std::string_view open, std::string_view close,
                       size_t stop) const {
    int depth = 0;
    for (; i < stop; ++i) {
      if (IsPunct(code_[i], open)) ++depth;
      if (IsPunct(code_[i], close) && --depth == 0) return i + 1;
    }
    return stop;
  }

  /// Splits the top-level comma pieces of the argument list opened at
  /// `open` (the '(' index). Returns (begin, end) token ranges.
  std::vector<std::pair<size_t, size_t>> ArgPieces(size_t open,
                                                   size_t stop) const {
    std::vector<std::pair<size_t, size_t>> pieces;
    size_t close = MatchBalanced(open, "(", ")", stop);
    if (close <= open + 2) return pieces;  // no arguments
    size_t piece_start = open + 1;
    int nest = 0;
    for (size_t j = open + 1; j + 1 < close; ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[")) ++nest;
      if (IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]")) --nest;
      if (IsPunct(t, ",") && nest == 0) {
        pieces.emplace_back(piece_start, j);
        piece_start = j + 1;
      }
    }
    pieces.emplace_back(piece_start, close - 1);
    return pieces;
  }

  /// Evaluates the lattice value of an expression token range against the
  /// current state: the join of every tracked contribution, plus source
  /// calls, widening casts, narrow-multiply events, and masking
  /// sanitizers. `rep` (when non-null) receives a representative variable
  /// name for messages.
  TaintVal EvalRange(size_t begin, size_t end, const TaintState& state,
                     std::string* rep = nullptr) const {
    TaintVal out;
    bool any = false;
    bool masked = false;
    for (size_t j = begin; j < end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      if (IsNumber(t)) {
        TaintVal lit;
        lit.bounded = true;
        lit.bound = LiteralValue(t);
        lit.width = lit.bound > 0x7FFFFFFFull ? 64 : 32;
        out = any ? JoinVal(out, lit) : lit;
        any = true;
        continue;
      }
      // `% const` and `& literal` bound whatever they touch.
      if ((IsPunct(t, "%") || IsPunct(t, "&")) && j > begin &&
          (IsIdentTok(code_[j - 1]) || IsNumber(code_[j - 1]) ||
           IsPunct(code_[j - 1], ")")) &&
          IsConstantShaped(At(j + 1))) {
        masked = true;
        continue;
      }
      if (IsPunct(t, "*") && IsBinaryMulAt(j, begin)) {
        TaintVal l = OperandBefore(j, begin, state);
        TaintVal r = OperandAfter(j, end, state);
        EvalMul(l, r, code_[j]->line, &out);
        any = true;
        continue;
      }
      if (!IsIdentTok(t)) continue;
      const Token* prev = j > 0 ? code_[j - 1] : nullptr;
      // `std::min(x, kCap)` bounds its result.
      if (t->text == "min" && IsPunct(At(j + 1), "(")) {
        masked = true;
        continue;
      }
      if (t->text == "static_cast" && IsPunct(At(j + 1), "<")) {
        size_t gt = j + 1;
        int w = CastWidth(&gt, end);
        if (IsPunct(At(gt), "(")) {
          size_t close = MatchBalanced(gt, "(", ")", end);
          TaintVal inner = EvalRange(gt + 1, close - 1, state, rep);
          if (w != 0) inner.width = w;
          out = any ? JoinVal(out, inner) : inner;
          any = true;
          j = close - 1;
          continue;
        }
      }
      if (IsPunct(prev, ".") || IsPunct(prev, "->") || IsPunct(prev, "::")) {
        continue;  // member/qualified name; `std::stoul` handled below
      }
      // Value-returning sources: std::stoX(...) and ReaderName(...).
      if (IsPunct(At(j + 1), "(") ||
          (t->text == "std" && IsPunct(At(j + 1), "::"))) {
        std::string callee = t->text;
        size_t call_open = j + 1;
        if (t->text == "std" && IsPunct(At(j + 1), "::") &&
            IsIdentTok(At(j + 2)) && IsPunct(At(j + 3), "(")) {
          callee = At(j + 2)->text;
          call_open = j + 3;
          j += 2;
        }
        if (!IsPunct(At(call_open), "(")) continue;
        const int vw = ValueSourceWidth(callee);
        if (vw != 0) {
          TaintVal src;
          src.origin = TaintOrigin::kBuiltin;
          src.source = "std::" + callee;
          if (callee.compare(0, 3, "ato") == 0 ||
              callee.compare(0, 4, "strt") == 0) {
            src.source = callee;
          }
          src.source_line = t->line;
          src.ever_origin = src.origin;
          src.ever_source = src.source;
          src.ever_line = src.source_line;
          src.width = vw;
          out = any ? JoinVal(out, src) : src;
          any = true;
          if (rep != nullptr && rep->empty()) *rep = callee;
          j = MatchBalanced(call_open, "(", ")", end) - 1;
          continue;
        }
        if (IsReaderName(callee)) {
          TaintVal src;
          src.origin = TaintOrigin::kCalleeReturn;
          src.source = callee;
          src.source_line = t->line;
          src.guard_param = -1;
          src.ever_origin = src.origin;
          src.ever_source = src.source;
          src.ever_line = src.source_line;
          src.ever_guard_param = -1;
          src.width = ReaderWidth(callee);
          out = any ? JoinVal(out, src) : src;
          any = true;
          if (rep != nullptr && rep->empty()) *rep = callee;
          j = MatchBalanced(call_open, "(", ")", end) - 1;
          continue;
        }
        // Any other call's value is untracked; skip its arguments so a
        // tainted argument is not mistaken for a tainted result.
        j = MatchBalanced(call_open, "(", ")", end) - 1;
        continue;
      }
      auto it = state.find(t->text);
      if (it == state.end()) continue;
      if (rep != nullptr && rep->empty() && it->second.Interesting()) {
        *rep = t->text;
      }
      out = any ? JoinVal(out, it->second) : it->second;
      any = true;
    }
    if (!any) {
      TaintVal clean;
      clean.bounded = false;
      out = clean;
    }
    if (masked) {
      out.origin = TaintOrigin::kNone;
      out.params = 0;
      out.bounded = true;
      out.bound = 0;
    }
    return out;
  }

 private:
  /// `*` is a binary multiply when preceded by a value-ending token; a
  /// leading or prefix `*` is a dereference.
  bool IsBinaryMulAt(size_t j, size_t begin) const {
    if (j <= begin) return false;
    const Token* prev = code_[j - 1];
    return IsIdentTok(prev) || IsNumber(prev) || IsPunct(prev, ")") ||
           IsPunct(prev, "]");
  }

  /// Parses `<T>` starting at the '<' index; advances *i one past '>'.
  int CastWidth(size_t* i, size_t stop) const {
    size_t close = *i;
    int depth = 0;
    int width = 0;
    for (; close < stop; ++close) {
      const Token* t = code_[close];
      if (IsPunct(t, "<")) ++depth;
      if (IsPunct(t, ">") && --depth == 0) break;
      if (IsIdentTok(t)) {
        const int w = IntWidth(t->text);
        if (w != 0) width = w;
      }
    }
    *i = close < stop ? close + 1 : stop;
    return width;
  }

  /// The operand ending just before the `*` at j: a single identifier or
  /// literal, or a parenthesized static_cast. Anything else evaluates as
  /// an unknown width-64 value, which silences the overflow rule.
  TaintVal OperandBefore(size_t j, size_t begin, const TaintState& state) const {
    const Token* prev = j > 0 ? code_[j - 1] : nullptr;
    if (IsNumber(prev)) return EvalRange(j - 1, j, state);
    if (IsIdentTok(prev)) {
      const Token* prev2 = j >= 2 ? code_[j - 2] : nullptr;
      if (IsPunct(prev2, ".") || IsPunct(prev2, "->") ||
          IsPunct(prev2, "::")) {
        return TaintVal{};
      }
      auto it = state.find(prev->text);
      if (it != state.end()) return it->second;
      TaintVal v;
      auto w = widths_.find(prev->text);
      if (w != widths_.end()) v.width = w->second;
      return v;
    }
    if (IsPunct(prev, ")")) {
      // Walk back to the matching '(' and re-evaluate — this is how
      // `static_cast<size_t>(rows) * cols` discharges the left operand.
      int depth = 0;
      size_t k = j - 1;
      while (k > begin) {
        if (IsPunct(code_[k], ")")) ++depth;
        if (IsPunct(code_[k], "(") && --depth == 0) break;
        --k;
      }
      size_t cast = k;
      while (cast > begin && !IsIdent(code_[cast], "static_cast")) --cast;
      if (IsIdent(code_[cast], "static_cast")) {
        return EvalRange(cast, j, state);
      }
      return EvalRange(k + 1, j - 1, state);
    }
    return TaintVal{};
  }

  TaintVal OperandAfter(size_t j, size_t end, const TaintState& state) const {
    const Token* next = At(j + 1);
    if (IsNumber(next)) return EvalRange(j + 1, j + 2, state);
    if (IsIdentTok(next) && next->text == "static_cast") {
      size_t stop = j + 1;
      int depth = 0;
      bool opened = false;
      for (; stop < end; ++stop) {
        if (IsPunct(code_[stop], "(")) {
          ++depth;
          opened = true;
        }
        if (IsPunct(code_[stop], ")") && --depth == 0 && opened) {
          ++stop;
          break;
        }
      }
      return EvalRange(j + 1, stop, state);
    }
    if (IsIdentTok(next) && !IsPunct(At(j + 2), "(") &&
        !IsPunct(At(j + 2), "::") && !IsPunct(At(j + 2), ".") &&
        !IsPunct(At(j + 2), "->")) {
      auto it = state.find(next->text);
      if (it != state.end()) return it->second;
      TaintVal v;
      auto w = widths_.find(next->text);
      if (w != widths_.end()) v.width = w->second;
      return v;
    }
    return TaintVal{};
  }

  /// The overflow rule: both operands at most 32 bits wide, at least one
  /// ever-untrusted, and the product not provably below 2^32.
  void EvalMul(const TaintVal& l, const TaintVal& r, int line,
               TaintVal* out) const {
    TaintVal product = JoinVal(l, r);
    product.width = std::max(l.width, r.width);
    const bool untrusted = l.ever_origin != TaintOrigin::kNone ||
                           r.ever_origin != TaintOrigin::kNone;
    bool provably_small = false;
    if (l.bounded && r.bounded && l.bound != 0 && r.bound != 0 &&
        l.bound <= 0xFFFFFFFFull / r.bound) {
      provably_small = true;
      product.bound = l.bound * r.bound;
    }
    if (l.width <= 32 && r.width <= 32 && untrusted && !provably_small &&
        product.mul_line == 0) {
      const TaintVal& bad = l.ever_origin != TaintOrigin::kNone ? l : r;
      product.mul_line = line;
      product.mul_detail = bad.ever_source;
      // The multiply inherits the sticky provenance so the sink that the
      // product reaches can decide direct-vs-pending emission.
      if (product.ever_origin == TaintOrigin::kNone) {
        product.ever_origin = bad.ever_origin;
        product.ever_source = bad.ever_source;
        product.ever_line = bad.ever_line;
        product.ever_guard_param = bad.ever_guard_param;
      }
    }
    *out = (*out == TaintVal{}) ? product : JoinVal(*out, product);
  }

 public:
  /// One statement's transfer function; `emit` selects whether findings,
  /// pending records, call args, and parameter sink facts are produced
  /// (the emit replay) or only the state is advanced (the solve).
  TaintState TransferStmt(const Stmt& stmt, bool loop_cond, TaintState state,
                          bool emit) {
    // Skip lambdas whole, exactly like use-after-move: their captures
    // rebind names and their bodies run elsewhere.
    for (size_t j = stmt.begin; j < stmt.end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "[")) {
        size_t close = MatchBalanced(j, "[", "]", stmt.end);
        const Token* after = close < stmt.end ? code_[close] : nullptr;
        if (IsPunct(after, "(") || IsPunct(after, "{")) {
          size_t k = close;
          if (IsPunct(code_[k], "(")) k = MatchBalanced(k, "(", ")", stmt.end);
          while (k < stmt.end && !IsPunct(code_[k], "{")) ++k;
          if (k < stmt.end) k = MatchBalanced(k, "{", "}", stmt.end);
          // Treat the lambda as an opaque blob by analyzing around it:
          // simplest safe handling is to stop at the first lambda.
          Stmt head = stmt;
          head.end = j;
          return TransferStmt(head, loop_cond, std::move(state), emit);
        }
      }
    }

    ScanSources(stmt, &state, emit);
    ScanComparisons(stmt, &state);
    state = ApplyAssignment(stmt, std::move(state), emit);
    ScanSinks(stmt, loop_cond, state, emit);
    if (emit) RecordCallArgs(stmt, state);
    ScanReturn(stmt, state, emit);
    return state;
  }

 private:
  /// Out-param sources: fread/recv into `&x` or a pointer parameter, and
  /// Read*/Parse* calls with `&x` arguments. An `&x` passed to any OTHER
  /// callee re-establishes x as clean (unknown out-param, like
  /// use-after-move's revalidation rule).
  void ScanSources(const Stmt& stmt, TaintState* state, bool emit) {
    for (size_t j = stmt.begin; j < stmt.end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      if (!IsIdentTok(t) || !IsPunct(At(j + 1), "(")) continue;
      const Token* prev = j > 0 ? code_[j - 1] : nullptr;
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      const std::string& callee = t->text;
      auto pieces = ArgPieces(j + 1, stmt.end);
      const bool is_fread = callee == "fread";
      const bool is_recv = callee == "recv" || callee == "recvfrom";
      const bool is_reader = IsReaderName(callee);
      for (size_t a = 0; a < pieces.size(); ++a) {
        auto [pb, pe] = pieces[a];
        std::string var;
        bool addressed = false;
        if (pe == pb + 2 && IsPunct(code_[pb], "&") &&
            IsIdentTok(code_[pb + 1])) {
          var = code_[pb + 1]->text;
          addressed = true;
        } else if (pe == pb + 1 && IsIdentTok(code_[pb])) {
          var = code_[pb]->text;
        }
        if (var.empty()) continue;
        const bool source_arg = (is_fread && a == 0) || (is_recv && a == 1);
        if (source_arg) {
          if (addressed) {
            TaintVal v;
            v.origin = TaintOrigin::kBuiltin;
            v.source = is_fread ? "fread" : "recv";
            v.source_line = t->line;
            v.ever_origin = v.origin;
            v.ever_source = v.source;
            v.ever_line = v.source_line;
            auto w = widths_.find(var);
            v.width = w != widths_.end() ? w->second : 64;
            (*state)[var] = v;
          } else if (emit && out_params_.count(var) != 0) {
            // `fread(v, sizeof(*v), 1, f)` through a pointer parameter:
            // the caller's pointee is now untrusted input.
            def_->params[out_params_[var]].taint_out = true;
          }
          continue;
        }
        if (!addressed) continue;
        if (is_reader) {
          TaintVal v;
          v.origin = TaintOrigin::kCalleeOut;
          v.source = callee;
          v.source_line = t->line;
          v.guard_param = static_cast<int>(a);
          v.ever_origin = v.origin;
          v.ever_source = v.source;
          v.ever_line = v.source_line;
          v.ever_guard_param = v.guard_param;
          auto w = widths_.find(var);
          v.width = w != widths_.end() ? w->second : ReaderWidth(callee);
          (*state)[var] = v;
        } else {
          state->erase(var);
        }
      }
      // Do NOT skip the argument tokens: calls nested inside macro
      // wrappers (`ALICOCO_RETURN_NOT_OK(ReadU32(f, &n))`) and `if`
      // conditions are sources too.
    }
  }

  /// Cap sanitizer: a tracked variable compared against a constant-shaped
  /// operand is bounded from here on, and its live taint dies. This is
  /// deliberately branch-insensitive — in the enforced idiom the failing
  /// branch returns Corruption immediately, and the imprecision on that
  /// branch errs toward missed findings, never false ones.
  void ScanComparisons(const Stmt& stmt, TaintState* state) {
    for (size_t j = stmt.begin; j + 1 < stmt.end && j + 1 < code_.size();
         ++j) {
      const Token* t = code_[j];
      if (!IsPunct(t, "<") && !IsPunct(t, ">")) continue;
      size_t rhs = j + 1;
      if (IsPunct(code_[rhs], "=")) ++rhs;  // <= / >=
      if (rhs >= stmt.end) continue;
      const Token* left = j > stmt.begin ? code_[j - 1] : nullptr;
      const Token* right = code_[rhs];
      // A container-extent call (`table.size()`) bounds the compared
      // value just like a compile-time cap — the bound is dynamic, but
      // an index checked against it cannot run off the container.
      auto is_extent_call = [&](size_t tok) {
        return IsIdentTok(code_[tok]) &&
               (IsPunct(At(tok + 1), ".") || IsPunct(At(tok + 1), "->")) &&
               IsIdentTok(At(tok + 2)) &&
               (At(tok + 2)->text == "size" || At(tok + 2)->text == "length") &&
               IsPunct(At(tok + 3), "(");
      };
      auto cap = [&](const Token* var_tok, const Token* cap_tok,
                     bool extent) {
        if (!IsIdentTok(var_tok)) return;
        if (!extent && !IsConstantShaped(cap_tok)) return;
        auto it = state->find(var_tok->text);
        if (it == state->end()) return;
        it->second.origin = TaintOrigin::kNone;
        it->second.params = 0;
        it->second.bounded = true;
        it->second.bound = extent ? 0 : LiteralValue(cap_tok);
      };
      cap(left, right, is_extent_call(rhs));
      cap(right, left, j >= stmt.begin + 5 && IsPunct(code_[j - 1], ")") &&
                           is_extent_call(j - 5));
    }
  }

  /// Handles `T x = expr`, `x = expr`, `x op= expr`, and `*p = expr`.
  TaintState ApplyAssignment(const Stmt& stmt, TaintState state, bool emit) {
    // Find the first top-level plain `=`.
    int nest = 0;
    size_t eq = stmt.end;
    std::string compound;
    for (size_t j = stmt.begin; j < stmt.end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[")) ++nest;
      if (IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]")) --nest;
      if (nest != 0 || !IsPunct(t, "=")) continue;
      const Token* prev = j > stmt.begin ? code_[j - 1] : nullptr;
      const Token* next = At(j + 1);
      if (IsPunct(next, "=")) {
        ++j;
        continue;  // ==
      }
      if (IsPunct(prev, "=") || IsPunct(prev, "!") || IsPunct(prev, "<") ||
          IsPunct(prev, ">")) {
        continue;  // ==, !=, <=, >= (lexer splits them)
      }
      if (IsPunct(prev, "+") || IsPunct(prev, "-") || IsPunct(prev, "*") ||
          IsPunct(prev, "/") || IsPunct(prev, "%") || IsPunct(prev, "&") ||
          IsPunct(prev, "|") || IsPunct(prev, "^")) {
        compound = prev->text;
        eq = j;
        break;
      }
      eq = j;
      break;
    }
    if (eq >= stmt.end) {
      // Declarations without initializers still record widths:
      // `uint32_t count;` then `ReadU32(f, &count)` must know the width.
      RecordDeclWidth(stmt.begin, stmt.end);
      return state;
    }

    const size_t lhs_end = compound.empty() ? eq : eq - 1;
    const Token* lhs_last = lhs_end > stmt.begin ? code_[lhs_end - 1] : nullptr;
    if (!IsIdentTok(lhs_last)) return state;
    const std::string var = lhs_last->text;

    std::string rep;
    TaintVal val = EvalRange(eq + 1, stmt.end, state, &rep);

    // `*p = tainted` through an out-parameter: record taint-out. Only a
    // live builtin source counts — chained conventional taint would need
    // its own guard, and the direct shape is what the real readers use.
    if (lhs_end == stmt.begin + 2 && IsPunct(code_[stmt.begin], "*") &&
        out_params_.count(var) != 0) {
      if (emit && val.origin == TaintOrigin::kBuiltin) {
        def_->params[out_params_[var]].taint_out = true;
      }
      return state;
    }

    // Subscripted / member LHS (`v[i] = ...`, `s.field = ...`): the write
    // target is untracked, but the RHS scan above still fed sink checks.
    const Token* before = lhs_end >= stmt.begin + 2 ? code_[lhs_end - 2] : nullptr;
    if (IsPunct(before, ".") || IsPunct(before, "->") ||
        IsPunct(before, "::") || IsPunct(before, "]")) {
      return state;
    }

    // Declaration prefix gives the declared width; truncation to a
    // narrower type keeps the taint but narrows the lattice width.
    int declared = 0;
    for (size_t j = stmt.begin; j + 1 < lhs_end; ++j) {
      if (IsIdentTok(code_[j])) {
        const int w = IntWidth(code_[j]->text);
        if (w != 0) declared = w;
      }
    }
    if (declared != 0) {
      widths_[var] = declared;
      val.width = declared;
    } else {
      auto w = widths_.find(var);
      if (w != widths_.end()) val.width = w->second;
    }

    if (!compound.empty()) {
      auto it = state.find(var);
      if (it != state.end()) {
        val = JoinVal(it->second, val);
      }
    }
    if (val.Interesting()) {
      state[var] = val;
    } else {
      state.erase(var);
    }
    return state;
  }

  void RecordDeclWidth(size_t begin, size_t end) {
    int width = 0;
    for (size_t j = begin; j < end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      if (IsIdentTok(t)) {
        const int w = IntWidth(t->text);
        if (w != 0) {
          width = w;
        } else if (width != 0 && (IsPunct(At(j + 1), ";") ||
                                  IsPunct(At(j + 1), ",") ||
                                  IsPunct(At(j + 1), ")"))) {
          widths_[t->text] = width;
        }
      }
    }
  }

  /// All sink shapes. Parameter-derived hits (no live taint) become
  /// taint_sink_mask facts on the definition instead of findings.
  void ScanSinks(const Stmt& stmt, bool loop_cond, const TaintState& state,
                 bool emit) {
    for (size_t j = stmt.begin; j < stmt.end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      // `.resize(n)` / `.reserve(n)` / `.assign(n, fill)`.
      if ((IsPunct(t, ".") || IsPunct(t, "->")) && IsIdentTok(At(j + 1)) &&
          IsPunct(At(j + 2), "(")) {
        const std::string& m = At(j + 1)->text;
        if (m == "resize" || m == "reserve" || m == "assign") {
          auto pieces = ArgPieces(j + 2, stmt.end);
          if (!pieces.empty()) {
            SinkHit(kTaintSinkAlloc, m + "()", code_[j]->line,
                    pieces[0].first, pieces[0].second, state, emit);
          }
        }
        continue;
      }
      // `new T[n]`.
      if (IsIdent(t, "new")) {
        size_t k = j + 1;
        while (k < stmt.end && (IsIdentTok(code_[k]) ||
                                IsPunct(code_[k], "::") ||
                                IsPunct(code_[k], "<") ||
                                IsPunct(code_[k], ">"))) {
          ++k;
        }
        if (k < stmt.end && IsPunct(code_[k], "[")) {
          size_t close = MatchBalanced(k, "[", "]", stmt.end);
          SinkHit(kTaintSinkAlloc, "new[]", code_[k]->line, k + 1, close - 1,
                  state, emit);
          j = close - 1;
        }
        continue;
      }
      if (!IsIdentTok(t)) continue;
      const Token* prev = j > 0 ? code_[j - 1] : nullptr;
      // Subscript on a tracked-or-any container: `v[expr]`.
      if (IsPunct(At(j + 1), "[") && !IsPunct(prev, "new") &&
          !IsIdent(prev, "new")) {
        size_t close = MatchBalanced(j + 1, "[", "]", stmt.end);
        SinkHit(kTaintSinkIndex, "container index", code_[j]->line, j + 2,
                close - 1, state, emit);
        continue;
      }
      if (!IsPunct(At(j + 1), "(")) continue;
      if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;
      const std::string& callee = t->text;
      auto pieces = ArgPieces(j + 1, stmt.end);
      auto arg_sink = [&](size_t idx, const char* what) {
        if (idx < pieces.size()) {
          SinkHit(kTaintSinkAlloc, what, t->line, pieces[idx].first,
                  pieces[idx].second, state, emit);
        }
      };
      if (callee == "malloc") arg_sink(0, "malloc()");
      if (callee == "calloc") {
        arg_sink(0, "calloc()");
        arg_sink(1, "calloc()");
      }
      if (callee == "memcpy" || callee == "memmove" || callee == "memset") {
        arg_sink(2, (callee + "() length").c_str());
      }
      if (callee == "fread" || callee == "fwrite") {
        arg_sink(2, (callee + "() count").c_str());
      }
      // Container construction: `std::vector<T> v(n)` — the identifier
      // before the name is the container type (or its closing '>').
      if (IsPunct(prev, ">") ||
          (IsIdentTok(prev) && IsContainerTypeName(prev->text))) {
        bool container = IsIdentTok(prev) && IsContainerTypeName(prev->text);
        if (IsPunct(prev, ">")) {
          size_t back = j - 1;
          int depth = 0;
          while (back > stmt.begin) {
            if (IsPunct(code_[back], ">")) ++depth;
            if (IsPunct(code_[back], "<") && --depth == 0) break;
            --back;
          }
          if (back > stmt.begin && IsIdentTok(code_[back - 1]) &&
              IsContainerTypeName(code_[back - 1]->text)) {
            container = true;
          }
        }
        if (container && !pieces.empty()) {
          SinkHit(kTaintSinkAlloc, "container construction", t->line,
                  pieces[0].first, pieces[0].second, state, emit);
        }
      }
    }

    // Loop bounds: `i < n` / `i <= n` / `i != n` in a loop-header
    // condition with n untrusted.
    if (loop_cond) {
      for (size_t j = stmt.begin; j + 1 < stmt.end && j + 1 < code_.size();
           ++j) {
        const Token* t = code_[j];
        const bool lt = IsPunct(t, "<") && !IsPunct(At(j + 1), "<");
        const bool ne = IsPunct(t, "!") && IsPunct(At(j + 1), "=");
        if (!lt && !ne) continue;
        size_t rhs = j + 1;
        if (IsPunct(code_[rhs], "=")) ++rhs;
        // The bound expression runs to the next top-level && / || / ;.
        size_t end = rhs;
        int nest = 0;
        while (end < stmt.end) {
          const Token* e = code_[end];
          if (IsPunct(e, "(") || IsPunct(e, "[")) ++nest;
          if (IsPunct(e, ")") || IsPunct(e, "]")) --nest;
          if (nest == 0 && (IsPunct(e, "&") || IsPunct(e, "|")) &&
              At(end + 1) != nullptr && e->text == At(end + 1)->text) {
            break;
          }
          if (nest < 0) break;
          ++end;
        }
        SinkHit(kTaintSinkIndex, "loop bound", code_[j]->line, rhs, end,
                state, emit);
      }
    }
  }

  /// `return expr;` with a live-tainted expression marks the definition
  /// returns_tainted, so `x = ThisFn(...)` taints x in callers.
  void ScanReturn(const Stmt& stmt, const TaintState& state, bool emit) {
    if (stmt.kind != StmtKind::kReturn || !emit) return;
    if (stmt.begin >= code_.size() || !IsIdent(code_[stmt.begin], "return")) {
      return;
    }
    TaintVal val = EvalRange(stmt.begin + 1, stmt.end, state);
    if (val.origin == TaintOrigin::kBuiltin) def_->returns_tainted = true;
  }

  /// Records TaintCallArg facts: single-identifier arguments with live
  /// taint or a parameter pedigree, passed to a resolvable project callee.
  void RecordCallArgs(const Stmt& stmt, const TaintState& state) {
    for (size_t j = stmt.begin; j < stmt.end && j < code_.size(); ++j) {
      const Token* t = code_[j];
      if (!IsIdentTok(t) || !IsPunct(At(j + 1), "(")) continue;
      const std::string& callee = t->text;
      // Skip keywords, macros (ALL_CAPS), builtins the sink scan owns,
      // and std-qualified names.
      if (callee == "if" || callee == "while" || callee == "for" ||
          callee == "switch" || callee == "return" || callee == "sizeof" ||
          callee == "static_cast") {
        continue;
      }
      bool all_caps = true;
      for (char c : callee) {
        if (std::islower(static_cast<unsigned char>(c))) all_caps = false;
      }
      if (all_caps) continue;
      const Token* prev = j > 0 ? code_[j - 1] : nullptr;
      CallKind kind = CallKind::kPlain;
      std::string qualifier;
      if (IsPunct(prev, "::")) {
        if (j < 2 || !IsIdentTok(code_[j - 2])) continue;
        if (code_[j - 2]->text == "std") continue;
        kind = CallKind::kQualified;
        qualifier = code_[j - 2]->text;
      } else if (IsPunct(prev, ".") || IsPunct(prev, "->")) {
        if (j >= 2 && IsIdent(code_[j - 2], "this")) {
          kind = CallKind::kThis;
        } else {
          kind = CallKind::kMember;
        }
      }
      auto pieces = ArgPieces(j + 1, stmt.end);
      for (size_t a = 0; a < pieces.size(); ++a) {
        auto [pb, pe] = pieces[a];
        if (pe != pb + 1 || !IsIdentTok(code_[pb])) continue;
        auto it = state.find(code_[pb]->text);
        if (it == state.end()) continue;
        const TaintVal& v = it->second;
        if (v.origin == TaintOrigin::kNone && v.params == 0) continue;
        TaintCallArg rec;
        rec.line = t->line;
        rec.caller = fn_.name;
        rec.caller_class = fn_.class_name;
        rec.callee = callee;
        rec.kind = kind;
        rec.qualifier = qualifier;
        rec.arg_index = static_cast<int>(a);
        rec.var = code_[pb]->text;
        rec.origin = v.origin;
        rec.source = v.source;
        rec.source_line = v.source_line;
        rec.guard_param = v.guard_param;
        rec.param_mask = v.params;
        if (seen_call_args_
                .insert(callee + "#" + std::to_string(rec.line) + "#" +
                        std::to_string(a) + "#" + rec.var)
                .second) {
          summary_->taint_calls.push_back(std::move(rec));
        }
      }
    }
  }

  void SinkHit(uint8_t kind, const std::string& what, int line, size_t begin,
               size_t end, const TaintState& state, bool emit) {
    std::string rep;
    const TaintVal val = EvalRange(begin, end, state, &rep);
    if (rep.empty() && begin < end && begin < code_.size()) {
      rep = code_[begin]->text;
    }
    if (!emit) return;

    if (val.mul_line != 0) {
      const std::string msg =
          "32-bit product on line " + std::to_string(val.mul_line) +
          " involves untrusted input (" + val.ever_source + ") and feeds " +
          what + " without widening; cast an operand to size_t or uint64_t "
          "before multiplying";
      EmitOrPend(kRuleMul, val.mul_line, msg, val.ever_origin,
                 val.ever_source, val.ever_guard_param);
    }
    if (val.origin != TaintOrigin::kNone) {
      const char* rule = kind == kTaintSinkAlloc ? kRuleAlloc : kRuleIndex;
      const std::string use = kind == kTaintSinkAlloc
                                  ? "reaches " + what
                                  : "is used as a " + what;
      const std::string msg =
          "'" + rep + "' carries untrusted input (" + val.source + ", line " +
          std::to_string(val.source_line) + ") and " + use +
          " without a dominating range check; compare it against a "
          "compile-time cap first";
      EmitOrPend(rule, line, msg, val.origin, val.source, val.guard_param);
    }
    if (val.origin == TaintOrigin::kNone && val.params != 0) {
      for (uint32_t i = 0; i < 32; ++i) {
        if ((val.params & (1u << i)) == 0) continue;
        if (i < def_->params.size()) {
          def_->params[i].taint_sink_mask |= kind;
        }
      }
    }
  }

  void EmitOrPend(const std::string& rule, int line, const std::string& msg,
                  TaintOrigin origin, const std::string& guard,
                  int guard_param) {
    if (!reported_.insert(rule + "#" + std::to_string(line)).second) return;
    if (origin == TaintOrigin::kBuiltin) {
      findings_->push_back(Finding{path_, line, rule, msg});
      return;
    }
    PendingTaintFinding pending;
    pending.line = line;
    pending.rule = rule;
    pending.message = msg;
    pending.guard_callee = guard;
    pending.guard_param = origin == TaintOrigin::kCalleeOut ? guard_param : -1;
    summary_->taint_pending.push_back(std::move(pending));
  }

  const std::string& path_;
  const std::vector<const Token*>& code_;
  const FunctionBody& fn_;
  FileSummary* summary_;
  std::vector<Finding>* findings_;
  DeclInfo* def_ = nullptr;
  TaintState boundary_;
  std::map<std::string, int> widths_;
  std::map<std::string, size_t> out_params_;
  std::set<std::string> reported_;
  std::set<std::string> seen_call_args_;
};

/// Loop-header blocks: a back edge points at them (a predecessor created
/// later), or — for do-while latches — they jump back to an earlier body.
std::vector<bool> LoopHeaderBlocks(const Cfg& cfg) {
  std::vector<bool> header(cfg.blocks.size(), false);
  for (const BasicBlock& b : cfg.blocks) {
    for (int p : b.preds) {
      if (p > b.id) header[b.id] = true;
    }
    for (int s : b.succs) {
      if (s < b.id && s != cfg.exit) header[b.id] = true;
    }
  }
  return header;
}

}  // namespace

void CheckTaintFlow(const std::string& path,
                    const std::vector<const Token*>& code,
                    const FunctionBody& fn, const Cfg& cfg,
                    FileSummary* summary, std::vector<Finding>* out) {
  if (cfg.fell_back) return;
  Analysis analysis(path, code, fn, summary, out);
  if (!analysis.usable()) return;
  const std::vector<bool> headers = LoopHeaderBlocks(cfg);
  auto result = SolveForward<TaintState>(
      cfg, analysis.boundary(), JoinState,
      [&](const BasicBlock& block, TaintState state) {
        for (const Stmt& s : block.stmts) {
          const bool loop_cond =
              s.kind == StmtKind::kCond && headers[block.id];
          state = analysis.TransferStmt(s, loop_cond, std::move(state),
                                        /*emit=*/false);
        }
        return state;
      });
  for (const BasicBlock& block : cfg.blocks) {
    if (!result.reached[block.id]) continue;
    TaintState state = result.in[block.id];
    for (const Stmt& s : block.stmts) {
      const bool loop_cond = s.kind == StmtKind::kCond && headers[block.id];
      state = analysis.TransferStmt(s, loop_cond, std::move(state),
                                    /*emit=*/true);
    }
  }
}

void RunTaintChecks(const std::string& path,
                    const std::vector<const Token*>& code,
                    const std::vector<FunctionBody>& functions,
                    FileSummary* summary) {
  std::vector<Finding> findings;
  for (const FunctionBody& fn : functions) {
    const Cfg cfg = BuildCfg(code, fn.body_begin, fn.body_end);
    CheckTaintFlow(path, code, fn, cfg, summary, &findings);
  }
  summary->findings.insert(summary->findings.end(), findings.begin(),
                           findings.end());
}

// ---------------------------------------------------------------------------
// Cross-file composition.

namespace {

struct DefSet {
  std::vector<const DeclInfo*> defs;
  /// AND over every definition's per-parameter sink mask — unanimity, so
  /// overloads with different meanings cannot false-positive. Grows
  /// during the bottom-up fixpoint.
  std::vector<uint8_t> sink_mask;
};

std::string KeyOfDecl(const DeclInfo& d) {
  return d.class_name.empty() ? d.name : d.class_name + "::" + d.name;
}

}  // namespace

std::vector<Finding> RunTaintPass(const ProjectIndex& index,
                                  TaintStats* stats) {
  std::map<std::string, DefSet> by_key;
  std::map<std::string, std::vector<const DeclInfo*>> by_name;
  std::map<std::string, std::set<std::string>> method_classes;
  for (const FileSummary& f : index.files()) {
    for (const DeclInfo& d : f.decls) {
      if (!d.has_body) continue;
      by_key[KeyOfDecl(d)].defs.push_back(&d);
      by_name[d.name].push_back(&d);
      if (!d.class_name.empty()) method_classes[d.name].insert(d.class_name);
    }
  }
  for (auto& [key, set] : by_key) {
    size_t nparams = set.defs.front()->params.size();
    for (const DeclInfo* d : set.defs) {
      nparams = std::min(nparams, d->params.size());
    }
    set.sink_mask.assign(nparams, 0);
    for (size_t i = 0; i < nparams; ++i) {
      uint8_t mask = 0xFF;
      for (const DeclInfo* d : set.defs) mask &= d->params[i].taint_sink_mask;
      set.sink_mask[i] = mask;
    }
  }

  // A Read*/Parse*-named guard with no project definition is believed
  // (the naming convention is the contract for externs); a resolved guard
  // must taint in EVERY definition before its callers' findings fire.
  auto guard_confirms = [&](const std::string& callee, int guard_param) {
    auto it = by_name.find(callee);
    if (it == by_name.end() || it->second.empty()) return true;
    for (const DeclInfo* d : it->second) {
      if (guard_param < 0) {
        if (!d->returns_tainted) return false;
      } else {
        if (static_cast<size_t>(guard_param) >= d->params.size() ||
            !d->params[guard_param].taint_out) {
          return false;
        }
      }
    }
    return true;
  };

  // Candidate definition keys for a call, mirroring CallResolver's
  // per-shape rules over declarations instead of function summaries.
  auto resolve_keys = [&](const TaintCallArg& c) {
    std::vector<std::string> keys;
    auto add = [&](const std::string& key) {
      if (by_key.count(key) != 0) keys.push_back(key);
    };
    switch (c.kind) {
      case CallKind::kPlain:
        if (!c.caller_class.empty()) add(c.caller_class + "::" + c.callee);
        add(c.callee);
        break;
      case CallKind::kThis:
        add(c.caller_class + "::" + c.callee);
        break;
      case CallKind::kQualified:
        add(c.qualifier + "::" + c.callee);
        add(c.callee);
        break;
      case CallKind::kMember: {
        if (StdLikeMethodName(c.callee)) break;
        auto mc = method_classes.find(c.callee);
        if (mc != method_classes.end() && mc->second.size() == 1) {
          add(*mc->second.begin() + "::" + c.callee);
        }
        break;
      }
    }
    return keys;
  };

  auto sink_mask_of = [&](const TaintCallArg& c) -> uint8_t {
    const std::vector<std::string> keys = resolve_keys(c);
    if (keys.empty()) return 0;
    uint8_t mask = 0xFF;
    for (const std::string& key : keys) {
      const DefSet& set = by_key[key];
      const size_t idx = static_cast<size_t>(c.arg_index);
      mask &= idx < set.sink_mask.size() ? set.sink_mask[idx] : 0;
    }
    return mask;
  };

  size_t call_args = 0;
  size_t rounds = 0;

  // Bottom-up fixpoint: a parameter forwarded into a sink parameter is
  // itself a sink parameter.
  bool changed = true;
  while (changed && rounds < 64) {
    changed = false;
    ++rounds;
    for (const FileSummary& f : index.files()) {
      for (const TaintCallArg& c : f.taint_calls) {
        if (rounds == 1) ++call_args;
        if (c.param_mask == 0) continue;
        const uint8_t mask = sink_mask_of(c);
        if (mask == 0) continue;
        const std::string caller_key = c.caller_class.empty()
                                           ? c.caller
                                           : c.caller_class + "::" + c.caller;
        auto it = by_key.find(caller_key);
        if (it == by_key.end()) continue;
        for (uint32_t i = 0; i < 32 && i < it->second.sink_mask.size(); ++i) {
          if ((c.param_mask & (1u << i)) == 0) continue;
          if ((it->second.sink_mask[i] & mask) != mask) {
            it->second.sink_mask[i] |= mask;
            changed = true;
          }
        }
      }
    }
  }

  std::vector<Finding> findings;
  size_t pending = 0;
  for (const FileSummary& f : index.files()) {
    for (const TaintCallArg& c : f.taint_calls) {
      if (c.origin == TaintOrigin::kNone) continue;
      const uint8_t mask = sink_mask_of(c);
      if (mask == 0) continue;
      const bool confirmed =
          c.origin == TaintOrigin::kBuiltin ||
          guard_confirms(c.source,
                         c.origin == TaintOrigin::kCalleeOut ? c.guard_param
                                                             : -1);
      if (!confirmed) continue;
      const bool alloc = (mask & kTaintSinkAlloc) != 0;
      const std::string use =
          alloc ? "an allocation size" : "an index or loop bound";
      findings.push_back(Finding{
          f.path, c.line, alloc ? kRuleAlloc : kRuleIndex,
          "'" + c.var + "' carries untrusted input (" + c.source + ", line " +
              std::to_string(c.source_line) + ") into parameter " +
              std::to_string(c.arg_index) + " of '" + c.callee +
              "', which uses it as " + use +
              " uncapped; compare it against a compile-time cap first"});
    }
    for (const PendingTaintFinding& p : f.taint_pending) {
      ++pending;
      if (!guard_confirms(p.guard_callee, p.guard_param)) continue;
      findings.push_back(Finding{f.path, p.line, p.rule, p.message});
    }
  }

  if (stats != nullptr) {
    stats->call_args = call_args;
    stats->pending = pending;
    stats->sink_params = 0;
    for (const auto& [key, set] : by_key) {
      for (uint8_t m : set.sink_mask) {
        if (m != 0) ++stats->sink_params;
      }
    }
  }
  return findings;
}

}  // namespace alicoco::lint
