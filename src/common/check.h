// Runtime invariant checking: ALICOCO_CHECK / ALICOCO_DCHECK and the
// value-printing comparison forms (ALICOCO_CHECK_EQ, ...).
//
// Usage:
//   ALICOCO_CHECK(ptr != nullptr) << "stage " << name;
//   ALICOCO_CHECK_LT(i, rows_) << "row index out of range";
//   ALICOCO_DCHECK_GE(span.end, span.begin);
//
// A failed check prints "CHECK failed at file:line: expr (a vs. b) message"
// to stderr and aborts. CHECK fires in every build type; DCHECK compiles to
// nothing in release builds (NDEBUG) unless ALICOCO_FORCE_DCHECKS is
// defined — the sanitizer presets define it so ASan/UBSan/TSan runs also
// exercise the debug invariants.

#ifndef ALICOCO_COMMON_CHECK_H_
#define ALICOCO_COMMON_CHECK_H_

#include <memory>
#include <sstream>
#include <string>

namespace alicoco::internal {

/// Accumulates the failure message; aborts in the destructor at the end of
/// the full CHECK statement (after trailing streamed context).
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* expr);
  CheckFailure(const char* file, int line, const std::string& message);
  [[noreturn]] ~CheckFailure();
  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Swallows the stream expression inside the ternary CHECK form; operator&
/// binds looser than << so trailing context streams first.
struct CheckVoidify {
  void operator&(std::ostream&) {}
};

template <typename A, typename B>
std::unique_ptr<std::string> MakeCheckOpString(const A& a, const B& b,
                                               const char* expr) {
  std::ostringstream oss;
  oss << expr << " (" << a << " vs. " << b << ")";
  return std::make_unique<std::string>(oss.str());
}

// Each comparison evaluates its operands exactly once and, on failure,
// renders both values into the message.
#define ALICOCO_DEFINE_CHECK_OP_IMPL(name, op)                       \
  template <typename A, typename B>                                  \
  std::unique_ptr<std::string> Check##name##Impl(const A& a,         \
                                                 const B& b,         \
                                                 const char* expr) { \
    if (a op b) return nullptr;                                      \
    return MakeCheckOpString(a, b, expr);                            \
  }
ALICOCO_DEFINE_CHECK_OP_IMPL(EQ, ==)
ALICOCO_DEFINE_CHECK_OP_IMPL(NE, !=)
ALICOCO_DEFINE_CHECK_OP_IMPL(LT, <)
ALICOCO_DEFINE_CHECK_OP_IMPL(LE, <=)
ALICOCO_DEFINE_CHECK_OP_IMPL(GT, >)
ALICOCO_DEFINE_CHECK_OP_IMPL(GE, >=)
#undef ALICOCO_DEFINE_CHECK_OP_IMPL

}  // namespace alicoco::internal

/// Hard invariant; aborts with a message when violated (all build types).
#define ALICOCO_CHECK(cond)                                         \
  (cond) ? (void)0                                                  \
         : ::alicoco::internal::CheckVoidify() &                    \
               ::alicoco::internal::CheckFailure(__FILE__, __LINE__, \
                                                 #cond)              \
                   .stream()

// The while-form gives the comparison macros statement scope for the
// rendered message while still accepting trailing streamed context; the
// CheckFailure destructor aborts before a second iteration could run.
#define ALICOCO_CHECK_OP(name, op, a, b)                              \
  while (std::unique_ptr<std::string> alicoco_check_msg =             \
             ::alicoco::internal::Check##name##Impl(                  \
                 (a), (b), #a " " #op " " #b))                        \
  ::alicoco::internal::CheckFailure(__FILE__, __LINE__,               \
                                    *alicoco_check_msg)               \
      .stream()

#define ALICOCO_CHECK_EQ(a, b) ALICOCO_CHECK_OP(EQ, ==, a, b)
#define ALICOCO_CHECK_NE(a, b) ALICOCO_CHECK_OP(NE, !=, a, b)
#define ALICOCO_CHECK_LT(a, b) ALICOCO_CHECK_OP(LT, <, a, b)
#define ALICOCO_CHECK_LE(a, b) ALICOCO_CHECK_OP(LE, <=, a, b)
#define ALICOCO_CHECK_GT(a, b) ALICOCO_CHECK_OP(GT, >, a, b)
#define ALICOCO_CHECK_GE(a, b) ALICOCO_CHECK_OP(GE, >=, a, b)

#if defined(ALICOCO_FORCE_DCHECKS) || !defined(NDEBUG)
#define ALICOCO_DCHECK_IS_ON 1
#else
#define ALICOCO_DCHECK_IS_ON 0
#endif

#if ALICOCO_DCHECK_IS_ON
#define ALICOCO_DCHECK(cond) ALICOCO_CHECK(cond)
#define ALICOCO_DCHECK_EQ(a, b) ALICOCO_CHECK_EQ(a, b)
#define ALICOCO_DCHECK_NE(a, b) ALICOCO_CHECK_NE(a, b)
#define ALICOCO_DCHECK_LT(a, b) ALICOCO_CHECK_LT(a, b)
#define ALICOCO_DCHECK_LE(a, b) ALICOCO_CHECK_LE(a, b)
#define ALICOCO_DCHECK_GT(a, b) ALICOCO_CHECK_GT(a, b)
#define ALICOCO_DCHECK_GE(a, b) ALICOCO_CHECK_GE(a, b)
#else
// Disabled DCHECKs still compile their arguments (no unused-variable
// warnings) but the dead loop is removed entirely by the optimizer.
#define ALICOCO_DCHECK(cond) \
  while (false) ALICOCO_CHECK(cond)
#define ALICOCO_DCHECK_EQ(a, b) \
  while (false) ALICOCO_CHECK_EQ(a, b)
#define ALICOCO_DCHECK_NE(a, b) \
  while (false) ALICOCO_CHECK_NE(a, b)
#define ALICOCO_DCHECK_LT(a, b) \
  while (false) ALICOCO_CHECK_LT(a, b)
#define ALICOCO_DCHECK_LE(a, b) \
  while (false) ALICOCO_CHECK_LE(a, b)
#define ALICOCO_DCHECK_GT(a, b) \
  while (false) ALICOCO_CHECK_GT(a, b)
#define ALICOCO_DCHECK_GE(a, b) \
  while (false) ALICOCO_CHECK_GE(a, b)
#endif  // ALICOCO_DCHECK_IS_ON

#endif  // ALICOCO_COMMON_CHECK_H_
