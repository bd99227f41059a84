// CHECK / DCHECK / CHECK_OK invariant macros with streamed messages.
//
// CHECK(cond) aborts the process (via the installed failure handler) when
// `cond` is false, printing file:line, the failed expression and any
// streamed context:
//
//   CHECK(idx < ring_.size()) << "node " << id << " not in ring";
//   CHECK_EQ(loads_.size(), ring_.size());
//   CHECK_OK(network->AuditFull());
//
// DCHECK* variants compile to nothing under NDEBUG (this repo keeps
// NDEBUG off in all build types, so they are normally live). CHECK*
// variants are always on; use them where the cost is off the hot path or
// the invariant guards memory safety.
//
// The failure handler is replaceable (SetCheckFailureHandler), so tests
// can observe CHECK failures without dying — the test handler typically
// throws. The default handler writes the message to stderr and aborts.
// A handler must not return: returning would continue execution past a
// violated invariant, so the CHECK machinery aborts if one does.

#ifndef DHS_COMMON_CHECK_H_
#define DHS_COMMON_CHECK_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace dhs {

/// Receives every CHECK failure: source location and the fully formatted
/// message (expression plus streamed context). Must not return; throwing
/// is allowed (the test hook).
using CheckFailureHandler = void (*)(const char* file, int line,
                                     const std::string& message);

/// Installs `handler` (nullptr restores the default abort handler) and
/// returns the previously installed one. Thread-safe: the handler slot
/// is a single atomic pointer, so concurrent installs and concurrent
/// CHECK failures are race-free (each failing CHECK fires whichever
/// handler was installed when it completed). Intended for test setup.
CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler);

namespace check_internal {

/// Accumulates the message for one failing CHECK and fires the failure
/// handler at the end of the full expression. The message is the
/// generated `prefix` (the failed expression) and `detail` (operands or
/// error text), then ": " and the streamed context, if any.
class FailureStream {
 public:
  FailureStream(const char* file, int line, const char* prefix,
                const std::string& detail = std::string());
  FailureStream(const FailureStream&) = delete;
  FailureStream& operator=(const FailureStream&) = delete;

  /// Fires the handler. noexcept(false): the test hook throws through it.
  ~FailureStream() noexcept(false);

  template <typename T>
  FailureStream& operator<<(const T& value) {
    if (!has_context_) {
      message_ << ": ";
      has_context_ = true;
    }
    message_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  std::ostringstream message_;
  bool has_context_ = false;
};

/// Ternary-operator glue: makes the failure branch void. Takes const&
/// so it binds both a bare FailureStream temporary and the lvalue
/// reference operator<< returns.
struct Voidify {
  void operator&(const FailureStream&) {}
};

/// Renders one operand of a binary CHECK (CHECK_EQ etc.). The generic
/// overload streams the value; (un)signed char prints numerically so a
/// failure message never embeds raw bytes.
template <typename T>
void AppendValue(std::ostringstream& os, const T& v) {
  os << v;
}
inline void AppendValue(std::ostringstream& os, char v) {
  os << static_cast<int>(v);
}
inline void AppendValue(std::ostringstream& os, signed char v) {
  os << static_cast<int>(v);
}
inline void AppendValue(std::ostringstream& os, unsigned char v) {
  os << static_cast<int>(v);
}

/// Builds the " (a vs b)" operand rendering for binary CHECKs.
template <typename A, typename B>
std::string FormatBinary(const A& a, const B& b) {
  std::ostringstream os;
  os << " (";
  AppendValue(os, a);
  os << " vs ";
  AppendValue(os, b);
  os << ")";
  return os.str();
}

/// True when a Status-like object (anything with ok()) is OK. Duck-typed
/// so check.h needs no include of status.h (status.h includes check.h).
template <typename StatusLike>
bool IsOk(const StatusLike& s) {
  return s.ok();
}

/// " " and the error text of a failed Status or StatusOr. Appends rather
/// than prepending: GCC 12 at -O3 warns (-Wrestrict, a false positive)
/// on `" " + std::string` at every call site.
template <typename StatusLike>
std::string ErrorDetail(const StatusLike& s) {
  std::string detail = " ";
  if constexpr (requires { s.status(); }) {
    detail += s.status().ToString();  // StatusOr
  } else {
    detail += s.ToString();  // Status
  }
  return detail;
}

}  // namespace check_internal
}  // namespace dhs

// The ternary keeps CHECK usable in unbraced if/else bodies; the
// FailureStream temporary lives to the end of the full expression, so all
// streamed context is collected before the handler fires.
#define DHS_CHECK_IMPL(cond, ...)                                  \
  (cond) ? (void)0                                                 \
         : ::dhs::check_internal::Voidify() &                      \
               ::dhs::check_internal::FailureStream(__FILE__,      \
                                                    __LINE__,      \
                                                    __VA_ARGS__)

#define CHECK(cond) DHS_CHECK_IMPL((cond), "CHECK failed: " #cond)

#define DHS_CHECK_BINARY_IMPL(a, b, op, name)                              \
  DHS_CHECK_IMPL((a)op(b), "CHECK_" name " failed: " #a " " #op " " #b,    \
                 ::dhs::check_internal::FormatBinary((a), (b)))

#define CHECK_EQ(a, b) DHS_CHECK_BINARY_IMPL(a, b, ==, "EQ")
#define CHECK_NE(a, b) DHS_CHECK_BINARY_IMPL(a, b, !=, "NE")
#define CHECK_LT(a, b) DHS_CHECK_BINARY_IMPL(a, b, <, "LT")
#define CHECK_LE(a, b) DHS_CHECK_BINARY_IMPL(a, b, <=, "LE")
#define CHECK_GT(a, b) DHS_CHECK_BINARY_IMPL(a, b, >, "GT")
#define CHECK_GE(a, b) DHS_CHECK_BINARY_IMPL(a, b, >=, "GE")

// CHECK_OK evaluates its argument exactly once (auto&& extends a
// temporary's lifetime across the loop). The for-loop avoids the
// dangling-else hazard; it runs at most one iteration because the
// handler does not return (a returning handler hits the abort in the
// increment clause).
#define CHECK_OK(expr)                                                     \
  for (auto&& dhs_check_status = (expr);                                   \
       !::dhs::check_internal::IsOk(dhs_check_status); std::abort())       \
  ::dhs::check_internal::FailureStream(                                     \
      __FILE__, __LINE__, "CHECK_OK failed: " #expr,                       \
      ::dhs::check_internal::ErrorDetail(dhs_check_status))

#ifdef NDEBUG
// The glog pattern: the body (including the streamed operands and the
// condition itself) is compiled but never executed, so variables used
// only in DCHECKs do not become -Wunused warnings in NDEBUG builds.
#define DCHECK(cond) \
  while (false) CHECK(cond)
#define DCHECK_EQ(a, b) \
  while (false) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) \
  while (false) CHECK_NE(a, b)
#define DCHECK_LT(a, b) \
  while (false) CHECK_LT(a, b)
#define DCHECK_LE(a, b) \
  while (false) CHECK_LE(a, b)
#define DCHECK_GT(a, b) \
  while (false) CHECK_GT(a, b)
#define DCHECK_GE(a, b) \
  while (false) CHECK_GE(a, b)
#define DCHECK_OK(expr) \
  while (false) CHECK_OK(expr)
#else
#define DCHECK(cond) CHECK(cond)
#define DCHECK_EQ(a, b) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) CHECK_NE(a, b)
#define DCHECK_LT(a, b) CHECK_LT(a, b)
#define DCHECK_LE(a, b) CHECK_LE(a, b)
#define DCHECK_GT(a, b) CHECK_GT(a, b)
#define DCHECK_GE(a, b) CHECK_GE(a, b)
#define DCHECK_OK(expr) CHECK_OK(expr)
#endif

#endif  // DHS_COMMON_CHECK_H_
