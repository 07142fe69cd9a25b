#pragma once

// Always-on invariant checking.  Protocol and VM invariants are cheap
// relative to simulation work and catching a violated invariant immediately
// is worth far more than the cycles, so ASCOMA_CHECK is active in all build
// types (the simulator is the product; it must never silently produce wrong
// state).  Failures throw so tests can assert on them.
//
// The condition is evaluated inline, where the macro is written; everything
// a failure needs (the message operands, the stream that formats them, the
// throw) lives in cold, never-inlined functions.  A check then costs its
// compare and one untaken branch, and does not bloat the small hot functions
// it guards past the compiler's inlining limits.

#include <sstream>
#include <stdexcept>
#include <string>

namespace ascoma {

class CheckFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

[[noreturn, gnu::cold, gnu::noinline]] inline void check_fail(
    const char* expr, const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << "ASCOMA_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str());
}

/// ASCOMA_CHECK's failure branch (no message).
[[noreturn, gnu::cold, gnu::noinline]] inline void check_fail(const char* expr,
                                                              const char* file,
                                                              int line) {
  check_fail(expr, file, line, std::string());
}

/// ASCOMA_CHECK_MSG's failure branch: `write` streams the message operands,
/// so they are evaluated only here, after the check has failed.
template <typename Write>
[[noreturn, gnu::cold, gnu::noinline]] void check_fail_msg(const char* expr,
                                                           const char* file,
                                                           int line,
                                                           const Write& write) {
  std::ostringstream os;
  write(os);
  check_fail(expr, file, line, os.str());
}

}  // namespace ascoma

#define ASCOMA_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond)) ::ascoma::check_fail(#cond, __FILE__, __LINE__);       \
  } while (0)

#define ASCOMA_CHECK_MSG(cond, msg)                                     \
  do {                                                                  \
    if (!(cond))                                                        \
      ::ascoma::check_fail_msg(                                         \
          #cond, __FILE__, __LINE__,                                    \
          [&](std::ostream& ascoma_check_os) { ascoma_check_os << msg; }); \
  } while (0)
