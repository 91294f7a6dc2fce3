/// \file check.hpp
/// Lightweight precondition / invariant checking. Violations indicate
/// programming errors inside the library or misuse of its API, so they throw
/// `std::logic_error` with a formatted location message; they are *not* used
/// for recoverable conditions.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace caft {

/// Thrown when a CAFT_CHECK precondition or invariant fails.
///
/// what() is for developers: a failed check names its expression and
/// source location there. message() is the bare human-readable text, the
/// only part fit to leave the process (a server's error document), since
/// the location carries the absolute path of the build tree.
class CheckError : public std::logic_error {
 public:
  /// A plain error: what() and message() are both `message`.
  explicit CheckError(const std::string& message)
      : std::logic_error(message), message_(message) {}
  /// A failed check: what() is `detail`, message() is `message`.
  CheckError(const std::string& detail, const std::string& message)
      : std::logic_error(detail), message_(message) {}

  [[nodiscard]] const char* message() const noexcept {
    return message_.what();
  }

 private:
  /// A standard exception only for its nothrow-copyable string storage.
  std::logic_error message_;
};

namespace detail {
[[noreturn]] inline void check_failed(std::string_view expr, std::string_view file,
                                      int line, std::string_view msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  // A check without a message has no text worth showing past the process.
  throw CheckError(os.str(), msg.empty() ? "internal error" : std::string(msg));
}
}  // namespace detail

}  // namespace caft

/// Check `cond`; on failure throw CheckError naming the expression/location.
#define CAFT_CHECK(cond)                                                \
  do {                                                                  \
    if (!(cond)) ::caft::detail::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (false)

/// CAFT_CHECK with an extra human-readable message.
#define CAFT_CHECK_MSG(cond, msg)                                         \
  do {                                                                    \
    if (!(cond)) ::caft::detail::check_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)
