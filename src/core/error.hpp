// hypart — typed error hierarchy.
//
// Every failure the library reports deliberately (bad configuration, parse
// failure, unsatisfiable search, injected fault, runtime stall) carries an
// ErrorKind so callers can react programmatically and the CLI can map each
// kind to a distinct, documented exit code (see docs/robustness.md).
// Invariant violations that indicate a hypart bug keep Kind::Internal.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hypart {

enum class ErrorKind {
  Parse,          ///< source program cannot be tokenized/parsed
  Config,         ///< invalid configuration or API arguments
  Unsatisfiable,  ///< a search came up empty (e.g. no valid time function)
  Fault,          ///< invalid or unsurvivable fault plan / degraded machine
  Stall,          ///< runtime watchdog fired on a blocked receive
  WorkerDeath,    ///< message delivery to a dead worker's mailbox
  Io,             ///< file read/write failure
  Internal,       ///< invariant violation (a hypart bug)
  Overloaded,     ///< admission control rejected work (bounded queue full)
  Overflow,       ///< a symbolic count, step or cost does not fit in int64
};

/// Stable lower-case name of a kind ("parse", "config", ...).
const char* to_string(ErrorKind kind);

/// Base of all hypart errors.  Derives std::runtime_error so existing
/// catch(const std::exception&) sites keep working.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const { return kind_; }

  /// Documented CLI exit code for this kind (BSD sysexits where one fits):
  ///   Parse 65, Unsatisfiable 69, Internal 70, Io 74, Stall 75,
  ///   WorkerDeath 76, Fault 77, Config 78, Overloaded 79, Overflow 80.
  [[nodiscard]] int exit_code() const;

 private:
  ErrorKind kind_;
};

/// The parallel runtime's stall watchdog fired: a blocking receive exceeded
/// its timeout.  `diagnostics()` holds the per-worker dump (proc id,
/// blocked-on vertex, outstanding message count, mailbox depth).
class StallError : public Error {
 public:
  StallError(const std::string& message, std::string diagnostics)
      : Error(ErrorKind::Stall, message + "\n" + diagnostics),
        diagnostics_(std::move(diagnostics)) {}

  [[nodiscard]] const std::string& diagnostics() const { return diagnostics_; }

 private:
  std::string diagnostics_;
};

/// Message delivery to a mailbox closed by (injected) worker death, after
/// the capped retry/backoff loop gave up.
class WorkerDeathError : public Error {
 public:
  explicit WorkerDeathError(const std::string& message)
      : Error(ErrorKind::WorkerDeath, message) {}
};

/// Invalid fault specification or a degraded machine the policy cannot
/// survive (e.g. a failed node with no live neighbor to migrate to).
class FaultError : public Error {
 public:
  explicit FaultError(const std::string& message) : Error(ErrorKind::Fault, message) {}
};

/// A symbolic quantity (iteration count, schedule span, cost, closed-form
/// sum) left the int64 range.  The answer would have wrapped, so none is
/// given; serve replies with kind "overflow" and never caches it.
class OverflowError : public Error {
 public:
  explicit OverflowError(const std::string& what)
      : Error(ErrorKind::Overflow, "int64 overflow in " + what) {}
};

/// Exact intermediate for closed-form sums (a GCC/Clang extension; the
/// `__extension__` keeps -Wpedantic quiet).
__extension__ typedef __int128 int128;

/// Checked int64 arithmetic for symbolic counts: each helper returns the
/// exact result or throws OverflowError naming `what`.
namespace checked {
inline std::int64_t add(std::int64_t a, std::int64_t b, const char* what) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) throw OverflowError(what);
  return r;
}
inline std::int64_t sub(std::int64_t a, std::int64_t b, const char* what) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) throw OverflowError(what);
  return r;
}
inline std::int64_t mul(std::int64_t a, std::int64_t b, const char* what) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) throw OverflowError(what);
  return r;
}
/// Narrow an exact __int128 intermediate back to int64.
inline std::int64_t narrow(int128 v, const char* what) {
  if (v > INT64_MAX || v < INT64_MIN) throw OverflowError(what);
  return static_cast<std::int64_t>(v);
}
}  // namespace checked

}  // namespace hypart
