#ifndef FUNGUSDB_COMMON_STATUS_H_
#define FUNGUSDB_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "fungusdb/error_code.h"

namespace fungusdb {

/// Error category carried by a non-OK Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kParseError,
  kTypeMismatch,
  kResourceExhausted,
  kUnavailable,
  kDeadlineExceeded,
};

/// Returns the canonical name of a status code, e.g. "InvalidArgument".
std::string_view StatusCodeName(StatusCode code);

/// Default public error number for an in-process category (e.g.
/// kNotFound -> ErrorCode::kNotFound). Call sites that know a more
/// specific code (TableNotFound, Overloaded, ...) pass it explicitly.
ErrorCode ErrorCodeForStatusCode(StatusCode code);

/// Coarse category for a public error number — how a client
/// reconstructs a Status from the wire (e.g. kTableNotFound ->
/// kNotFound).
StatusCode StatusCodeForErrorCode(ErrorCode code);

/// Value-semantic error type used throughout FungusDB instead of
/// exceptions. An OK status carries no message and no allocation.
///
/// Functions that can fail return `Status` (or `Result<T>` when they also
/// produce a value). Callers must check before using dependent results;
/// the FUNGUSDB_RETURN_IF_ERROR macro keeps propagation terse. The class
/// is [[nodiscard]]: silently dropping an error is a compile error, so a
/// caller that truly wants to ignore one must say so in code (and the
/// lint pass flags even that outside test code).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code),
        error_code_(ErrorCodeForStatusCode(code)),
        message_(std::move(message)) {}

  /// Carries a specific public error number alongside the category.
  /// Used by call sites whose failure has a stable wire identity
  /// (TableNotFound, Overloaded, Timeout, ...).
  Status(StatusCode code, ErrorCode error_code, std::string message)
      : code_(code), error_code_(error_code),
        message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeMismatch(std::string msg) {
    return Status(StatusCode::kTypeMismatch, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  // Factories with a specific public error number.
  static Status TableNotFound(std::string msg) {
    return Status(StatusCode::kNotFound, ErrorCode::kTableNotFound,
                  std::move(msg));
  }
  static Status ColumnNotFound(std::string msg) {
    return Status(StatusCode::kNotFound, ErrorCode::kColumnNotFound,
                  std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kUnavailable, ErrorCode::kOverloaded,
                  std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, ErrorCode::kTimeout,
                  std::move(msg));
  }
  static Status ShuttingDown(std::string msg) {
    return Status(StatusCode::kUnavailable, ErrorCode::kShuttingDown,
                  std::move(msg));
  }
  static Status WireFormat(std::string msg) {
    return Status(StatusCode::kParseError, ErrorCode::kWireFormat,
                  std::move(msg));
  }
  static Status ConnectionClosed(std::string msg) {
    return Status(StatusCode::kUnavailable, ErrorCode::kConnectionClosed,
                  std::move(msg));
  }

  /// Rebuilds the status a server sent over the wire: the category is
  /// derived from the public error number.
  static Status FromWire(ErrorCode error_code, std::string msg) {
    return Status(StatusCodeForErrorCode(error_code), error_code,
                  std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }

  /// Stable public error number (ErrorCode::kOk for an OK status).
  ErrorCode error_code() const { return error_code_; }

  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// "E:<number> <ErrorCodeName>", e.g. "E:1203 TableNotFound" — the
  /// client-facing rendering fungusql and fungusd prepend to messages.
  std::string ErrorLabel() const;

 private:
  StatusCode code_;
  ErrorCode error_code_ = ErrorCode::kOk;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.error_code() == b.error_code() &&
         a.message() == b.message();
}

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace fungusdb

/// Propagates a non-OK Status from the current function.
#define FUNGUSDB_RETURN_IF_ERROR(expr)                    \
  do {                                                    \
    ::fungusdb::Status _fungusdb_status = (expr);         \
    if (!_fungusdb_status.ok()) return _fungusdb_status;  \
  } while (false)

namespace fungusdb::internal_status {
/// Aborts with the status message; used by FUNGUSDB_CHECK_OK.
[[noreturn]] void DieOnError(const Status& status, const char* expr,
                             const char* file, int line);
}  // namespace fungusdb::internal_status

/// Aborts the process when `expr` yields a non-OK Status. For examples,
/// tools, and benchmark setup code where failure is a programming error;
/// library code propagates Status instead.
#define FUNGUSDB_CHECK_OK(expr)                                         \
  do {                                                                  \
    ::fungusdb::Status _fungusdb_status = (expr);                       \
    if (!_fungusdb_status.ok()) {                                       \
      ::fungusdb::internal_status::DieOnError(_fungusdb_status, #expr,  \
                                              __FILE__, __LINE__);      \
    }                                                                   \
  } while (false)

#endif  // FUNGUSDB_COMMON_STATUS_H_
