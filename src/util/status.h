#ifndef USJ_UTIL_STATUS_H_
#define USJ_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace sj {

/// Error categories used throughout the library. Algorithms return Status
/// (or Result<T>) instead of throwing; this keeps the hot join paths free
/// of exception machinery and matches common database-engine practice.
///
/// Every public entry point (JoinQuery::Run/Explain, PipelineQuery::Run,
/// SpatialService::Submit) reports errors through this one taxonomy —
/// there are no bool returns or aborts outside strict mode:
///
///   kInvalidArgument    — a malformed query description (wrong input
///                         count, negative epsilon, bad index).
///   kFailedPrecondition — API misuse against valid arguments: refinement
///                         without FeatureStores, budgets below
///                         kMinMemoryBytes, a predicate that needs a mode
///                         the query did not enable.
///   kResourceExhausted  — an admission or grant denial: the scheduler's
///                         global budget (or queue) cannot take the query,
///                         or a MemoryArbiter cannot cover a grant.
///   kDeadlineExceeded   — a queued query's admission deadline expired
///                         before memory freed up.
///   kCancelled          — the client cancelled a queued query.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kIoError,
  kCorruption,
  kResourceExhausted,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kDeadlineExceeded,
  kCancelled,
};

/// Lightweight status object: a code plus a human-readable message.
///
/// The OK status carries no allocation. Use the factory functions
/// (Status::IoError(...) etc.) to construct errors.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
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
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders e.g. "IoError: short read on page 17".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Returns the enumerator name, e.g. "kIoError" -> "IoError".
const char* StatusCodeToString(StatusCode code);

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define SJ_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::sj::Status sj_status_tmp_ = (expr);         \
    if (!sj_status_tmp_.ok()) return sj_status_tmp_; \
  } while (0)

}  // namespace sj

#endif  // USJ_UTIL_STATUS_H_
