#ifndef FUNGUSDB_COMMON_LOGGING_H_
#define FUNGUSDB_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace fungusdb {

/// The library logs only problems, so every message reaches stderr and
/// tests and benches stay quiet unless something goes wrong.
enum class LogLevel { kWarning, kError };

namespace internal_logging {

/// Stream-style log sink; emits on destruction. Use via FUNGUSDB_LOG.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace fungusdb

#define FUNGUSDB_LOG(level)                                       \
  ::fungusdb::internal_logging::LogMessage(                       \
      ::fungusdb::LogLevel::k##level, __FILE__, __LINE__)

#endif  // FUNGUSDB_COMMON_LOGGING_H_
