#include "common/logging.h"

#include <cstdio>
#include <cstring>

namespace fungusdb {
namespace {

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  stream_ << "[" << LevelTag(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace internal_logging
}  // namespace fungusdb
