// Minimal leveled logger.
//
// Bench binaries and examples print their tables through util::TableWriter;
// the logger is for diagnostics (partition summaries, realloc events,
// enactor thread lifecycle). Thread-safe: each statement is formatted
// into one string and written with a single mutex-protected call.
#pragma once

#include <mutex>
#include <sstream>
#include <string>

namespace mgg::util {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Log threshold (kWarn); messages above it are dropped.
LogLevel log_level() noexcept;

/// Writes one formatted line to stderr (thread safe).
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStatement {
 public:
  explicit LogStatement(LogLevel level) : level_(level) {}
  ~LogStatement() { log_line(level_, stream_.str()); }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  template <typename T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace mgg::util

#define MGG_LOG(level)                                        \
  if (static_cast<int>(level) > static_cast<int>(::mgg::util::log_level())) \
    ;                                                         \
  else                                                        \
    ::mgg::util::detail::LogStatement(level)

#define MGG_LOG_ERROR MGG_LOG(::mgg::util::LogLevel::kError)
#define MGG_LOG_WARN MGG_LOG(::mgg::util::LogLevel::kWarn)
#define MGG_LOG_INFO MGG_LOG(::mgg::util::LogLevel::kInfo)
#define MGG_LOG_DEBUG MGG_LOG(::mgg::util::LogLevel::kDebug)
