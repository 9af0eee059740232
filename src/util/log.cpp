#include "util/log.hpp"

#include <cstdio>

namespace mgg::util {

namespace {
std::mutex g_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kDebug: return "DEBUG";
  }
  return "?????";
}
}  // namespace

LogLevel log_level() noexcept { return LogLevel::kWarn; }

void log_line(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[mgg %s] %s\n", level_tag(level), message.c_str());
}

}  // namespace mgg::util
