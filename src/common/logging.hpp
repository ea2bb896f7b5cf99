#ifndef PIMCOMP_COMMON_LOGGING_HPP
#define PIMCOMP_COMMON_LOGGING_HPP

#include <atomic>
#include <sstream>
#include <string>

namespace pimcomp {

/// Log severities in increasing order of importance.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Minimal process-wide logger. The compiler is a library, so logging defaults
/// to warnings-and-up on stderr; hosts may raise or silence it.
class Logger {
 public:
  /// Global verbosity threshold.
  static void set_level(LogLevel level);
  static LogLevel level();

  /// Emits one formatted line if `level` passes the threshold.
  static void log(LogLevel level, const std::string& message);

 private:
  // Atomic: set_level() may race with log()/level() calls from session
  // workers and pimcompd reader threads (relaxed is enough — the threshold
  // is advisory, no data is published through it).
  static std::atomic<LogLevel> level_;
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::log(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace pimcomp

#define PIMCOMP_LOG_DEBUG \
  ::pimcomp::detail::LogLine(::pimcomp::LogLevel::kDebug)
#define PIMCOMP_LOG_INFO ::pimcomp::detail::LogLine(::pimcomp::LogLevel::kInfo)
#define PIMCOMP_LOG_WARN ::pimcomp::detail::LogLine(::pimcomp::LogLevel::kWarn)
#define PIMCOMP_LOG_ERROR \
  ::pimcomp::detail::LogLine(::pimcomp::LogLevel::kError)

#endif  // PIMCOMP_COMMON_LOGGING_HPP
