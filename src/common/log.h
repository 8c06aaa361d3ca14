// Lightweight leveled logging for the placer.
//
// The placer is a long-running numerical loop; logging must be cheap when
// disabled and line-buffered when enabled so progress is visible during runs.
//
// Structured context: a RAII LogScope stamps key=value pairs (job name,
// design label) onto every line the current thread emits while the scope
// is alive, so interleaved lines from concurrent engine jobs stay
// attributable. See docs/OBSERVABILITY.md.
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>

namespace dreamplace {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kSilent = 4,
};

/// Global log threshold; messages below it are dropped.
void setLogLevel(LogLevel level);
LogLevel logLevel();

/// Stable lowercase name ("debug", "info", "warn", "error", "silent").
const char* logLevelName(LogLevel level);

/// Parses a level name (case-insensitive; "warning" accepted for kWarn).
/// Returns false and leaves `out` untouched on an unknown name.
bool parseLogLevel(std::string_view name, LogLevel& out);

/// Applies DREAMPLACE_LOG_LEVEL when set to a valid level name; returns
/// true when a level was applied. An invalid value logs a warning and is
/// ignored (logging must not break a run).
bool initLogLevelFromEnv();

/// RAII structured-log context: while alive, every log line emitted by
/// *this thread* carries "key=value".
/// Scopes nest; destruction must be LIFO (automatic with block scoping).
class LogScope {
 public:
  LogScope(std::string key, std::string value);
  ~LogScope();

  LogScope(const LogScope&) = delete;
  LogScope& operator=(const LogScope&) = delete;

  /// "key=value key2=value2" for this thread's active scopes ("" if none).
  static std::string currentText();
};

/// printf-style logging. All calls are thread-safe (single write per line).
void logDebug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void logInfo(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void logWarn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void logError(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fatal error: logs and aborts. Used for programming errors (broken
/// invariants), not user input errors.
[[noreturn]] void logFatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

namespace detail {
void vlog(LogLevel level, const char* fmt, std::va_list args);
}  // namespace detail

}  // namespace dreamplace

/// Assertion macro that stays active in release builds; placement invariants
/// are cheap to check relative to the numerical work they guard.
#define DP_ASSERT(cond, ...)                                           \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::dreamplace::logFatal("assertion failed: %s (%s:%d) ", #cond,   \
                             __FILE__, __LINE__);                      \
    }                                                                  \
  } while (0)

#define DP_ASSERT_MSG(cond, fmt, ...)                                      \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::dreamplace::logFatal("assertion failed: %s (%s:%d): " fmt, #cond,  \
                             __FILE__, __LINE__, ##__VA_ARGS__);           \
    }                                                                      \
  } while (0)
