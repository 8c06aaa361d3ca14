#include "common/log.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

namespace dreamplace {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::mutex g_mutex;

const char* prefix(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "[DEBUG] ";
    case LogLevel::kInfo:
      return "[INFO ] ";
    case LogLevel::kWarn:
      return "[WARN ] ";
    case LogLevel::kError:
      return "[ERROR] ";
    default:
      return "";
  }
}

/// Per-thread stack of active LogScope key/value pairs.
std::vector<std::pair<std::string, std::string>>& scopeStack() {
  thread_local std::vector<std::pair<std::string, std::string>> stack;
  return stack;
}
}  // namespace

void setLogLevel(LogLevel level) { g_level.store(level); }
LogLevel logLevel() { return g_level.load(); }

const char* logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kSilent: return "silent";
  }
  return "unknown";
}

bool parseLogLevel(std::string_view name, LogLevel& out) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") { out = LogLevel::kDebug; return true; }
  if (lower == "info") { out = LogLevel::kInfo; return true; }
  if (lower == "warn" || lower == "warning") { out = LogLevel::kWarn; return true; }
  if (lower == "error") { out = LogLevel::kError; return true; }
  if (lower == "silent" || lower == "off") { out = LogLevel::kSilent; return true; }
  return false;
}

bool initLogLevelFromEnv() {
  const char* env = std::getenv("DREAMPLACE_LOG_LEVEL");
  if (env == nullptr || *env == '\0') {
    return false;
  }
  LogLevel level;
  if (!parseLogLevel(env, level)) {
    logWarn("log: ignoring invalid DREAMPLACE_LOG_LEVEL '%s' "
            "(expected debug|info|warn|error|silent)", env);
    return false;
  }
  setLogLevel(level);
  return true;
}

LogScope::LogScope(std::string key, std::string value) {
  scopeStack().emplace_back(std::move(key), std::move(value));
}

LogScope::~LogScope() { scopeStack().pop_back(); }

std::string LogScope::currentText() {
  std::string out;
  for (const auto& [key, value] : scopeStack()) {
    if (!out.empty()) {
      out += ' ';
    }
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

namespace detail {
void vlog(LogLevel level, const char* fmt, std::va_list args) {
  if (level < g_level.load()) {
    return;
  }
  char msg[1024];
  std::vsnprintf(msg, sizeof(msg), fmt, args);
  const auto& scopes = scopeStack();

  // Logs go to stderr: benches and examples print result tables on
  // stdout, and the two streams must stay separable.
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fputs(prefix(level), stderr);
  if (!scopes.empty()) {
    std::fputc('[', stderr);
    for (std::size_t i = 0; i < scopes.size(); ++i) {
      std::fprintf(stderr, "%s%s=%s", i == 0 ? "" : " ",
                   scopes[i].first.c_str(), scopes[i].second.c_str());
    }
    std::fputs("] ", stderr);
  }
  std::fputs(msg, stderr);
  std::fputc('\n', stderr);
  std::fflush(stderr);
}
}  // namespace detail

#define DP_DEFINE_LOG(name, level)            \
  void name(const char* fmt, ...) {           \
    std::va_list args;                        \
    va_start(args, fmt);                      \
    detail::vlog(level, fmt, args);           \
    va_end(args);                             \
  }

DP_DEFINE_LOG(logDebug, LogLevel::kDebug)
DP_DEFINE_LOG(logInfo, LogLevel::kInfo)
DP_DEFINE_LOG(logWarn, LogLevel::kWarn)
DP_DEFINE_LOG(logError, LogLevel::kError)

#undef DP_DEFINE_LOG

void logFatal(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  detail::vlog(LogLevel::kError, fmt, args);
  va_end(args);
  std::abort();
}

}  // namespace dreamplace
