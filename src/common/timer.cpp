#include "common/timer.h"

#include <algorithm>
#include <cstdio>

#include "common/trace.h"

namespace dreamplace {

namespace {

/// One open scope on this thread: accumulated inclusive seconds of its
/// *direct* nested scopes, subtracted from the parent's elapsed time to
/// obtain self time.
struct ScopeFrame {
  double childSeconds = 0.0;
};

thread_local std::vector<ScopeFrame> tlScopeStack;

}  // namespace

ScopedTimer::ScopedTimer(std::string key) : key_(std::move(key)) {
  tlScopeStack.emplace_back();
}

ScopedTimer::~ScopedTimer() {
  const double seconds = timer_.elapsed();
  // Pop this scope's frame and charge the elapsed time to the enclosing
  // scope (if any) so the parent's self time excludes it.
  const double child_seconds = tlScopeStack.back().childSeconds;
  tlScopeStack.pop_back();
  const bool root = tlScopeStack.empty();
  if (!root) {
    tlScopeStack.back().childSeconds += seconds;
  }
  // Clock jitter can make the children sum slightly exceed the parent's
  // own elapsed reading; clamp so self <= inclusive always holds.
  const double self = std::max(0.0, seconds - child_seconds);
  // Resolve per call: the same scope key charges whichever flow context
  // is current on this thread (common/flow_context.h).
  currentTimingRegistry().addScope(key_, seconds, self, root);
  TraceRecorder& trace = currentTraceRecorder();
  if (trace.enabled()) {
    trace.completeEvent(key_, seconds);
  }
}

void TimingRegistry::add(const std::string& key, double seconds) {
  addScope(key, seconds, seconds, /*root=*/true);
}

void TimingRegistry::addScope(const std::string& key, double seconds,
                              double selfSeconds, bool root) {
  std::lock_guard<std::mutex> lock(mutex_);
  TimingStat& stat = totals_[key];
  stat.count += 1;
  stat.seconds += seconds;
  stat.selfSeconds += selfSeconds;
  if (root) {
    stat.rootSeconds += seconds;
  }
}

double TimingRegistry::total(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(key);
  return it == totals_.end() ? 0.0 : it->second.seconds;
}

double TimingRegistry::selfTotal(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(key);
  return it == totals_.end() ? 0.0 : it->second.selfSeconds;
}

std::int64_t TimingRegistry::count(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(key);
  return it == totals_.end() ? 0 : it->second.count;
}

double TimingRegistry::totalPrefix(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  // std::map is ordered, so the matching keys form a contiguous range.
  for (auto it = totals_.lower_bound(prefix); it != totals_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    sum += it->second.seconds;
  }
  return sum;
}

double TimingRegistry::selfTotalPrefix(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (auto it = totals_.lower_bound(prefix); it != totals_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    sum += it->second.selfSeconds;
  }
  return sum;
}

std::map<std::string, double> TimingRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [key, stat] : totals_) {
    out.emplace(key, stat.seconds);
  }
  return out;
}

std::map<std::string, TimingStat> TimingRegistry::statsSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

void TimingRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.clear();
}

std::string TimingRegistry::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // The denominator is the wall time covered by root scopes: every
  // nested scope's seconds are already inside some root's inclusive
  // time, so summing root time counts each observed second exactly once.
  double grand = 0.0;
  for (const auto& [key, stat] : totals_) {
    grand += stat.rootSeconds;
  }
  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line), "%-40s %8s %10s %10s %7s\n", "key",
                "count", "incl(s)", "self(s)", "incl%");
  out += line;
  for (const auto& [key, stat] : totals_) {
    const double pct = grand > 0.0 ? 100.0 * stat.seconds / grand : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-40s %8lld %10.3f %10.3f %6.1f%%\n", key.c_str(),
                  static_cast<long long>(stat.count), stat.seconds,
                  stat.selfSeconds, pct);
    out += line;
  }
  return out;
}

}  // namespace dreamplace
