#include "common/timer.h"

#include <algorithm>
#include <vector>

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
  if (!tlScopeStack.empty()) {
    tlScopeStack.back().childSeconds += seconds;
  }
  // Clock jitter can make the children sum slightly exceed the parent's
  // own elapsed reading; clamp so self <= inclusive always holds.
  const double self = std::max(0.0, seconds - child_seconds);
  // Resolve per call: the same scope key charges whichever flow context
  // is current on this thread (common/flow_context.h).
  currentTimingRegistry().addScope(key_, seconds, self);
  TraceRecorder& trace = currentTraceRecorder();
  if (trace.enabled()) {
    trace.completeEvent(key_, seconds);
  }
}

void TimingRegistry::addScope(const std::string& key, double seconds,
                              double selfSeconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  TimingStat& stat = totals_[key];
  stat.count += 1;
  stat.seconds += seconds;
  stat.selfSeconds += selfSeconds;
}

double TimingRegistry::total(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(key);
  return it == totals_.end() ? 0.0 : it->second.seconds;
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

std::map<std::string, TimingStat> TimingRegistry::statsSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

void TimingRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.clear();
}

}  // namespace dreamplace
