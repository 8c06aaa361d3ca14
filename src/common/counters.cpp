#include "common/counters.h"

#include <cstdio>

namespace dreamplace {

std::atomic<CounterRegistry::Value>& CounterRegistry::counter(
    std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(key),
                      std::make_unique<std::atomic<Value>>(0))
             .first;
  }
  return *it->second;
}

void CounterRegistry::add(std::string_view key, Value delta) {
  counter(key).fetch_add(delta, std::memory_order_relaxed);
}

CounterRegistry::Value CounterRegistry::value(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second->load();
}

CounterRegistry::Value CounterRegistry::totalPrefix(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Value sum = 0;
  // std::map is ordered, so the matching keys form a contiguous range.
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    sum += it->second->load();
  }
  return sum;
}

std::map<std::string, CounterRegistry::Value> CounterRegistry::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Value> out;
  for (const auto& [key, cell] : counters_) {
    out.emplace(key, cell->load());
  }
  return out;
}

void CounterRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, cell] : counters_) {
    cell->store(0);
  }
}

std::string CounterRegistry::report() const {
  std::string out;
  char line[256];
  for (const auto& [key, value] : snapshot()) {
    std::snprintf(line, sizeof(line), "%-40s %12lld\n", key.c_str(),
                  static_cast<long long>(value));
    out += line;
  }
  return out;
}

}  // namespace dreamplace
