// Named scalar-counter registry, the event-count sibling of TimingRegistry.
//
// Timing answers "where did the seconds go"; counters answer "how many
// times did it happen" — op invocations, FFT transforms, workspace
// allocations vs. reuses, optimizer line-search evaluations. Keys are
// '/'-separated paths like the timing registry ("ops/wirelength/evaluate")
// so prefix sums work the same way.
//
// Registries are per-flow: each FlowContext (common/flow_context.h) owns
// one, reached through FlowContext::counters(). Counter handles therefore
// hold the *key*, not
// a cell address, and resolve the current context's registry on every
// add() — the same static Counter in a hot kernel charges whichever flow
// runs on the calling thread. Counters fire per event (op call, FFT
// transform), not per element, so the map lookup is noise next to the
// work being counted.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace dreamplace {

/// Registry of named monotonic counters (one per FlowContext).
class CounterRegistry {
 public:
  using Value = std::int64_t;

  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Returns the counter cell for `key`, creating it at zero. The address
  /// stays valid for the registry lifetime (clear() zeroes, never erases).
  std::atomic<Value>& counter(std::string_view key);

  void add(std::string_view key, Value delta = 1);
  Value value(std::string_view key) const;
  /// Sum of all counters whose key starts with `prefix`.
  Value totalPrefix(const std::string& prefix) const;
  std::map<std::string, Value> snapshot() const;
  /// Resets every counter to zero (registered keys remain).
  void clear();

  /// Pretty-print all counters as "key  value".
  std::string report() const;

 private:
  mutable std::mutex mutex_;
  // std::less<> enables find(string_view) without a temporary string.
  std::map<std::string, std::unique_ptr<std::atomic<Value>>, std::less<>>
      counters_;
};

/// The current flow's counter registry (common/flow_context.h).
CounterRegistry& currentCounterRegistry();

/// Increment handle bound to one counter *key*; the owning registry is
/// resolved per call from the current FlowContext.
class Counter {
 public:
  explicit Counter(const char* key) : key_(key) {}

  void add(CounterRegistry::Value delta = 1) {
    currentCounterRegistry().add(key_, delta);
  }
  CounterRegistry::Value value() const {
    return currentCounterRegistry().value(key_);
  }

 private:
  const char* key_;
};

}  // namespace dreamplace
