#include "common/heartbeat.h"

#include <cmath>

namespace dreamplace {

const char* flowStageName(FlowStage stage) {
  switch (stage) {
    case FlowStage::kIdle: return "idle";
    case FlowStage::kGlobalPlacement: return "gp";
    case FlowStage::kLegalization: return "lg";
    case FlowStage::kDetailedPlacement: return "dp";
    case FlowStage::kDone: return "done";
  }
  return "unknown";
}

void HeartbeatState::publish(FlowStage stage, int iteration, double hpwl,
                             double overflow) {
  // Single writer: the relaxed read-modify of best_hpwl_ cannot race with
  // another writer, and readers only see it through the seqlock.
  double best = best_hpwl_.load(std::memory_order_relaxed);
  if (std::isfinite(hpwl) && (best <= 0.0 || hpwl < best)) {
    best = hpwl;
  }
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  seq_.store(seq + 1, std::memory_order_relaxed);  // odd: publish in flight
  // The release fence pairs with the reader's acquire fence: if a reader
  // observes any payload store below, it also observes the odd sequence.
  std::atomic_thread_fence(std::memory_order_release);
  stage_.store(static_cast<int>(stage), std::memory_order_relaxed);
  iteration_.store(iteration, std::memory_order_relaxed);
  hpwl_.store(hpwl, std::memory_order_relaxed);
  best_hpwl_.store(best, std::memory_order_relaxed);
  overflow_.store(overflow, std::memory_order_relaxed);
  seq_.store(seq + 2, std::memory_order_release);  // even: stable
}

void HeartbeatState::beginStage(FlowStage stage) {
  publish(stage, /*iteration=*/-1, hpwl_.load(std::memory_order_relaxed),
          overflow_.load(std::memory_order_relaxed));
}

void HeartbeatState::publishIteration(int iteration, double hpwl,
                                      double overflow) {
  publish(static_cast<FlowStage>(stage_.load(std::memory_order_relaxed)),
          iteration, hpwl, overflow);
}

HeartbeatSnapshot HeartbeatState::read() const {
  HeartbeatSnapshot out;
  for (;;) {
    const std::uint64_t before = seq_.load(std::memory_order_acquire);
    if (before & 1u) {
      continue;  // publish in flight
    }
    out.sequence = before;
    out.stage = static_cast<FlowStage>(stage_.load(std::memory_order_relaxed));
    out.iteration = iteration_.load(std::memory_order_relaxed);
    out.hpwl = hpwl_.load(std::memory_order_relaxed);
    out.bestHpwl = best_hpwl_.load(std::memory_order_relaxed);
    out.overflow = overflow_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) == before) {
      return out;
    }
  }
}

}  // namespace dreamplace
