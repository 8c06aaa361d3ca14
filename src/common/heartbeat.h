// Per-flow liveness heartbeat: the producer side of the engine watchdog.
//
// A placement flow is a long cooperative loop; the only party that knows
// whether it is making progress is the loop itself. HeartbeatState is a
// tiny single-writer/multi-reader publication slot the GP loop (every
// iteration) and the flow driver (every stage boundary) write into, and
// that its one observer — the PlacementEngine watchdog — reads from
// another thread without locks and without perturbing the
// deterministic hot path: publishing is a handful of relaxed atomic
// stores bracketed by a seqlock sequence counter, and readers never
// write anything the flow can observe.
//
// Seqlock protocol: the writer bumps the sequence to an odd value,
// stores the payload fields, then bumps it to the next even value
// (release). A reader loads the sequence (acquire), copies the fields,
// and re-loads the sequence; a torn read shows up as an odd or changed
// sequence and is retried. There is exactly one writer (the flow's own
// thread — pool workers never publish), so writers need no mutual
// exclusion.
//
// The published running-best HPWL is maintained writer-side so the
// divergence policy compares against the true minimum over *all*
// iterations, not just the ones a sampling watchdog happened to observe.
#pragma once

#include <atomic>
#include <cstdint>

namespace dreamplace {

/// Coarse flow position, published at stage boundaries. Names are stable
/// (they appear in batch reports and watchdog verdicts).
enum class FlowStage : int {
  kIdle = 0,            ///< Flow created, nothing published yet.
  kGlobalPlacement = 1,
  kLegalization = 2,
  kDetailedPlacement = 3,
  kDone = 4,
};

/// Short stable name ("idle", "gp", "lg", "dp", "done").
const char* flowStageName(FlowStage stage);

/// One consistent copy of the published heartbeat.
struct HeartbeatSnapshot {
  std::uint64_t sequence = 0;  ///< 0 = nothing published yet.
  FlowStage stage = FlowStage::kIdle;
  int iteration = -1;     ///< Last GP iteration, -1 before/outside GP.
  double hpwl = 0.0;      ///< HPWL at that iteration.
  double bestHpwl = 0.0;  ///< Running-best finite HPWL over the flow.
  double overflow = 0.0;
};

class HeartbeatState {
 public:
  /// Marks a stage transition. Iteration resets to -1; HPWL fields keep
  /// their last values (the final GP numbers stay visible through LG/DP).
  void beginStage(FlowStage stage);

  /// Publishes one GP iteration. `iteration` -1 is the pre-loop sample
  /// (initial placement HPWL) — it seeds the running best so divergence
  /// ratios are measured against the true starting point.
  void publishIteration(int iteration, double hpwl, double overflow);

  /// Lock-free consistent snapshot; retries while a publish is in flight.
  HeartbeatSnapshot read() const;

 private:
  void publish(FlowStage stage, int iteration, double hpwl, double overflow);

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<int> stage_{static_cast<int>(FlowStage::kIdle)};
  std::atomic<int> iteration_{-1};
  std::atomic<double> hpwl_{0.0};
  std::atomic<double> best_hpwl_{0.0};
  std::atomic<double> overflow_{0.0};
};

}  // namespace dreamplace
