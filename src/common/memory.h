// Memory accounting: process peak-RSS sampling plus a per-subsystem
// byte-attribution registry.
//
// DG-RePlAce and the enhanced-FFT placer both report per-kernel memory
// alongside runtime; this is the registry that makes those numbers
// observable here. Two views:
//   * sampleProcessMemory() — VmRSS / VmHWM from /proc/self/status, the
//     ground truth the OS sees (zeros with valid=false off Linux).
//   * MemoryTracker — named current/peak byte counts attributed to the
//     workspace-owning subsystems ("fft/scratch", "ops/density/grids",
//     "ops/wirelength/atomic_ws", "db", ...), keyed like the timing and
//     counter registries so prefix sums work the same way.
//
// Owning classes report through a TrackedBytes RAII member: set() adjusts
// the subsystem's current bytes by the delta and the destructor gives the
// bytes back, so re-running a flow in one process cannot leak attribution.
// When chrome-trace recording is enabled every adjustment also emits a
// "mem/<key>" counter track, putting memory curves on the timeline next
// to the kernel scopes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace dreamplace {

/// Process-wide memory as the kernel reports it, in bytes.
struct ProcessMemory {
  std::int64_t vmRssBytes = 0;  ///< Current resident set size.
  std::int64_t vmHwmBytes = 0;  ///< Peak resident set size ("high water mark").
  bool valid = false;           ///< False when /proc is unavailable.
};

/// Reads VmRSS/VmHWM from /proc/self/status. Returns valid=false (all
/// zeros) on platforms without procfs, so callers can gate on it.
ProcessMemory sampleProcessMemory();

/// Registry attributing workspace bytes to named subsystems (one per
/// FlowContext; shared ownership so TrackedBytes releases stay valid
/// after a flow ends).
class MemoryTracker {
 public:
  struct Usage {
    std::int64_t currentBytes = 0;  ///< Live attributed bytes.
    std::int64_t peakBytes = 0;     ///< Maximum currentBytes ever seen.
  };

  MemoryTracker() = default;
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Adjusts `key` by `deltaBytes` (negative to release). Clamps current
  /// at zero so a stray double-release cannot corrupt the registry.
  void adjust(const std::string& key, std::int64_t deltaBytes);

  std::int64_t current(const std::string& key) const;
  std::int64_t peak(const std::string& key) const;
  /// Sum of current bytes over all keys that start with `prefix`.
  std::int64_t currentPrefix(const std::string& prefix) const;
  std::map<std::string, Usage> snapshot() const;
  /// Resets every entry (keys are erased; TrackedBytes owners still
  /// release safely because adjust() clamps at zero).
  void clear();

  /// Pretty-print all subsystems as "key  current  peak".
  std::string report() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Usage> usage_;
};

/// The current flow's memory tracker (common/flow_context.h).
MemoryTracker& currentMemoryTracker();
/// Shared-ownership handle to the current flow's tracker; TrackedBytes
/// holds one so releases reach the tracker the bytes were charged to even
/// after the owning FlowContext is gone.
std::shared_ptr<MemoryTracker> currentMemoryTrackerPtr();

/// RAII byte reservation against one MemoryTracker subsystem. Owning
/// classes keep one per workspace group and call set() whenever the
/// workspace is (re)sized; destruction releases the attribution.
///
/// Context-aware: set() charges the tracker of the FlowContext current at
/// the call. If the owner is resized under a *different* context, the old
/// reservation is released against the tracker it was charged to (kept
/// alive by a shared_ptr) before charging the new one, so attributions
/// never leak across flows and never dangle.
class TrackedBytes {
 public:
  explicit TrackedBytes(std::string key) : key_(std::move(key)) {}
  ~TrackedBytes() { set(0); }

  TrackedBytes(const TrackedBytes&) = delete;
  TrackedBytes& operator=(const TrackedBytes&) = delete;
  /// Moves transfer the reservation (owning classes stay movable).
  TrackedBytes(TrackedBytes&& o) noexcept
      : key_(std::move(o.key_)),
        bytes_(o.bytes_),
        tracker_(std::move(o.tracker_)) {
    o.bytes_ = 0;
  }
  TrackedBytes& operator=(TrackedBytes&& o) noexcept {
    if (this != &o) {
      set(0);
      key_ = std::move(o.key_);
      bytes_ = o.bytes_;
      tracker_ = std::move(o.tracker_);
      o.bytes_ = 0;
    }
    return *this;
  }

  /// Re-declares the reservation to `bytes`, adjusting the tracker by the
  /// delta from the previous value.
  void set(std::int64_t bytes);
  /// Adds `bytes` on top of the current reservation.
  void grow(std::int64_t bytes) { set(bytes_ + bytes); }
  std::int64_t bytes() const { return bytes_; }

 private:
  std::string key_;
  std::int64_t bytes_ = 0;
  std::shared_ptr<MemoryTracker> tracker_;  ///< Where bytes_ is charged.
};

}  // namespace dreamplace
