#include "common/memory.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/trace.h"

namespace dreamplace {

ProcessMemory sampleProcessMemory() {
  ProcessMemory mem;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return mem;  // non-Linux: valid stays false
  }
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long kb = 0;
    if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1) {
      mem.vmRssBytes = static_cast<std::int64_t>(kb) * 1024;
    } else if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
      mem.vmHwmBytes = static_cast<std::int64_t>(kb) * 1024;
    }
  }
  std::fclose(f);
  mem.valid = true;
  return mem;
}

void MemoryTracker::adjust(const std::string& key, std::int64_t deltaBytes) {
  std::int64_t current = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Usage& usage = usage_[key];
    usage.currentBytes = std::max<std::int64_t>(
        0, usage.currentBytes + deltaBytes);
    usage.peakBytes = std::max(usage.peakBytes, usage.currentBytes);
    current = usage.currentBytes;
  }
  TraceRecorder& trace = currentTraceRecorder();
  if (trace.enabled()) {
    trace.counterEvent("mem/" + key, static_cast<double>(current));
  }
}

std::int64_t MemoryTracker::current(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = usage_.find(key);
  return it == usage_.end() ? 0 : it->second.currentBytes;
}

std::int64_t MemoryTracker::peak(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = usage_.find(key);
  return it == usage_.end() ? 0 : it->second.peakBytes;
}

std::int64_t MemoryTracker::currentPrefix(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t sum = 0;
  for (auto it = usage_.lower_bound(prefix); it != usage_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    sum += it->second.currentBytes;
  }
  return sum;
}

std::map<std::string, MemoryTracker::Usage> MemoryTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return usage_;
}

void MemoryTracker::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  usage_.clear();
}

std::string MemoryTracker::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line), "%-40s %14s %14s\n", "subsystem",
                "current(B)", "peak(B)");
  out += line;
  for (const auto& [key, usage] : usage_) {
    std::snprintf(line, sizeof(line), "%-40s %14lld %14lld\n", key.c_str(),
                  static_cast<long long>(usage.currentBytes),
                  static_cast<long long>(usage.peakBytes));
    out += line;
  }
  return out;
}

void TrackedBytes::set(std::int64_t bytes) {
  bytes = std::max<std::int64_t>(0, bytes);
  if (bytes == bytes_) {
    return;
  }
  std::shared_ptr<MemoryTracker> cur = currentMemoryTrackerPtr();
  if (tracker_ && tracker_ != cur && bytes_ > 0) {
    // Resized under a different flow: give the old flow its bytes back
    // before charging the new one, so neither report is corrupted.
    tracker_->adjust(key_, -bytes_);
    bytes_ = 0;
  }
  if (bytes != bytes_) {
    cur->adjust(key_, bytes - bytes_);
  }
  bytes_ = bytes;
  tracker_ = bytes > 0 ? std::move(cur) : nullptr;
}

}  // namespace dreamplace
