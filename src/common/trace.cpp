#include "common/trace.h"

#include <cstdio>

#include "common/counters.h"

namespace dreamplace {

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

void TraceRecorder::setEnabled(bool enabled) {
  if (enabled && !enabled_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch_ = std::chrono::steady_clock::now();
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  thread_ids_.clear();
  dropped_ = 0;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceRecorder::setCapacity(std::size_t maxEvents) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = maxEvents;
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::size_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool TraceRecorder::reserveSlot() {
  if (capacity_ != 0 && events_.size() >= capacity_) {
    static Counter drops("trace/dropped");
    drops.add();
    ++dropped_;
    return false;
  }
  return true;
}

int TraceRecorder::threadId() {
  // Caller holds mutex_.
  const auto id = std::this_thread::get_id();
  auto it = thread_ids_.find(id);
  if (it == thread_ids_.end()) {
    it = thread_ids_.emplace(id, static_cast<int>(thread_ids_.size()) + 1)
             .first;
  }
  return it->second;
}

void TraceRecorder::completeEvent(std::string_view name, double seconds) {
  if (!enabled()) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!reserveSlot()) {
    return;
  }
  TraceEvent ev;
  ev.name = std::string(name);
  ev.phase = 'X';
  ev.durUs = seconds * 1e6;
  ev.tsUs = std::chrono::duration<double, std::micro>(now - epoch_).count() -
            ev.durUs;
  if (ev.tsUs < 0.0) {
    ev.tsUs = 0.0;
  }
  ev.tid = threadId();
  events_.push_back(std::move(ev));
}

void TraceRecorder::counterEvent(std::string_view name, double value) {
  if (!enabled()) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!reserveSlot()) {
    return;
  }
  TraceEvent ev;
  ev.name = std::string(name);
  ev.phase = 'C';
  ev.tsUs = std::chrono::duration<double, std::micro>(now - epoch_).count();
  ev.tid = threadId();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"value\":%.17g}", value);
  ev.args = buf;
  events_.push_back(std::move(ev));
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string TraceRecorder::toJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"" + jsonEscape(ev.name) + "\",\"ph\":\"";
    out += ev.phase;
    out += '"';
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"pid\":1,\"tid\":%d",
                  ev.tsUs, ev.tid);
    out += buf;
    if (ev.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", ev.durUs);
      out += buf;
    }
    if (!ev.args.empty()) {
      out += ",\"args\":" + ev.args;
    } else if (ev.phase == 'C') {
      out += ",\"args\":{\"value\":0}";
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool TraceRecorder::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    return false;
  }
  const std::string json = toJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace dreamplace
