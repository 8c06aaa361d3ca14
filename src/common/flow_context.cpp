#include "common/flow_context.h"

#include "common/parallel.h"

namespace dreamplace {

namespace {

thread_local FlowContext* tl_current_context = nullptr;

}  // namespace

FlowContext::FlowContext(const Config& config)
    : memory_(std::make_shared<MemoryTracker>()), pool_(config.pool) {
  if (config.privateTrace) {
    trace_owned_ = std::make_unique<TraceRecorder>();
    if (config.traceCapacity != 0) {
      trace_owned_->setCapacity(config.traceCapacity);
    }
    trace_ = trace_owned_.get();
  } else {
    trace_ = &defaultContext().trace();
  }
}

FlowContext::FlowContext(const Config& config, DefaultTag)
    : memory_(std::make_shared<MemoryTracker>()), pool_(config.pool) {
  // The default context *is* the shared recorder; it always owns one.
  trace_owned_ = std::make_unique<TraceRecorder>();
  trace_ = trace_owned_.get();
}

FlowContext::~FlowContext() = default;

ThreadPool& FlowContext::pool() {
  // Resolved lazily so constructing the default context never races the
  // pool singleton's own initialization.
  return pool_ != nullptr ? *pool_ : ThreadPool::instance();
}

bool FlowContext::isDefault() const { return this == &defaultContext(); }

void FlowContext::setDeadline(std::chrono::steady_clock::time_point deadline) {
  deadline_ = deadline;
  has_deadline_.store(true, std::memory_order_release);
}

void FlowContext::throwIfInterrupted() const {
  if (cancel_.load(std::memory_order_relaxed)) {
    throw FlowCancelledError("flow cancelled by request");
  }
  if (has_deadline_.load(std::memory_order_acquire) &&
      std::chrono::steady_clock::now() >= deadline_) {
    throw FlowTimeoutError("flow deadline exceeded");
  }
}

void FlowContext::markFlowStart() {
  ThreadPool& p = pool();
  pool_busy_start_us_ = p.busyMicros();
  pool_capacity_start_us_ = p.capacityMicros();
}

FlowContext& FlowContext::current() {
  FlowContext* ctx = tl_current_context;
  return ctx != nullptr ? *ctx : defaultContext();
}

FlowContext& FlowContext::defaultContext() {
  // Intentionally leaked: thread-local state (scope stacks) and static
  // objects may release their attributions during thread/process teardown
  // and must always find a live default context.
  static FlowContext* ctx = new FlowContext(Config{}, DefaultTag{});
  return *ctx;
}

FlowContextScope::FlowContextScope(FlowContext& context)
    : previous_(tl_current_context) {
  tl_current_context = &context;
}

FlowContextScope::~FlowContextScope() { tl_current_context = previous_; }

// --- Per-call resolution hooks (declared in the registries' headers) -------

CounterRegistry& currentCounterRegistry() {
  return FlowContext::current().counters();
}

TimingRegistry& currentTimingRegistry() {
  return FlowContext::current().timing();
}

TraceRecorder& currentTraceRecorder() { return FlowContext::current().trace(); }

MemoryTracker& currentMemoryTracker() { return FlowContext::current().memory(); }

std::shared_ptr<MemoryTracker> currentMemoryTrackerPtr() {
  return FlowContext::current().memoryPtr();
}

ThreadPool& currentThreadPool() { return FlowContext::current().pool(); }

}  // namespace dreamplace
