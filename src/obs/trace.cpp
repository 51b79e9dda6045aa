#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>

#include "obs/json.h"
#include "util/env.h"

namespace hfc::obs {

namespace {

constexpr std::size_t kDefaultCapacity = 131072;

std::atomic<bool> g_enabled{false};

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// Dense thread index: the main thread and each pool worker get a small
/// stable id, which chrome://tracing renders as one row per thread.
std::uint32_t this_thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

thread_local std::uint32_t t_span_depth = 0;

void write_trace_at_exit() {
  const char* path = std::getenv("HFC_TRACE_FILE");
  const std::string file = path != nullptr ? path : "hfc_trace.json";
  if (TraceBuffer::global().write_chrome_trace_file(file)) {
    std::cerr << "[hfc-trace] wrote " << TraceBuffer::global().events().size()
              << " spans to " << file;
    if (TraceBuffer::global().dropped() > 0) {
      std::cerr << " (" << TraceBuffer::global().dropped()
                << " dropped after the buffer filled)";
    }
    std::cerr << "\n";
  } else {
    std::cerr << "[hfc-trace] could not write " << file << "\n";
  }
}

bool init_trace_flag() {
  const bool on = env_flag("HFC_TRACE", false);
  if (on) {
    trace_epoch();                 // pin the epoch before any span
    (void)TraceBuffer::global();   // construct the buffer before registering
                                   // the exit hook, so it outlives the flush
    std::atexit(write_trace_at_exit);
  }
  g_enabled.store(on, std::memory_order_relaxed);
  return true;
}

}  // namespace

bool trace_enabled() noexcept {
  static const bool initialised = init_trace_flag();
  (void)initialised;
  return g_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled_for_testing(bool enabled) {
  (void)trace_enabled();  // run the env-based init first so it can't overwrite
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

std::size_t trace_capacity_from_env() {
  return env_size_t("HFC_TRACE_BUF", kDefaultCapacity, 1);
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity), ring_(new TraceEvent[capacity]) {}

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer* buffer = [] {
    // Never freed: spans may close during static destruction.
    return new TraceBuffer(trace_capacity_from_env());
  }();
  return *buffer;
}

void TraceBuffer::record(const TraceEvent& event) noexcept {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) return;  // full: count as dropped, keep the head
  ring_[slot] = event;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  const std::size_t n =
      std::min(next_.load(std::memory_order_relaxed), capacity_);
  return std::vector<TraceEvent>(ring_.get(), ring_.get() + n);
}

std::size_t TraceBuffer::dropped() const noexcept {
  const std::size_t n = next_.load(std::memory_order_relaxed);
  return n > capacity_ ? n - capacity_ : 0;
}

void TraceBuffer::clear() noexcept {
  next_.store(0, std::memory_order_relaxed);
}

void TraceBuffer::resize_for_testing(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_ = std::make_unique<TraceEvent[]>(capacity_);
  next_.store(0, std::memory_order_relaxed);
}

void TraceBuffer::write_chrome_trace(std::ostream& out) const {
  std::vector<TraceEvent> spans = events();
  // Stable start-time order: chrome://tracing accepts any order, but a
  // sorted file is readable raw and diffs more cleanly.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    // Complete ("X") events; timestamps are microseconds in this format.
    out << " {\"name\": \"" << json_escape(e.name != nullptr ? e.name : "?")
        << "\", \"ph\": \"X\", \"ts\": "
        << json_number(static_cast<double>(e.start_ns) / 1000.0)
        << ", \"dur\": "
        << json_number(static_cast<double>(e.duration_ns) / 1000.0)
        << ", \"pid\": 1, \"tid\": " << e.thread
        << ", \"args\": {\"depth\": " << e.depth << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

bool TraceBuffer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

void TraceSpan::open(const char* name) noexcept {
  name_ = name;
  depth_ = t_span_depth++;
  start_ns_ = trace_now_ns();
}

void TraceSpan::close() noexcept {
  TraceEvent event;
  event.name = name_;
  event.start_ns = start_ns_;
  event.duration_ns = trace_now_ns() - start_ns_;
  event.thread = this_thread_index();
  event.depth = depth_;
  --t_span_depth;
  TraceBuffer::global().record(event);
}

}  // namespace hfc::obs
