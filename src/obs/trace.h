// Observability subsystem — scoped trace spans.
//
// `HFC_TRACE_SPAN("gnp.solve")` opens an RAII span: wall-clock timed with
// the steady clock, nested via a per-thread depth, and recorded on close
// into a bounded in-memory ring buffer. Span names are the same
// dot-separated taxonomy the metrics registry uses, so a chrome trace and
// a metrics snapshot line up by prefix.
//
// Tracing is off unless the process runs with `HFC_TRACE=1`; a disabled
// span is a single branch on a cached flag (no clock read, no buffer
// write), which keeps instrumented hot paths at production speed. When
// enabled, the buffer is flushed at process exit as a chrome://tracing /
// Perfetto-compatible JSON file (`HFC_TRACE_FILE`, default
// "hfc_trace.json"). Once the buffer's capacity (`HFC_TRACE_BUF` events,
// default 131072) is reached, later spans are counted as dropped rather
// than recorded, so early construction phases survive in full.
//
// Defining HFC_OBS_NO_TRACING compiles spans out entirely (zero branches)
// for builds that must not carry even the flag check.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace hfc::obs {

/// One closed span. Times are nanoseconds since the process's trace epoch
/// (first trace-infrastructure use).
struct TraceEvent {
  const char* name = nullptr;  ///< static string from the HFC_TRACE_SPAN site
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t thread = 0;  ///< dense per-process thread index
  std::uint32_t depth = 0;   ///< nesting depth on that thread (0 = top level)
};

/// True when span recording is active. Initialised from HFC_TRACE=1 at
/// first use (which also arms the at-exit chrome-trace writer; any value
/// other than 0 or 1 warns once and leaves tracing off); tests may
/// override it at runtime via set_enabled_for_testing.
[[nodiscard]] bool trace_enabled() noexcept;

/// The global ring's capacity as HFC_TRACE_BUF resolves it (default
/// 131072 events; malformed, negative or zero values warn once and fall
/// back to the default). Re-read on each call; the ring reads it once.
[[nodiscard]] std::size_t trace_capacity_from_env();

/// Bounded global ring of closed spans.
class TraceBuffer {
 public:
  [[nodiscard]] static TraceBuffer& global();

  void record(const TraceEvent& event) noexcept;

  /// Events recorded so far (at most `capacity`), in completion order.
  /// Call only while no spans are closing (e.g. after parallel work has
  /// joined); the exporter runs at exit when everything is quiescent.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t dropped() const noexcept;

  /// Drop all recorded events (testing).
  void clear() noexcept;
  /// Replace the buffer with an empty one of `capacity` events (testing).
  void resize_for_testing(std::size_t capacity);

  /// Emit the chrome://tracing JSON document ("traceEvents" array of
  /// complete "X" events, microsecond timestamps).
  void write_chrome_trace(std::ostream& out) const;
  /// write_chrome_trace to `path`; returns false if the file can't be
  /// opened.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  explicit TraceBuffer(std::size_t capacity);
  std::size_t capacity_ = 0;
  std::unique_ptr<TraceEvent[]> ring_;
  std::atomic<std::size_t> next_{0};
};

/// Runtime override of the HFC_TRACE flag, for tests that exercise the
/// span machinery without re-exec'ing with the environment set. Does not
/// arm or disarm the at-exit writer.
void set_trace_enabled_for_testing(bool enabled);

/// Nanoseconds since the process trace epoch.
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// RAII span; use through HFC_TRACE_SPAN. `name` must outlive the
/// process (string literals at the call sites).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept {
    if (trace_enabled()) open(name);
  }
  ~TraceSpan() {
    if (name_ != nullptr) close();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(const char* name) noexcept;
  void close() noexcept;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace hfc::obs

#if defined(HFC_OBS_NO_TRACING)
#define HFC_TRACE_SPAN(name) ((void)0)
#else
#define HFC_OBS_CONCAT_IMPL(a, b) a##b
#define HFC_OBS_CONCAT(a, b) HFC_OBS_CONCAT_IMPL(a, b)
#define HFC_TRACE_SPAN(name) \
  ::hfc::obs::TraceSpan HFC_OBS_CONCAT(hfc_obs_span_, __LINE__)(name)
#endif
