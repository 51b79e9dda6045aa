// Shared machinery of the end-to-end benchmark driver (bench/e2e/README.md).
//
// Every call the driver makes into a library module goes through
// `Run::call`, which times it as `<module>.<call>`. The durations give the
// per-request latencies and each call's busy and self time; with tracing on
// they are also kept as spans (start, end, parent span, request id) and
// written as a Chrome-trace file at exit. Counter metrics are deltas of the
// library's own registry, with the movements caused by the driver's untimed
// correctness checks taken out.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "routing/service_path.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Digest of one route: found flag, exact cost bits and every hop.
[[nodiscard]] std::uint64_t path_digest(const hfc::ServicePath& path);

/// Routes equal in found flag, exact cost and hops.
[[nodiscard]] bool same_path(const hfc::ServicePath& a,
                             const hfc::ServicePath& b);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase; smoke runs do a fixed amount instead.
  double seconds = 15.0;
  std::size_t threads = 0;  ///< 0: the workload's pinned pool size
  std::string trace_path;  ///< empty: no spans are kept
  bool smoke = false;
};

/// The numbers every workload reports as its end-to-end metrics. A request
/// is what a client of the system asks for: a route (paper_flat, ml_build,
/// serve_*) or a membership change (stream_chaos).
///
/// The measured phase is cut into windows of at least kWindowMs of timed
/// calls. Each window yields a request rate and latency percentiles, and
/// the run reports their medians, so a stall of the shared host that hits
/// a window or two moves the result little.
struct EndToEnd {
  static constexpr double kWindowMs = 1000.0;

  std::vector<double> request_ms;  ///< time each request waited
  std::size_t requests = 0;
  std::vector<double> window_rates;  ///< requests per second of busy time
  std::vector<double> window_p50_ms;
  std::vector<double> window_p90_ms;
  std::vector<Clock::time_point> window_end;
  double path_cost_sum = 0.0;
  std::size_t path_cost_count = 0;

  /// `n` requests, whose latencies are already in request_ms, completed
  /// in `busy_ms` of timed calls.
  void add_requests(std::size_t n, double busy_ms);
  /// End the current window, however short.
  void close_window();
  void add_cost(double cost) {
    path_cost_sum += cost;
    ++path_cost_count;
  }

 private:
  double window_requests_ = 0.0;
  double window_ms_ = 0.0;
  std::size_t window_first_ = 0;  ///< first request_ms entry of the window
};

class Run {
 public:
  explicit Run(Options opts);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  [[nodiscard]] const Options& opts() const { return opts_; }

  /// RAII timer for one named call or driver phase. A span opened while
  /// another is open is its child; `name` must be a string literal.
  class Span {
   public:
    Span(Run& run, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    friend class Run;
    Run& run_;
    const char* name_;
    Span* parent_;
    Clock::time_point start_;
    double child_ms_ = 0.0;  ///< time covered by direct children
    std::size_t index_;      ///< slot in run_.spans_ (tracing only)
  };

  /// One set-up of the system under test: an `e2e.setup` span whose time
  /// is a `setup_s` sample, scaled by untimed host-speed reference kernels
  /// run just before and just after it, and a `setup_rss_mib` sample: the
  /// live resident memory it added. Every set-up builds one system
  /// (paper_flat keeps its earlier universes, the other workloads free the
  /// previous system first), so each sample is one system's memory.
  class Setup {
   public:
    explicit Setup(Run& run);
    ~Setup();
    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

   private:
    Run& run_;
    double kernel_before_ms_;
    double rss_before_mib_ = 0.0;
    std::optional<Span> span_;
  };

  /// Untimed correctness work: an `e2e.check` span whose registry counter
  /// movements are left out of the reported deltas.
  class Check {
   public:
    explicit Check(Run& run);
    ~Check();
    Check(const Check&) = delete;
    Check& operator=(const Check&) = delete;

   private:
    Run& run_;
    std::vector<hfc::obs::MetricSnapshot> before_;
    Span span_;
  };

  /// Time `fn()` as one call into a library layer and return its result;
  /// the duration is then last_ms().
  template <typename F>
  decltype(auto) call(const char* name, F&& fn) {
    Span span(*this, name);
    return fn();
  }
  [[nodiscard]] double last_ms() const { return last_ms_; }

  /// Request id stamped on the spans opened from now on (0 = none).
  void set_request(std::uint64_t id) { request_ = id; }

  /// Start the measured phase; `more(done)` then holds until the phase has
  /// run opts().seconds, or in smoke runs until `smoke_ops` are done. The
  /// first operation always runs.
  void begin_measure(std::size_t smoke_ops);
  [[nodiscard]] bool more(std::size_t done);

  /// Outcome accounting. `fail` marks an operation that did not succeed;
  /// `violate` a wrong output, which also makes the run incorrect.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);
  void violate(const std::string& what);

  /// Fold a value into the run's output digest.
  void mix(std::uint64_t value);

  /// Record a workload-specific metric.
  void metric(const std::string& name, double value, const std::string& unit);

  /// Record the end-to-end metrics every workload reports: the times as
  /// measured (`raw.*`) and scaled to the nominal host speed.
  void report(EndToEnd& e2e);

  /// Busy milliseconds of the calls named `name` so far.
  [[nodiscard]] double busy_ms(std::string_view name) const;

  /// Compute the per-layer metrics, print every metric, write the result
  /// JSON (and the trace when enabled). Returns the process exit code.
  int finish();

 private:
  struct SpanRecord {
    const char* name;
    double start_ms;
    double end_ms;
    std::size_t parent;  ///< kNoParent for the root
    std::uint64_t request;
  };
  struct CallStats {
    double busy_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> samples_ms;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  void close(Span& span);
  /// Time the host-speed reference kernel `times` times (harness.cpp);
  /// returns their mean.
  double calibrate(int times);
  [[nodiscard]] double counter(std::string_view name) const;
  void per_layer();
  void write_json(const std::string& path) const;
  void write_trace() const;

  Options opts_;
  Clock::time_point epoch_;
  std::vector<hfc::obs::MetricSnapshot> start_snapshot_;
  std::vector<hfc::obs::MetricSnapshot> end_snapshot_;
  /// Counter movements inside Check scopes, subtracted from the deltas.
  std::map<std::string, double> check_counts_;

  bool tracing_ = false;
  std::vector<SpanRecord> spans_;
  std::size_t dropped_spans_ = 0;
  Span* current_ = nullptr;
  std::unordered_map<std::string_view, CallStats> calls_;
  double last_ms_ = 0.0;
  std::uint64_t request_ = 0;

  Clock::time_point measure_start_;
  std::size_t smoke_ops_ = 0;
  struct Kernel {
    Clock::time_point at;
    double ms;
  };
  std::vector<Kernel> kernels_;
  Clock::time_point last_calibration_;
  std::vector<double> setup_ms_;
  std::vector<double> setup_slowdown_;  ///< per set-up, from its kernels
  std::vector<double> setup_rss_mib_;   ///< per set-up, live memory added

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t digest_ = 0x6a09e667f3bcc908ULL;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// The workloads, one translation unit each.
void run_paper_flat(Run& run);
void run_ml_build(Run& run);
void run_serve(Run& run, bool hot);
void run_stream_chaos(Run& run);

}  // namespace e2e
