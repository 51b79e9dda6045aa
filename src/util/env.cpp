#include "util/env.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <unordered_set>

namespace hfc {

namespace {

std::mutex g_mu;
std::unordered_set<std::string> g_warned;
std::size_t g_warning_count = 0;

/// Numeric-fallback form of warn_env_once.
void warn_once(const char* name, const char* raw, const char* why,
               std::uint64_t fallback) {
  warn_env_once(name, raw, why, std::to_string(fallback).c_str());
}

/// `raw` without surrounding spaces and tabs.
std::string trimmed(const char* raw) {
  const std::string s(raw);
  const std::size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  return s.substr(begin, s.find_last_not_of(" \t") - begin + 1);
}

}  // namespace

void warn_env_once(const char* name, const char* raw, const char* why,
                   const char* fallback) {
  std::lock_guard<std::mutex> lk(g_mu);
  if (!g_warned.insert(name).second) return;
  ++g_warning_count;
  std::cerr << "[hfc] warning: ignoring " << name << "=\"" << raw << "\" ("
            << why << "); using default " << fallback << "\n";
}

bool parse_u64(const char* raw, std::uint64_t& out, const char*& why) {
  const std::string s = trimmed(raw);
  if (s.empty()) {
    why = "empty value";
    return false;
  }
  if (s[0] == '-' || s[0] == '+') {
    why = "not a plain non-negative integer";
    return false;
  }
  // Digits only: strtoull alone would skip leading "\n", "\v" or "\r"
  // and then accept a sign after them.
  if (s.find_first_not_of("0123456789") != std::string::npos) {
    why = "not a number";
    return false;
  }
  errno = 0;
  char* parse_end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &parse_end, 10);
  if (parse_end == s.c_str() || *parse_end != '\0') {
    why = "not a number";
    return false;
  }
  if (errno == ERANGE) {
    why = "out of 64-bit range";
    return false;
  }
  out = static_cast<std::uint64_t>(v);
  return true;
}

std::size_t env_size_t(const char* name, std::size_t fallback,
                       std::size_t min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  std::uint64_t v = 0;
  const char* why = "";
  if (!parse_u64(raw, v, why)) {
    warn_once(name, raw, why, fallback);
    return fallback;
  }
  if (v < min_value) {
    warn_once(name, raw, "below the minimum for this knob", fallback);
    return fallback;
  }
  return static_cast<std::size_t>(v);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  std::uint64_t v = 0;
  const char* why = "";
  if (!parse_u64(raw, v, why)) {
    warn_once(name, raw, why, fallback);
    return fallback;
  }
  return v;
}

std::size_t env_choice(const char* name,
                       std::initializer_list<const char*> choices,
                       std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  std::string expected = "expected ";
  std::size_t i = 0;
  for (const char* choice : choices) {
    if (std::strcmp(raw, choice) == 0) return i;
    expected += (i++ == 0 ? "" : "|");
    expected += choice;
  }
  warn_env_once(name, raw, expected.c_str(), choices.begin()[fallback]);
  return fallback;
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string s = trimmed(raw);
  if (s == "1") return true;
  if (s == "0") return false;
  warn_env_once(name, raw, "expected 0|1", fallback ? "1" : "0");
  return fallback;
}

const std::vector<EnvKnob>& registered_knobs() {
  // Sorted by name; test_knobs.cpp asserts the order so the `hfc_cli
  // knobs` dump stays stable and diffs cleanly.
  static const std::vector<EnvKnob> knobs = {
      {"HFC_BENCH_JSON", "1",
       "write BENCH_<name>.json next to each bench binary (0 = suppress)",
       "bench"},
      {"HFC_CHURN_BATCH", "16",
       "churn events per apply() batch in bench_churn_dynamic", "bench"},
      {"HFC_CHURN_EVENTS", "320",
       "churn stream length per size in bench_churn_dynamic", "bench"},
      {"HFC_CHURN_N", "0",
       "single universe-size override for bench_churn_dynamic (0 = sweep)",
       "bench"},
      {"HFC_DIST_CACHE_ROWS", "per-consumer",
       "row capacity of the truth-distance LRU row cache", "core"},
      {"HFC_DIST_N", "20000",
       "overlay size for bench_distance_scaling", "bench"},
      {"HFC_DIST_REQUESTS", "2000",
       "routed requests in bench_distance_scaling", "bench"},
      {"HFC_FAULT_PLAN", "(none)",
       "fault schedule spec armed by FaultPlan::from_env "
       "(crash@t:n;recover@t:n;...)", "core"},
      {"HFC_FAULT_SEED", "1",
       "seed for FaultPlan::random when the caller has no opinion", "core"},
      {"HFC_FULL", "0",
       "1 = paper-scale benchmark configurations instead of reduced ones",
       "bench"},
      {"HFC_ML_AUTO_N", "100000",
       "proxy count at which kAuto framework builds switch to the "
       "bounded-fanout multilevel stack", "core"},
      {"HFC_ML_FANOUT", "32",
       "children per group in bounded-fanout multilevel builds "
       "(leaf clusters hold 8x this many nodes)", "core"},
      {"HFC_ML_PAR_GROUP", "4096",
       "partition-cell size cap for the group-local pipeline's local "
       "phase", "core"},
      {"HFC_ML_PAR_MIN_N", "8192",
       "point count at which the group-local pipeline (margin-safe "
       "per-cell Borůvka + parallel Zahn cut) takes over from the single "
       "global sweep", "core"},
      {"HFC_ML_STRETCH_N", "100000",
       "proxy count of the multilevel-vs-flat-oracle stretch stage in "
       "bench_multilevel_scaling", "bench"},
      {"HFC_ML_STRETCH_REQUESTS", "500",
       "routed requests in the stretch stage of bench_multilevel_scaling",
       "bench"},
      {"HFC_REQUESTS", "per-bench",
       "request-batch size used by several benches", "bench"},
      {"HFC_RUNS", "2 (5 full)",
       "independent underlay runs in bench_fig10_path_efficiency", "bench"},
      {"HFC_SCT_TTL", "0",
       "soft-state TTL in ms for protocol SCT entries (0 = no expiry)",
       "core"},
      {"HFC_SERVE_CACHE", "4096",
       "route-cache capacity per shard in the serving engine", "core"},
      {"HFC_SERVE_HOT", "90",
       "percent of bench_serving_throughput requests drawn from the hot set",
       "bench"},
      {"HFC_SERVE_N", "2000",
       "universe size for bench_serving_throughput", "bench"},
      {"HFC_SERVE_SHARDS", "16",
       "shard count of the serving engine's route cache", "core"},
      {"HFC_SERVE_WAVES", "24",
       "request waves per configuration in bench_serving_throughput",
       "bench"},
      {"HFC_SERVE_WAVE_REQUESTS", "256",
       "requests per wave in bench_serving_throughput", "bench"},
      {"HFC_SESSIONS", "600 (2000 full)",
       "session count in bench_ablation_qos_aggregation", "bench"},
      {"HFC_SPATIAL_MIN_N", "256",
       "smallest point count that turns the spatial index on (above n "
       "forces the brute scan)", "core"},
      {"HFC_SPATIAL_REBUILD_BUDGET", "0",
       "DynamicSpatialSet mutations tolerated before a rebuild "
       "(0 = auto max(32, indexed/4))", "core"},
      {"HFC_SPEEDUP_N", "512",
       "problem size for bench_parallel_speedup", "bench"},
      {"HFC_STREAM_MODE", "locating",
       "streaming regraft strategy: locating | clique (DESIGN.md §15)",
       "core"},
      {"HFC_STREAM_N", "10000",
       "receiver count driven by bench_chaos_streaming", "bench"},
      {"HFC_STREAM_REPAIR_BUDGET", "8",
       "attach candidates a streaming regraft refines through the unicast "
       "router", "core"},
      {"HFC_STREAM_SEED", "1",
       "seed for bench_chaos_streaming's churn and fault schedules",
       "bench"},
      {"HFC_STREAM_SOURCES", "2",
       "concurrent stream sources in bench_chaos_streaming", "bench"},
      {"HFC_THREADS", "hardware",
       "worker-thread count of the global pool", "core"},
      {"HFC_TOPOLOGIES", "3 (10 full)",
       "underlay count in the fig9 overhead benches", "bench"},
      {"HFC_TOPO_CMP_N", "20000",
       "size of the spatial-vs-brute A/B stage in bench_topology_scaling",
       "bench"},
      {"HFC_TOPO_DIM", "5",
       "coordinate dimension in bench_topology_scaling", "bench"},
      {"HFC_TOPO_MST_N", "100000",
       "size of the MST global-sweep-vs-group-pipeline stage in "
       "bench_topology_scaling", "bench"},
      {"HFC_TOPO_N", "1000000",
       "size of the big build-and-route stage in bench_topology_scaling",
       "bench"},
      {"HFC_TOPO_REQUESTS", "200",
       "routed probes in bench_topology_scaling", "bench"},
      {"HFC_TRACE", "0",
       "1 = write a chrome://tracing JSON of the span ring at exit", "core"},
      {"HFC_TRACE_BUF", "131072",
       "capacity of the bounded trace-span ring", "core"},
      {"HFC_TRACE_FILE", "hfc_trace.json",
       "output path for the HFC_TRACE=1 dump", "core"},
      {"HFC_TRIALS", "15 (40 full)",
       "trial count in bench_multicast_sharing", "bench"},
      {"HFC_WAVES", "6",
       "churn waves in bench_churn_dynamic part 1", "bench"},
  };
  return knobs;
}

const EnvKnob* find_knob(std::string_view name) {
  const std::vector<EnvKnob>& knobs = registered_knobs();
  const auto it = std::lower_bound(
      knobs.begin(), knobs.end(), name,
      [](const EnvKnob& k, std::string_view n) { return k.name < n; });
  if (it == knobs.end() || name != it->name) return nullptr;
  return &*it;
}

void reset_env_warnings() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_warned.clear();
  g_warning_count = 0;
}

std::size_t env_warning_count() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_warning_count;
}

}  // namespace hfc
