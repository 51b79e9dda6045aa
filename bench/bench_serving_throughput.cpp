// Serving-engine throughput bench (DESIGN.md §12).
//
// A churning universe with a replayed fault plan is served two ways, wave
// by wave, against *identical* state:
//
//   baseline — one-at-a-time HierarchicalServiceRouter calls on the live
//              overlay (route(), or route_degraded() with an up-predicate
//              while proxies are crashed — so every degraded request pays
//              its own surviving-border-pair re-scan);
//   engine   — ServingEngine::serve(): snapshot publication, the
//              generation-invalidated route cache, wave coalescing, and
//              parallel miss solves.
//
// Every wave asserts byte-identical routes between the two, and the whole
// scenario runs once per thread count (1 and 4); the serve.* invariant
// counters must match exactly across arms — the determinism contract,
// checked here at bench scale on top of the unit tests.
//
// Knobs: HFC_SERVE_N (universe size, default 2000), HFC_SERVE_WAVES (24),
// HFC_SERVE_WAVE_REQUESTS (requests per wave, 256), HFC_SERVE_HOT
// (percent of requests drawn from the hot pool, 90). The workload keeps
// request endpoints in churn-free clusters so hot requests stay cachable;
// churn and crashes land in the remaining clusters, forcing publishes and
// epoch flushes at fault-plan transitions. BENCH_serving_throughput.json
// carries the speedup, hit rate, and p50/p99 request latencies.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/experiment.h"
#include "dynamic/dynamic_overlay.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "serve/serving_engine.h"
#include "util/rng.h"

namespace {

using namespace hfc;

constexpr int kCatalog = 8;

/// Contiguous blob layout: node i sits in blob i % blobs, blobs laid out
/// on a 150-spaced grid. Blobs [0, blobs/2) are the *request* side —
/// never churned, never crashed — and the rest is the *churn* side, so
/// hot routes between request blobs keep their cluster generations while
/// the churn side forces structure-generation advances and publishes.
std::vector<Point> blob_universe(Rng& rng, std::size_t n, std::size_t blobs) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = i % blobs;
    const double cx = static_cast<double>(b % 8) * 150.0;
    const double cy = static_cast<double>(b / 8) * 150.0;
    pts.push_back({cx + rng.uniform_real(-6.0, 6.0),
                   cy + rng.uniform_real(-6.0, 6.0)});
  }
  return pts;
}

ServicePlacement random_placement(Rng& rng, std::size_t n) {
  ServicePlacement placement(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::int32_t> own{rng.uniform_int(0, kCatalog - 1)};
    if (rng.chance(0.5)) own.insert(rng.uniform_int(0, kCatalog - 1));
    for (const std::int32_t s : own) placement[i].push_back(ServiceId(s));
  }
  return placement;
}

ServiceRequest random_request(Rng& rng, const std::vector<NodeId>& endpoints) {
  ServiceRequest req;
  req.source = rng.pick(endpoints);
  do {
    req.destination = rng.pick(endpoints);
  } while (req.destination == req.source);
  std::vector<ServiceId> chain;
  const int len = rng.uniform_int(1, 3);
  for (int k = 0; k < len; ++k) {
    chain.push_back(ServiceId(rng.uniform_int(0, kCatalog - 1)));
  }
  req.graph = ServiceGraph::linear(chain);
  return req;
}

std::uint64_t path_digest(const ServicePath& path) {
  std::uint64_t h = splitmix64(path.found ? 0x11ull : 0x22ull);
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &path.cost, sizeof(cost_bits));
  h = splitmix64(h ^ cost_bits);
  for (const ServiceHop& hop : path.hops) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(hop.proxy.value() + 1));
    h = splitmix64(h ^ (static_cast<std::uint64_t>(hop.service.value()) + 7));
  }
  return h;
}

bool same_path(const ServicePath& a, const ServicePath& b) {
  return a.found == b.found && a.cost == b.cost && a.hops == b.hops;
}

/// Scenario dimensions, fixed before either arm runs.
struct Scenario {
  std::size_t n = 0;
  std::size_t blobs = 0;
  std::size_t waves = 0;
  std::size_t wave_requests = 0;
  int hot_percent = 0;
  std::vector<Point> pts;
  ServicePlacement placement;
  FaultPlan plan;  ///< crash/recover events restricted to the churn side
  double horizon_ms = 0.0;
};

bool on_request_side(const Scenario& s, NodeId node) {
  return static_cast<std::size_t>(node.idx()) % s.blobs < s.blobs / 2;
}

/// Result of one full scenario replay at a fixed thread count.
struct ArmResult {
  std::vector<std::uint64_t> digests;  ///< per request, in serve order
  double baseline_ms = 0.0;
  double engine_ms = 0.0;
  std::size_t requests = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  double hit_rate = 0.0;
  bool paths_match = true;
};

/// The serve.* counters that must be bit-identical across thread counts
/// (histogram sums are float timing and excluded by design).
const std::vector<std::string>& invariant_counters() {
  static const std::vector<std::string> names = {
      "serve.requests",       "serve.waves",         "serve.cache_hits",
      "serve.cache_misses",   "serve.cache_stale",   "serve.coalesced",
      "serve.solves",         "serve.cache_inserts", "serve.cache_evictions",
      "serve.publishes",      "serve.publish_skips", "serve.snapshot_captures",
      "serve.baked_borders",
  };
  return names;
}

ArmResult run_arm(const Scenario& s, std::size_t threads) {
  set_global_threads(threads);
  const auto before = obs::MetricsRegistry::global().snapshot();

  DynamicHfcOverlay overlay(s.pts, s.placement, {},
                            BorderSelection::kClosestPair);
  serve::ServingEngine engine(overlay);

  std::vector<NodeId> endpoints;
  for (std::size_t v = 0; v < s.n; ++v) {
    const NodeId node(static_cast<std::int32_t>(v));
    if (on_request_side(s, node)) endpoints.push_back(node);
  }

  // The hot pool: a fixed set of requests the workload keeps re-asking.
  Rng rng(6400);
  std::vector<ServiceRequest> hot_pool;
  Rng hot_rng = rng.fork(1);
  for (int i = 0; i < 48; ++i) {
    hot_pool.push_back(random_request(hot_rng, endpoints));
  }
  Rng workload = rng.fork(2);
  Rng churn = rng.fork(3);

  ArmResult result;
  std::set<NodeId> crashed;
  std::size_t next_event = 0;
  for (std::size_t w = 0; w < s.waves; ++w) {
    // Churn side mutates: a small batch of deactivate/reactivate toggles
    // every fourth wave, plus the fault plan's crash/recover transitions
    // up to this wave's position on the plan's time axis. Every mutation
    // wave flushes the cache (service fingerprints cover every hosting
    // cluster), so the cadence sets the steady-state hit rate.
    if (w % 4 == 1) {
      std::vector<ChurnEvent> batch;
      std::set<std::int32_t> touched;
      for (int k = 0; k < 6; ++k) {
        const std::int32_t v =
            churn.uniform_int(0, static_cast<int>(s.n) - 1);
        const NodeId node(v);
        if (on_request_side(s, node)) continue;
        if (crashed.count(node) != 0) continue;
        if (!touched.insert(v).second) continue;
        batch.push_back(overlay.is_active(node)
                            ? ChurnEvent::make_deactivate(node)
                            : ChurnEvent::make_activate(node));
      }
      if (!batch.empty()) (void)overlay.apply(batch);
    }
    const double wave_time =
        (static_cast<double>(w) + 1.0) * s.horizon_ms /
        static_cast<double>(s.waves);
    const auto& events = s.plan.events();
    while (next_event < events.size() &&
           events[next_event].time_ms <= wave_time) {
      const FaultEvent& ev = events[next_event++];
      if (ev.kind == FaultKind::kCrash) crashed.insert(ev.node);
      if (ev.kind == FaultKind::kRecover) crashed.erase(ev.node);
    }
    (void)engine.publish({crashed.begin(), crashed.end()});

    std::vector<ServiceRequest> wave_reqs;
    wave_reqs.reserve(s.wave_requests);
    for (std::size_t r = 0; r < s.wave_requests; ++r) {
      if (workload.uniform_int(0, 99) < s.hot_percent) {
        wave_reqs.push_back(
            hot_pool[workload.pick_index(hot_pool.size())]);
      } else {
        wave_reqs.push_back(random_request(workload, endpoints));
      }
    }

    // Baseline: the live router, serially, one request at a time.
    std::vector<ServicePath> base;
    base.reserve(wave_reqs.size());
    const auto base_start = std::chrono::steady_clock::now();
    if (crashed.empty()) {
      for (const ServiceRequest& req : wave_reqs) {
        base.push_back(overlay.route(req));
      }
    } else {
      const auto up = [&crashed](NodeId node) {
        return crashed.count(node) == 0;
      };
      for (const ServiceRequest& req : wave_reqs) {
        base.push_back(overlay.route_degraded(req, up));
      }
    }
    result.baseline_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - base_start)
            .count();

    const auto serve_start = std::chrono::steady_clock::now();
    const std::vector<serve::ServedRoute> served =
        engine.serve(std::span<const ServiceRequest>(wave_reqs));
    result.engine_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - serve_start)
            .count();

    for (std::size_t i = 0; i < served.size(); ++i) {
      result.digests.push_back(path_digest(served[i].path));
      if (!same_path(base[i], served[i].path)) {
        result.paths_match = false;
        std::cerr << "MISMATCH wave " << w << " request " << i << ": "
                  << base[i].cost << " vs " << served[i].path.cost << "\n";
      }
    }
    result.requests += served.size();
  }

  const auto after = obs::MetricsRegistry::global().snapshot();
  for (const std::string& name : invariant_counters()) {
    result.counters.emplace_back(name,
                                 obs::counter_delta(before, after, name));
  }
  const std::uint64_t hits = obs::counter_delta(before, after,
                                                "serve.cache_hits");
  result.hit_rate = result.requests == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(result.requests);
  set_global_threads(0);
  return result;
}

}  // namespace

int main() {
  using namespace hfc;
  benchutil::BenchJson bench("serving_throughput");

  Scenario s;
  s.n = benchutil::env_size("HFC_SERVE_N", 2000);
  s.waves = benchutil::env_size("HFC_SERVE_WAVES", 24);
  s.wave_requests = benchutil::env_size("HFC_SERVE_WAVE_REQUESTS", 256);
  s.hot_percent = static_cast<int>(std::min<std::size_t>(
      100, benchutil::env_size("HFC_SERVE_HOT", 90)));
  s.blobs = std::max<std::size_t>(8, s.n / 200);
  s.horizon_ms = static_cast<double>(s.waves) * 100.0;

  Rng rng(6300);
  s.pts = blob_universe(rng, s.n, s.blobs);
  s.placement = random_placement(rng, s.n);

  // A PR 5 fault plan drives the crash/recover schedule; victims are
  // re-filtered to the churn side so request endpoints always stay up.
  {
    DynamicHfcOverlay scout(s.pts, s.placement, {},
                            BorderSelection::kClosestPair);
    FaultPlanParams fp;
    fp.horizon_ms = s.horizon_ms;
    fp.crashes = 6;
    fp.mean_downtime_ms = s.horizon_ms / 4.0;
    fp.partitions = 0;
    fp.bursts = 0;
    const FaultPlan raw =
        FaultPlan::random(fp, scout.universe_topology(), 6301);
    std::vector<FaultEvent> kept;
    for (const FaultEvent& ev : raw.events()) {
      if (ev.kind != FaultKind::kCrash && ev.kind != FaultKind::kRecover) {
        continue;
      }
      if (on_request_side(s, ev.node)) continue;
      kept.push_back(ev);
    }
    s.plan = FaultPlan(std::move(kept));
    std::cout << "fault plan: " << s.plan.serialize() << "\n";
  }

  std::cout << "Serving engine vs serial live routing (n=" << s.n << ", "
            << s.waves << " waves x " << s.wave_requests << " requests, "
            << s.hot_percent << "% hot)\n";
  std::cout << format_row({"threads", "baseline ms", "engine ms", "speedup",
                           "hit rate"})
            << "\n";

  std::vector<std::size_t> arms{1, 4};
  std::vector<ArmResult> results;
  for (const std::size_t threads : arms) {
    ArmResult r = run_arm(s, threads);
    const double speedup = r.engine_ms > 0 ? r.baseline_ms / r.engine_ms : 0;
    std::cout << format_row({std::to_string(threads),
                             benchutil::fmt(r.baseline_ms, 1),
                             benchutil::fmt(r.engine_ms, 1),
                             benchutil::fmt(speedup, 1) + "x",
                             benchutil::fmt(100.0 * r.hit_rate, 1) + "%"})
              << "\n";
    bench.note("baseline_ms_t" + std::to_string(threads), r.baseline_ms);
    bench.note("engine_ms_t" + std::to_string(threads), r.engine_ms);
    bench.note("speedup_t" + std::to_string(threads), speedup);
    bench.note("hit_rate_t" + std::to_string(threads), r.hit_rate);
    bench.add_trials(r.requests);
    if (!r.paths_match) {
      std::cerr << "FAIL: engine routes diverge from the serial baseline\n";
      return 1;
    }
    results.push_back(std::move(r));
  }

  // Determinism across thread counts: identical routes, identical serve.*
  // invariant counters.
  for (std::size_t a = 1; a < results.size(); ++a) {
    if (results[a].digests != results[0].digests) {
      std::cerr << "FAIL: served routes differ between thread counts "
                << arms[0] << " and " << arms[a] << "\n";
      return 1;
    }
    for (std::size_t c = 0; c < results[0].counters.size(); ++c) {
      if (results[a].counters[c] != results[0].counters[c]) {
        std::cerr << "FAIL: counter " << results[0].counters[c].first
                  << " differs between thread counts: "
                  << results[0].counters[c].second << " vs "
                  << results[a].counters[c].second << "\n";
        return 1;
      }
    }
  }
  std::cout << "routes byte-identical to baseline; serve.* counters "
               "identical across thread counts\n";

  const auto snap = obs::MetricsRegistry::global().snapshot();
  const double p50 =
      obs::histogram_quantile(snap, "serve.request_ms", 0.50);
  const double p99 =
      obs::histogram_quantile(snap, "serve.request_ms", 0.99);
  std::cout << "request latency p50=" << benchutil::fmt(p50, 4)
            << "ms p99=" << benchutil::fmt(p99, 4) << "ms\n";
  bench.note("request_p50_ms", p50);
  bench.note("request_p99_ms", p99);
  return 0;
}
