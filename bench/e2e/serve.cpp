// serve_hot / serve_churn: the route-serving engine over a churning
// 5000-proxy universe with a replayed crash plan. One dispatcher sends
// waves of requests; every request waits for its wave.
//
// Blob layout: node i sits in blob i % blobs. The first half of the blobs
// is the request side (endpoints; never churned or crashed), the rest the
// churn side, where membership toggles and crashes land. The universe, the
// hot pool and the crash plan are fixed; the run's seed drives which
// requests each wave asks and the membership toggles. (A seed-drawn crash
// plan moved throughput by 20% between seeds: how long proxies stay down
// decides how much routing runs degraded.)
//
//   serve_hot   — 256-request waves, 90% drawn from a 48-request hot pool,
//                 a toggle batch of <= 6 nodes every 4th wave: the working
//                 set fits the cache, so lookups and coalescing dominate.
//   serve_churn — 64-request waves, all fresh, a 32-toggle batch and a
//                 publish before every wave: the cache is bypassed, and
//                 every wave pays churn, a snapshot capture and solves.
#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "fault/fault_plan.h"
#include "harness.h"
#include "serve/serving_engine.h"
#include "util/rng.h"
#include "util/stats.h"

namespace e2e {
namespace {

using namespace hfc;

constexpr int kCatalog = 8;
constexpr std::size_t kHotPool = 48;
/// Waves per pass over the crash plan (2 crashes); the plan heals
/// everything by 70% of its horizon, so passes chain without leftover
/// crashes. Short passes keep the share of degraded waves the same in
/// every run, however many waves the host lets it complete.
constexpr std::size_t kPlanWaves = 64;
constexpr double kWaveSpacingMs = 100.0;
constexpr std::uint64_t kUniverseSeed = 6300;
/// Every 16th wave, the first 32 requests are re-routed live and compared.
/// Live routing is serial and uncached, so a denser sample would eat the
/// measured phase.
constexpr std::size_t kCheckEvery = 16;
constexpr std::size_t kCheckRequests = 32;

struct Shape {
  std::size_t nodes;
  std::size_t wave_requests;
  int hot_percent;
  std::size_t toggle_every;  ///< waves between churn batches
  int toggles;               ///< toggle attempts per batch
};

Shape shape_for(bool hot, bool smoke) {
  Shape s = hot ? Shape{5000, 256, 90, 4, 6} : Shape{5000, 64, 0, 1, 32};
  if (smoke) s.nodes = 1600;
  return s;
}

std::vector<Point> blob_universe(Rng& rng, std::size_t n, std::size_t blobs) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = i % blobs;
    pts.push_back({static_cast<double>(b % 8) * 150.0 +
                       rng.uniform_real(-6.0, 6.0),
                   static_cast<double>(b / 8) * 150.0 +
                       rng.uniform_real(-6.0, 6.0)});
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

struct ServeStack {
  std::unique_ptr<DynamicHfcOverlay> overlay;
  FaultPlan plan;  ///< crash/recover events on the churn side only
  std::unique_ptr<serve::ServingEngine> engine;
};

}  // namespace

void run_serve(Run& run, bool hot) {
  const bool smoke = run.opts().smoke;
  const Shape shape = shape_for(hot, smoke);
  const std::size_t n = shape.nodes;
  const std::size_t blobs = std::max<std::size_t>(8, n / 200);
  const auto on_request_side = [blobs](NodeId node) {
    return static_cast<std::size_t>(node.idx()) % blobs < blobs / 2;
  };
  const std::uint64_t seed = run.opts().seed;
  // Three in smoke runs, so that the median set-up memory, like the full
  // run's, leaves out the first set-up's one-time process costs.
  const int setups = smoke ? 3 : 15;

  Rng input_rng(kUniverseSeed);
  const std::vector<Point> pts = blob_universe(input_rng, n, blobs);
  const ServicePlacement placement = random_placement(input_rng, n);
  FaultPlanParams fp;
  fp.horizon_ms = static_cast<double>(kPlanWaves) * kWaveSpacingMs;
  fp.crashes = 2;
  fp.mean_downtime_ms = fp.horizon_ms / 4.0;
  fp.partitions = 0;
  fp.bursts = 0;

  EndToEnd e2e;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    stack = std::make_unique<ServeStack>();
    ServeStack& s = *stack;
    {
      Run::Setup setup(run);
      s.overlay = run.call("dynamic.overlay_ctor", [&] {
        return std::make_unique<DynamicHfcOverlay>(
            pts, placement, ZahnParams{}, BorderSelection::kClosestPair,
            ChurnMode::kIncremental);
      });
      s.plan = run.call("fault.plan", [&] {
        const FaultPlan raw =
            FaultPlan::random(fp, s.overlay->universe_topology(),
                              kUniverseSeed);
        std::vector<FaultEvent> kept;
        for (const FaultEvent& ev : raw.events()) {
          if ((ev.kind == FaultKind::kCrash ||
               ev.kind == FaultKind::kRecover) &&
              !on_request_side(ev.node)) {
            kept.push_back(ev);
          }
        }
        return FaultPlan(std::move(kept));
      });
      s.engine = run.call("serve.engine_ctor", [&] {
        return std::make_unique<serve::ServingEngine>(*s.overlay);
      });
    }
  }
  DynamicHfcOverlay& overlay = *stack->overlay;
  serve::ServingEngine& engine = *stack->engine;
  const std::vector<FaultEvent>& events = stack->plan.events();

  std::vector<NodeId> endpoints;
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId node(static_cast<std::int32_t>(v));
    if (on_request_side(node)) endpoints.push_back(node);
  }
  Rng hot_rng = Rng(kUniverseSeed).fork(1);
  std::vector<ServiceRequest> hot_pool;
  for (std::size_t i = 0; i < kHotPool; ++i) {
    hot_pool.push_back(random_request(hot_rng, endpoints));
  }
  Rng workload = Rng(seed).fork(1);
  Rng churn = Rng(seed).fork(2);

  std::vector<double> update_ms;
  std::set<NodeId> crashed;
  std::size_t next_event = 0;
  std::vector<ServiceRequest> wave;
  std::size_t waves = 0;
  {
    Run::Span measure(run, "e2e.measure");
    run.begin_measure(48);
    while (run.more(waves)) {
      const std::size_t w = waves++;
      run.set_request(w + 1);
      double update = 0.0;
      if (w % shape.toggle_every == shape.toggle_every - 1) {
        std::vector<ChurnEvent> batch;
        std::set<std::int32_t> touched;
        for (int k = 0; k < shape.toggles; ++k) {
          const NodeId node(churn.uniform_int(0, static_cast<int>(n) - 1));
          if (on_request_side(node) || crashed.count(node) != 0 ||
              !touched.insert(node.value()).second) {
            continue;
          }
          batch.push_back(overlay.is_active(node)
                              ? ChurnEvent::make_deactivate(node)
                              : ChurnEvent::make_activate(node));
        }
        if (!batch.empty()) {
          run.call("dynamic.apply", [&] { return overlay.apply(batch); });
          update += run.last_ms();
        }
      }
      // Crash-plan transitions up to this wave's point on the plan's axis.
      const std::size_t pos = w % kPlanWaves;
      if (pos == 0) {
        next_event = 0;
        crashed.clear();
      }
      const double wave_time =
          (static_cast<double>(pos) + 1.0) * kWaveSpacingMs;
      while (next_event < events.size() &&
             events[next_event].time_ms <= wave_time) {
        const FaultEvent& ev = events[next_event++];
        if (ev.kind == FaultKind::kCrash) crashed.insert(ev.node);
        if (ev.kind == FaultKind::kRecover) crashed.erase(ev.node);
      }
      run.call("serve.publish", [&] {
        return engine.publish({crashed.begin(), crashed.end()});
      });
      update += run.last_ms();
      update_ms.push_back(update);

      wave.clear();
      for (std::size_t r = 0; r < shape.wave_requests; ++r) {
        if (workload.uniform_int(0, 99) < shape.hot_percent) {
          wave.push_back(hot_pool[workload.pick_index(hot_pool.size())]);
        } else {
          wave.push_back(random_request(workload, endpoints));
        }
      }
      const std::vector<serve::ServedRoute> served = run.call(
          "serve.wave",
          [&] { return engine.serve(std::span<const ServiceRequest>(wave)); });
      const double wave_ms = run.last_ms();
      e2e.request_ms.push_back(wave_ms);
      e2e.add_requests(served.size(), update + wave_ms);
      run.attempt(served.size());

      for (const serve::ServedRoute& route : served) {
        run.mix(path_digest(route.path));
        if (route.path.found) {
          e2e.add_cost(route.path.cost);
        } else {
          run.fail("request unserved");
        }
      }
      if (w % kCheckEvery != 0) continue;
      // Served routes must equal live routing on the overlay, degraded
      // around the crashed proxies, and satisfy their requests.
      Run::Check check(run);
      const auto up = [&crashed](NodeId node) {
        return crashed.count(node) == 0;
      };
      const std::size_t checked = std::min(wave.size(), kCheckRequests);
      for (std::size_t i = 0; i < checked; ++i) {
        const ServicePath live = crashed.empty()
                                     ? overlay.route(wave[i])
                                     : overlay.route_degraded(wave[i], up);
        if (!same_path(live, served[i].path)) {
          run.violate("served route differs from live routing");
        } else if (live.found &&
                   !satisfies(live, wave[i], overlay.universe_network())) {
          run.violate("route breaks its request (services, hosts, endpoints)");
        }
      }
    }
    run.set_request(0);
  }
  run.metric("waves", static_cast<double>(waves), "count");
  run.metric("update_p50_ms", percentile(update_ms, 50.0), "ms");
  run.metric("update_p99_ms", percentile(update_ms, 99.0), "ms");
  run.report(e2e);
}

}  // namespace e2e
