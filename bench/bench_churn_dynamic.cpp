// Extension bench — dynamic membership under churn (paper §7, DESIGN.md §9).
//
// Part 1 (paper-flavoured): a 250-proxy framework universe churns in
// waves; we report clustering-quality decay and what restructure()
// recovers.
//
// Part 2 (the incremental churn engine): synthetic clustered universes at
// n in {1000, 5000} (plus 20000 under HFC_FULL) sustain a mixed
// leave/rejoin/add stream with a routed probe after every batch, once
// through the incremental engine and once through the full-rebuild
// oracle (tests/oracle/full_rebuild.h: routing state rebuilt from scratch
// before every probe), and we report events/sec for both. Knobs: HFC_CHURN_N (single size override), HFC_CHURN_EVENTS
// (stream length per size, default 320), HFC_CHURN_BATCH (events per
// apply() batch, default 16). The incremental run also reports its border
// repair work: full closest-pair rescans, add-scans (pairs whose staged
// additions were queried) and box rejects (additions settled by the other
// cluster's bounding box without a query). BENCH_churn_dynamic.json
// carries the events/sec and speedup numbers plus the registry snapshot
// (churn.events / churn.border_rescans / churn.full_rebuilds ...).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/experiment.h"
#include "dynamic/dynamic_overlay.h"
#include "obs/metrics.h"
#include "tests/oracle/full_rebuild.h"
#include "util/stats.h"

namespace {

using namespace hfc;

constexpr int kCatalog = 8;

/// One churn stream, pre-generated so both arms replay identical events:
/// batches of mixed deactivate/activate/add plus one routed probe per
/// batch (endpoints chosen active at that point in the stream).
struct ChurnStream {
  std::vector<std::vector<ChurnEvent>> batches;
  std::vector<ServiceRequest> probes;
  std::size_t events = 0;
};

std::vector<Point> blob_universe(Rng& rng, std::size_t n) {
  const std::size_t blobs = std::max<std::size_t>(4, n / 200);
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
    std::vector<ServiceId> services{ServiceId(rng.uniform_int(0, kCatalog - 1))};
    if (rng.chance(0.4)) {
      services.push_back(ServiceId(rng.uniform_int(0, kCatalog - 1)));
    }
    std::sort(services.begin(), services.end());
    services.erase(std::unique(services.begin(), services.end()),
                   services.end());
    placement[i] = std::move(services);
  }
  return placement;
}

ChurnStream make_stream(Rng rng, const std::vector<Point>& pts,
                        std::size_t events, std::size_t batch_size) {
  ChurnStream stream;
  std::vector<bool> active(pts.size(), true);
  std::size_t active_count = active.size();
  const auto pick_with = [&](bool want) {
    for (;;) {
      const std::size_t v = rng.pick_index(active.size());
      if (active[v] == want) return NodeId(static_cast<std::int32_t>(v));
    }
  };
  while (stream.events < events) {
    std::vector<ChurnEvent> batch;
    while (batch.size() < batch_size && stream.events + batch.size() < events) {
      const int roll = rng.uniform_int(0, 99);
      if (roll < 47 && active_count > pts.size() * 3 / 5) {
        const NodeId victim = pick_with(true);
        batch.push_back(ChurnEvent::make_deactivate(victim));
        active[victim.idx()] = false;
        --active_count;
      } else if (roll < 95 && active_count < active.size()) {
        const NodeId joiner = pick_with(false);
        batch.push_back(ChurnEvent::make_activate(joiner));
        active[joiner.idx()] = true;
        ++active_count;
      } else {
        const Point& base = pts[rng.pick_index(pts.size())];
        batch.push_back(ChurnEvent::make_add(
            {base[0] + rng.uniform_real(-4.0, 4.0),
             base[1] + rng.uniform_real(-4.0, 4.0)},
            {ServiceId(rng.uniform_int(0, kCatalog - 1))}));
        active.push_back(true);
        ++active_count;
      }
    }
    stream.events += batch.size();
    stream.batches.push_back(std::move(batch));

    ServiceRequest probe;
    probe.source = pick_with(true);
    probe.destination = pick_with(true);
    probe.graph =
        ServiceGraph::linear({ServiceId(rng.uniform_int(0, kCatalog - 1))});
    stream.probes.push_back(std::move(probe));
  }
  return stream;
}

/// What the incremental engine did over one stream.
struct IncrementalRun {
  double events_per_sec = 0.0;
  std::uint64_t rescans = 0;      ///< churn.border_rescans
  std::uint64_t add_scans = 0;    ///< churn.border_add_scans
  std::uint64_t box_rejects = 0;  ///< churn.border_box_rejects
};

/// Replay the stream through the incremental engine: apply each batch,
/// then route its probe.
IncrementalRun run_incremental(const std::vector<Point>& pts,
                               const ServicePlacement& placement,
                               const ChurnStream& stream) {
  DynamicHfcOverlay overlay(pts, placement);
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& rescans = registry.counter("churn.border_rescans");
  obs::Counter& add_scans = registry.counter("churn.border_add_scans");
  obs::Counter& box_rejects = registry.counter("churn.border_box_rejects");
  IncrementalRun run{0.0, rescans.value(), add_scans.value(),
                     box_rejects.value()};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < stream.batches.size(); ++b) {
    (void)overlay.apply(stream.batches[b]);
    (void)overlay.route(stream.probes[b]);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.events_per_sec = static_cast<double>(stream.events) / seconds;
  run.rescans = rescans.value() - run.rescans;
  run.add_scans = add_scans.value() - run.add_scans;
  run.box_rejects = box_rejects.value() - run.box_rejects;
  return run;
}

/// Replay the stream with a from-scratch rebuild of the overlay network,
/// topology, and router before every probe — what a sustained
/// churn-with-queries workload costs without incremental repair. Only the
/// rebuild and the probe are timed, not the (incremental) apply that
/// feeds the oracle its active set. Returns events/sec.
double run_full_rebuild(const std::vector<Point>& pts,
                        const ServicePlacement& placement,
                        const ChurnStream& stream) {
  DynamicHfcOverlay overlay(pts, placement);
  double seconds = 0.0;
  for (std::size_t b = 0; b < stream.batches.size(); ++b) {
    (void)overlay.apply(stream.batches[b]);
    const auto start = std::chrono::steady_clock::now();
    const oracle::FullRebuild full(overlay);
    (void)full.route(stream.probes[b]);
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return static_cast<double>(stream.events) / seconds;
}

void churn_engine_comparison(benchutil::BenchJson& bench) {
  const std::size_t events = benchutil::env_size("HFC_CHURN_EVENTS", 320);
  const std::size_t batch = benchutil::env_size("HFC_CHURN_BATCH", 16);

  std::vector<std::size_t> sizes{1000, 5000};
  if (benchutil::full_scale()) sizes.push_back(20000);
  if (const std::size_t n = benchutil::env_size("HFC_CHURN_N", 0); n > 0) {
    sizes = {n};
  }

  std::cout << "\nIncremental churn engine vs full rebuild (" << events
            << " events per size, batch " << batch << ")\n";
  std::cout << format_row({"n", "inc ev/s", "full ev/s", "speedup", "rescans",
                           "add-scans", "box rejects"})
            << "\n";
  for (const std::size_t n : sizes) {
    Rng rng(8300 + n);
    const std::vector<Point> pts = blob_universe(rng, n);
    const ServicePlacement placement = random_placement(rng, n);
    const ChurnStream stream = make_stream(rng.fork(2), pts, events, batch);

    const IncrementalRun run = run_incremental(pts, placement, stream);
    const double inc = run.events_per_sec;
    const double full = run_full_rebuild(pts, placement, stream);
    const double speedup = inc / full;
    std::cout << format_row({std::to_string(n), benchutil::fmt(inc, 0),
                             benchutil::fmt(full, 0),
                             benchutil::fmt(speedup, 1) + "x",
                             std::to_string(run.rescans),
                             std::to_string(run.add_scans),
                             std::to_string(run.box_rejects)})
              << "\n";
    const std::string suffix = "_n" + std::to_string(n);
    bench.note("events_per_sec_incremental" + suffix, inc);
    bench.note("events_per_sec_full_rebuild" + suffix, full);
    bench.note("churn_speedup" + suffix, speedup);
    bench.add_trials(2 * stream.batches.size());
  }
}

}  // namespace

int main() {
  using namespace hfc;
  benchutil::BenchJson bench("churn_dynamic");
  const std::size_t requests = benchutil::env_size(
      "HFC_REQUESTS", benchutil::full_scale() ? 400 : 150);
  const std::size_t waves = benchutil::env_size("HFC_WAVES", 6);

  const Environment env{300, 10, 250, 40};
  const auto fw = HfcFramework::build(config_for(env, 8100));
  const OverlayDistance truth = fw->true_distance();

  // Rebuild the same overlay as a dynamic one.
  ServicePlacement placement;
  for (NodeId p : fw->overlay().all_nodes()) {
    const auto services = fw->overlay().services_at(p);
    placement.emplace_back(services.begin(), services.end());
  }
  DynamicHfcOverlay overlay(fw->distance_map().proxy_coords, placement,
                            fw->config().zahn, fw->config().border_selection);

  Rng rng(8200);
  Rng request_rng = rng.fork(1);
  const auto batch = fw->generate_requests(requests, request_rng);

  const auto measure = [&](DynamicHfcOverlay& o) {
    RunningStat lengths;
    std::size_t failures = 0;
    for (const ServiceRequest& request : batch) {
      if (!o.is_active(request.source) || !o.is_active(request.destination)) {
        continue;  // endpoint currently offline
      }
      const ServicePath path = o.route(request);
      if (!path.found) {
        ++failures;
        continue;
      }
      lengths.add(path_length(path, truth));
    }
    return std::pair<double, std::size_t>(lengths.mean(), failures);
  };

  std::cout << "Dynamic membership under churn (250-proxy universe, "
            << requests << " fixed requests)\n";
  std::cout << format_row({"wave", "active", "clusters", "quality",
                           "avg path (ms)", "unroutable"})
            << "\n";
  const auto report = [&](const std::string& tag) {
    const auto [avg, failures] = measure(overlay);
    std::cout << format_row({tag, std::to_string(overlay.active_count()),
                             std::to_string(overlay.cluster_count()),
                             benchutil::fmt(overlay.clustering_quality(), 3),
                             benchutil::fmt(avg), std::to_string(failures)})
              << "\n";
  };
  report("initial");

  // Churn waves: 15% of the universe leaves, then rejoins one by one.
  for (std::size_t w = 0; w < waves; ++w) {
    std::vector<NodeId> wave;
    const std::size_t wave_size = overlay.universe_size() * 15 / 100;
    while (wave.size() < wave_size) {
      const NodeId candidate(static_cast<std::int32_t>(
          rng.pick_index(overlay.universe_size())));
      if (overlay.is_active(candidate) && overlay.active_count() > 2) {
        overlay.deactivate(candidate);
        wave.push_back(candidate);
      }
    }
    for (NodeId n : wave) overlay.activate(n);
    report("after wave " + std::to_string(w + 1));
    bench.add_trials(1);
  }

  overlay.restructure();
  report("restructured");
  std::cout << "\nquality = fresh-clustering intra-distance / maintained "
               "intra-distance (1.0 = as tight as fresh).\n";

  churn_engine_comparison(bench);
  return 0;
}
