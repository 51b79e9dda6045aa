#include "serve/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc::serve {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Millisecond bucket bounds shared by the serve.* latency histograms.
[[nodiscard]] std::vector<double> latency_bounds() {
  return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
          0.5,   1.0,    2.5,   5.0,  10.0,  25.0, 50.0, 100.0};
}

}  // namespace

ServeParams ServeParams::from_env() {
  ServeParams params;
  params.shards = env_size_t("HFC_SERVE_SHARDS", params.shards, 1);
  params.capacity_per_shard =
      env_size_t("HFC_SERVE_CACHE", params.capacity_per_shard, 1);
  return params;
}

ServingEngine::ServingEngine(const OverlayNetwork& net,
                             const HfcTopology& topo,
                             const CoordDistanceService& dist,
                             ServeParams params)
    : net_(&net),
      topo_(&topo),
      dist_(&dist),
      params_(params),
      cache_(params.shards, params.capacity_per_shard) {
  publish({});
}

ServingEngine::ServingEngine(DynamicHfcOverlay& overlay, ServeParams params)
    : overlay_(&overlay),
      params_(params),
      cache_(params.shards, params.capacity_per_shard) {
  publish({});
}

bool ServingEngine::publish(std::vector<NodeId> crashed) {
  static obs::Counter& publishes =
      obs::MetricsRegistry::global().counter("serve.publishes");
  static obs::Counter& skips =
      obs::MetricsRegistry::global().counter("serve.publish_skips");
  static obs::Histogram& publish_ms = obs::MetricsRegistry::global().histogram(
      "serve.publish_ms", latency_bounds());

  std::sort(crashed.begin(), crashed.end());
  crashed.erase(std::unique(crashed.begin(), crashed.end()), crashed.end());

  const OverlayNetwork& net = overlay_ ? overlay_->universe_network() : *net_;
  const HfcTopology& topo = overlay_ ? overlay_->universe_topology() : *topo_;
  const CoordDistanceService& dist =
      overlay_ ? overlay_->universe_distance() : *dist_;

  const std::shared_ptr<const RouteSnapshot> cur = current();
  const bool crash_changed = crashed != last_crashed_;
  if (cur && cur->structure_generation() == topo.structure_generation() &&
      !crash_changed) {
    skips.add(1);
    return false;
  }

  if (crash_changed) ++crash_epoch_;
  const auto start = Clock::now();
  std::shared_ptr<const RouteSnapshot> snap =
      RouteSnapshot::capture(net, topo, dist, crashed, crash_epoch_);
  last_crashed_ = std::move(crashed);
  snapshot_.store(std::move(snap), std::memory_order_release);
  publishes.add(1);
  publish_ms.observe(ms_since(start));
  return true;
}

std::vector<ServedRoute> ServingEngine::serve(
    std::span<const ServiceRequest> wave) {
  static obs::Counter& requests =
      obs::MetricsRegistry::global().counter("serve.requests");
  static obs::Counter& waves =
      obs::MetricsRegistry::global().counter("serve.waves");
  static obs::Counter& cache_hits =
      obs::MetricsRegistry::global().counter("serve.cache_hits");
  static obs::Counter& cache_misses =
      obs::MetricsRegistry::global().counter("serve.cache_misses");
  static obs::Counter& cache_stale =
      obs::MetricsRegistry::global().counter("serve.cache_stale");
  static obs::Counter& coalesced_count =
      obs::MetricsRegistry::global().counter("serve.coalesced");
  static obs::Counter& solves =
      obs::MetricsRegistry::global().counter("serve.solves");
  static obs::Counter& inserts =
      obs::MetricsRegistry::global().counter("serve.cache_inserts");
  static obs::Counter& evictions =
      obs::MetricsRegistry::global().counter("serve.cache_evictions");
  static obs::Histogram& request_ms = obs::MetricsRegistry::global().histogram(
      "serve.request_ms", latency_bounds());
  static obs::Histogram& solve_ms_hist =
      obs::MetricsRegistry::global().histogram("serve.solve_ms",
                                               latency_bounds());
  static obs::Histogram& wave_ms = obs::MetricsRegistry::global().histogram(
      "serve.wave_ms", latency_bounds());

  std::vector<ServedRoute> out(wave.size());
  if (wave.empty()) return out;

  const auto wave_start = Clock::now();
  const std::shared_ptr<const RouteSnapshot> snap_ptr = current();
  const RouteSnapshot& snap = *snap_ptr;
  const std::uint64_t generation = snap.structure_generation();

  // Phase 1 (serial): coalesce requests with identical full identity into
  // groups, in first-appearance order. The map's nodes are stable, so
  // groups reference the keys in place.
  struct Group {
    const RequestKey* key = nullptr;
    std::vector<std::size_t> indices;
    ServicePath path;
    bool hit = false;
    double group_ms = 0.0;
  };
  std::vector<Group> groups;
  std::unordered_map<RequestKey, std::size_t, RequestKeyHash> identity;
  identity.reserve(wave.size() * 2);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    RequestKey key = RequestKey::make(wave[i], snap);
    const auto [it, fresh] = identity.try_emplace(std::move(key), groups.size());
    if (fresh) {
      groups.emplace_back();
      groups.back().key = &it->first;
    }
    groups[it->second].indices.push_back(i);
  }

  // Phase 2 (serial): cache lookups against the pre-wave contents.
  std::vector<std::size_t> misses;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto start = Clock::now();
    std::optional<CachedRoute> found = cache_.find(*groups[g].key);
    if (found && route_current(*found, snap)) {
      groups[g].hit = true;
      groups[g].path = std::move(found->path);
      groups[g].group_ms = ms_since(start);
    } else {
      if (found) cache_stale.add(1);
      misses.push_back(g);
    }
  }

  // Phase 3 (parallel): one CSP solve per distinct missing identity. Each
  // task reads the immutable snapshot and writes only its own group —
  // bit-identical results for any thread count. Chunked so a flush wave's
  // worth of sub-millisecond solves amortizes the per-task dispatch cost.
  std::vector<double> solve_durations(misses.size(), 0.0);
  parallel_for(misses.size(), 8, [&](std::size_t i) {
    Group& group = groups[misses[i]];
    const auto start = Clock::now();
    group.path = snap.route(wave[group.indices.front()]);
    solve_durations[i] = ms_since(start);
  });

  // Phase 4 (serial): insert the solves in first-appearance order so the
  // cache contents (and FIFO eviction order) are wave-deterministic.
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < misses.size(); ++i) {
    Group& group = groups[misses[i]];
    group.group_ms = solve_durations[i];
    solve_ms_hist.observe(solve_durations[i]);
    const ShardedRouteCache::InsertResult res = cache_.insert(
        *group.key,
        make_cached_route(group.path, wave[group.indices.front()], snap));
    evicted += res.evicted;
  }

  // Phase 5 (serial): fan the group results back out to every waiter.
  std::uint64_t hit_requests = 0;
  std::uint64_t miss_requests = 0;
  std::uint64_t coalesced_requests = 0;
  for (const Group& group : groups) {
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      ServedRoute& served = out[group.indices[j]];
      served.path = group.path;
      served.cache_hit = group.hit;
      served.coalesced = !group.hit && j > 0;
      served.snapshot_generation = generation;
      request_ms.observe(group.group_ms);
    }
    if (group.hit) {
      hit_requests += group.indices.size();
    } else {
      miss_requests += group.indices.size();
      coalesced_requests += group.indices.size() - 1;
    }
  }

  requests.add(wave.size());
  waves.add(1);
  cache_hits.add(hit_requests);
  cache_misses.add(miss_requests);
  coalesced_count.add(coalesced_requests);
  solves.add(misses.size());
  inserts.add(misses.size());
  evictions.add(evicted);
  wave_ms.observe(ms_since(wave_start));
  return out;
}

}  // namespace hfc::serve
