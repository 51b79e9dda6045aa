// ServingEngine — the high-throughput request-serving front end
// (DESIGN.md §12). Ties the subsystem together:
//
//   publish()  — RCU-style snapshot publication: when the live
//                topology's structure generation has advanced (or the
//                crash set changed), capture a fresh RouteSnapshot and
//                swap it into an atomic shared_ptr. Readers holding the
//                old snapshot keep serving it untouched.
//   serve()    — answer one *wave* of requests against the current
//                snapshot: requests with identical (source, destination,
//                SG) coalesce onto one cache lookup / one CSP solve;
//                distinct misses solve in parallel over the thread pool;
//                results fan back out to every waiter.
//
// Determinism: a wave's outcome — every served path, every serve.*
// counter, the exact cache contents afterwards — is a function of the
// request sequence and the snapshot, never of HFC_THREADS. The wave is
// structured as serial group / serial lookup / parallel solve / serial
// insert phases; the parallel phase writes only per-group slots, so
// thread interleaving cannot reorder anything observable.
//
// serve() itself is externally synchronized (one dispatcher thread per
// engine — the deterministic-wave contract is per call anyway);
// concurrent *readers* that grab current() and route against it
// lock-free are the supported concurrent path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "distance/coord_distance.h"
#include "dynamic/dynamic_overlay.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/service_path.h"
#include "serve/route_cache.h"
#include "serve/route_snapshot.h"
#include "services/service_graph.h"

namespace hfc::serve {

struct ServeParams {
  std::size_t shards = 16;             ///< HFC_SERVE_SHARDS
  std::size_t capacity_per_shard = 4096;  ///< HFC_SERVE_CACHE

  /// Resolve from the environment knobs (fallbacks above).
  [[nodiscard]] static ServeParams from_env();
};

/// One request's answer plus how the engine produced it.
struct ServedRoute {
  ServicePath path;
  bool cache_hit = false;   ///< replayed from the cache
  bool coalesced = false;   ///< shared another waiter's solve this wave
  std::uint64_t snapshot_generation = 0;  ///< generation it was served at
};

class ServingEngine {
 public:
  /// Serve a static overlay: `net`/`topo`/`dist` are the live objects the
  /// engine re-captures from on publish(); they must outlive the engine.
  /// The constructor publishes the initial snapshot.
  ServingEngine(const OverlayNetwork& net, const HfcTopology& topo,
                const CoordDistanceService& dist,
                ServeParams params = ServeParams::from_env());

  /// Serve a dynamic overlay: publish() captures
  /// from its universe-level routing state between mutation batches.
  explicit ServingEngine(DynamicHfcOverlay& overlay,
                         ServeParams params = ServeParams::from_env());

  /// Re-capture and swap the snapshot if the live structure generation
  /// advanced or the crash set differs from the published one; no-op
  /// (and serve.publish_skips) otherwise. Returns whether a new snapshot
  /// was published. Call between mutation batches / fault transitions —
  /// never concurrently with them.
  bool publish() { return publish(last_crashed_); }
  bool publish(std::vector<NodeId> crashed);

  /// The currently published snapshot. Lock-free; callers may route
  /// against it from any thread while the engine publishes newer ones.
  [[nodiscard]] std::shared_ptr<const RouteSnapshot> current() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Serve one wave of requests against the current snapshot. Returns
  /// one ServedRoute per request, positionally.
  [[nodiscard]] std::vector<ServedRoute> serve(
      std::span<const ServiceRequest> wave);

  [[nodiscard]] const ShardedRouteCache& cache() const { return cache_; }
  [[nodiscard]] std::uint64_t crash_epoch() const { return crash_epoch_; }

 private:
  /// Live sources to capture from: either the static triple or the
  /// dynamic overlay (exactly one is set).
  const OverlayNetwork* net_ = nullptr;
  const HfcTopology* topo_ = nullptr;
  const CoordDistanceService* dist_ = nullptr;
  DynamicHfcOverlay* overlay_ = nullptr;

  ServeParams params_;
  ShardedRouteCache cache_;
  std::vector<NodeId> last_crashed_;
  std::uint64_t crash_epoch_ = 0;
  std::atomic<std::shared_ptr<const RouteSnapshot>> snapshot_;
};

}  // namespace hfc::serve
