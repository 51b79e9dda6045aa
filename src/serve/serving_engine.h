// ServingEngine — the high-throughput request-serving front end
// (DESIGN.md §12). Ties the subsystem together:
//
//   publish()  — RCU-style snapshot publication: when the live
//                topology's structure generation has advanced (or the
//                crash set changed), capture a fresh RouteSnapshot and
//                swap it into the published shared_ptr under a mutex
//                held only for the pointer swap. Readers holding the
//                old snapshot keep serving it untouched.
//   serve()    — answer one *wave* of requests against the current
//                snapshot: requests with identical (source, destination,
//                SG) coalesce onto one cache lookup / one CSP solve;
//                distinct misses solve in parallel over the thread pool;
//                results fan back out to every waiter.
//
// Determinism: a wave's outcome — every served path, every serve.*
// counter, the exact cache contents afterwards — is a function of the
// request sequence and the snapshot, never of the pool size. The wave is
// structured as serial group / serial lookup / parallel solve / serial
// insert phases; the parallel phase writes only per-group slots, so
// thread interleaving cannot reorder anything observable.
//
// serve() itself is externally synchronized (one dispatcher thread per
// engine — the deterministic-wave contract is per call anyway);
// concurrent *readers* that grab current() and route against it are
// the supported concurrent path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "routing/service_path.h"
#include "serve/route_cache.h"
#include "serve/route_snapshot.h"
#include "services/service_graph.h"

namespace hfc::serve {

/// One request's answer plus how the engine produced it.
struct ServedRoute {
  ServicePath path;
  bool cache_hit = false;   ///< replayed from the cache
  bool coalesced = false;   ///< shared another waiter's solve this wave
};

class ServingEngine {
 public:
  /// Routes the cache holds before FIFO eviction starts.
  static constexpr std::size_t kCacheCapacity = 65536;

  /// Serve `overlay` (which must outlive the engine): publish() captures
  /// from its universe-level routing state between mutation batches. The
  /// constructor publishes the initial snapshot.
  explicit ServingEngine(DynamicHfcOverlay& overlay);

  /// Re-capture and swap the snapshot if the live structure generation
  /// advanced or the crash set differs from the published one; no-op
  /// (and serve.publish_skips) otherwise. Returns whether a new snapshot
  /// was published. Call between mutation batches / fault transitions —
  /// never concurrently with them.
  bool publish() { return publish(last_crashed_); }
  bool publish(std::vector<NodeId> crashed);

  /// The currently published snapshot. Callers may route against it
  /// from any thread while the engine publishes newer ones; the lock
  /// covers only the pointer copy.
  [[nodiscard]] std::shared_ptr<const RouteSnapshot> current() const {
    const std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Serve one wave of requests against the current snapshot. Returns
  /// one ServedRoute per request, positionally.
  [[nodiscard]] std::vector<ServedRoute> serve(
      std::span<const ServiceRequest> wave);

 private:
  const DynamicHfcOverlay& overlay_;
  RouteCache cache_{kCacheCapacity};
  std::vector<NodeId> last_crashed_;
  std::uint64_t crash_epoch_ = 0;
  /// The published snapshot, behind a mutex: ThreadSanitizer reports
  /// libstdc++ 12's lock-bit std::atomic<std::shared_ptr> as a race.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const RouteSnapshot> snapshot_;
};

}  // namespace hfc::serve
