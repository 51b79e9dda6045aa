// RouteCache — generation-invalidated route memoization
// (DESIGN.md §12).
//
// Routes are pure functions of (source, destination, service graph) and
// the routing state a snapshot froze. The cache stores solved paths
// keyed by that identity and tags every entry with everything its
// exactness depends on:
//
//   - the generation stamp of each cluster the path traverses (endpoint
//     clusters plus every hop's cluster) — any membership change of a
//     traversed cluster bumps its stamp and kills the entry;
//   - the candidate-set fingerprint of each service the SG mentions —
//     a hosting cluster appearing or disappearing, a host joining or
//     leaving one, or a candidate cluster's border pair moving all
//     change the fingerprint, so CSP candidate drift invalidates the
//     entry even when the cached path never touched the drifted cluster.
//     Fingerprints are keyed on per-cluster host sets and border epochs
//     (not whole-cluster generations), so non-host churn inside a
//     hosting cluster leaves entries alive — only routes whose
//     cluster_tags actually traverse the churned cluster re-solve;
//   - the crash epoch — any crash/recover transition bumps it, which
//     soundly (if conservatively) flushes everything, since crash state
//     changes routing without advancing topology generations.
//
// An entry whose tags all still match the current snapshot replays a
// route byte-identical to what a fresh solve would produce (the CSP and
// intra-cluster solvers are deterministic functions of exactly the
// tagged state). Anything else is reported stale and re-solved.
//
// Storage: one map with FIFO eviction behind one mutex. Re-inserts
// refresh recency via stale queue records that are skipped on pop, and
// dropped once they make up over half of the queue. The ServingEngine
// runs its lookup and insert phases serially, so the mutex is
// uncontended there; it keeps the cache safe for out-of-band probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "routing/service_path.h"
#include "serve/route_snapshot.h"
#include "services/service_graph.h"
#include "util/ids.h"

namespace hfc::serve {

/// Full identity of a cacheable request plus its precomputed hash.
struct RequestKey {
  NodeId source;
  NodeId destination;
  std::string sg_encoding;  ///< ServiceGraph::canonical_encoding()
  std::uint64_t hash = 0;   ///< SG structural hash folded with the endpoints

  /// Build the key for `request`. Throws unless both endpoints are
  /// clustered in `snap`.
  [[nodiscard]] static RequestKey make(const ServiceRequest& request,
                                       const RouteSnapshot& snap);

  friend bool operator==(const RequestKey& a, const RequestKey& b) {
    return a.source == b.source && a.destination == b.destination &&
           a.sg_encoding == b.sg_encoding;
  }
};

struct RequestKeyHash {
  [[nodiscard]] std::size_t operator()(const RequestKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

/// A cached solve with the tags pinning it to its routing inputs.
struct CachedRoute {
  ServicePath path;
  std::uint64_t crash_epoch = 0;
  /// (traversed cluster, generation at solve time), ascending by cluster.
  std::vector<std::pair<ClusterId, std::uint64_t>> cluster_tags;
  /// (SG service, candidate-set fingerprint at solve time), ascending.
  std::vector<std::pair<ServiceId, std::uint64_t>> service_tags;
  std::uint64_t insert_seq = 0;  ///< FIFO bookkeeping
};

/// Derive the tags for a solved path: traversed clusters = endpoint
/// clusters plus the cluster of every hop proxy.
[[nodiscard]] CachedRoute make_cached_route(ServicePath path,
                                            const ServiceRequest& request,
                                            const RouteSnapshot& snap);

/// True when every tag of `entry` still matches `snap` — replaying the
/// entry is exact.
[[nodiscard]] bool route_current(const CachedRoute& entry,
                                 const RouteSnapshot& snap);

class RouteCache {
 public:
  /// A FIFO-evicting map of at most `capacity` (>= 1) entries.
  explicit RouteCache(std::size_t capacity);

  [[nodiscard]] std::size_t size() const;
  /// FIFO records held, live and stale: at most 2 * size() after insert.
  [[nodiscard]] std::size_t queued() const;

  /// Copy of the entry under `key`, if present (tag validation is the
  /// caller's job — see route_current).
  [[nodiscard]] std::optional<CachedRoute> find(const RequestKey& key) const;

  struct InsertResult {
    bool replaced = false;      ///< overwrote an existing entry
    std::size_t evicted = 0;    ///< entries FIFO-evicted to make room
  };
  /// Insert or refresh `entry` under `key`.
  InsertResult insert(const RequestKey& key, CachedRoute entry);

 private:
  mutable std::mutex mu_;
  std::unordered_map<RequestKey, CachedRoute, RequestKeyHash> map_;
  /// FIFO of (key, seq); records whose seq no longer matches the live
  /// entry are stale (the key was refreshed later) and skipped on pop.
  std::deque<std::pair<RequestKey, std::uint64_t>> fifo_;
  std::uint64_t next_seq_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace hfc::serve
