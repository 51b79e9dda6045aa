// ShardedRouteCache — generation-invalidated route memoization
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
// Sharding: entries hash to one of N independent shards by the
// (source cluster, SG structural hash, destination cluster) triple, each
// shard a mutex-guarded map with FIFO eviction (re-inserts refresh
// recency via stale queue records that are skipped on pop). The
// ServingEngine serializes cache phases per wave, so the mutexes are
// uncontended there; they make the cache safe for out-of-band probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
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

/// Full identity of a cacheable request plus its precomputed hashes.
struct RequestKey {
  NodeId source;
  NodeId destination;
  std::string sg_encoding;   ///< ServiceGraph::canonical_encoding()
  std::uint64_t shard_mix = 0;   ///< (src cluster, SG hash, dst cluster)
  std::uint64_t bucket_mix = 0;  ///< shard_mix folded with the endpoints

  /// Build the key for `request` as seen by `snap` (which supplies the
  /// endpoint clusters for the shard hash).
  [[nodiscard]] static RequestKey make(const ServiceRequest& request,
                                       const RouteSnapshot& snap);

  friend bool operator==(const RequestKey& a, const RequestKey& b) {
    return a.source == b.source && a.destination == b.destination &&
           a.sg_encoding == b.sg_encoding;
  }
};

struct RequestKeyHash {
  [[nodiscard]] std::size_t operator()(const RequestKey& k) const noexcept {
    return static_cast<std::size_t>(k.bucket_mix);
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
  std::uint64_t insert_seq = 0;  ///< shard FIFO bookkeeping
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

class ShardedRouteCache {
 public:
  /// `shards` independent maps of `capacity_per_shard` entries each
  /// (both >= 1; ServeParams supplies them).
  ShardedRouteCache(std::size_t shards, std::size_t capacity_per_shard);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t capacity_per_shard() const { return capacity_; }
  /// Total entries across shards (O(shards)).
  [[nodiscard]] std::size_t size() const;

  /// Copy of the entry under `key`, if present (tag validation is the
  /// caller's job — see route_current).
  [[nodiscard]] std::optional<CachedRoute> find(const RequestKey& key) const;

  struct InsertResult {
    bool replaced = false;      ///< overwrote an existing entry
    std::size_t evicted = 0;    ///< entries FIFO-evicted to make room
  };
  /// Insert or refresh `entry` under `key`.
  InsertResult insert(const RequestKey& key, CachedRoute entry);

  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<RequestKey, CachedRoute, RequestKeyHash> map;
    /// FIFO of (key, seq); records whose seq no longer matches the live
    /// entry are stale (the key was refreshed later) and skipped on pop.
    std::deque<std::pair<RequestKey, std::uint64_t>> fifo;
    std::uint64_t next_seq = 0;
  };

  [[nodiscard]] Shard& shard_of(const RequestKey& key) {
    return *shards_[key.shard_mix % shards_.size()];
  }
  [[nodiscard]] const Shard& shard_of(const RequestKey& key) const {
    return *shards_[key.shard_mix % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_ = 0;
};

}  // namespace hfc::serve
