#include "serve/route_snapshot.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "routing/live_links.h"
#include "util/require.h"
#include "util/rng.h"

namespace hfc::serve {
namespace {

/// Seed of the per-service fingerprint chains ("Serv"). A service no
/// cluster hosts fingerprints to the bare seeded value, so the in-range
/// and beyond-catalog cases agree.
constexpr std::uint64_t kFingerprintSeed = 0x53657276ull;

[[nodiscard]] std::uint64_t empty_fingerprint(std::uint64_t service) {
  return splitmix64(kFingerprintSeed ^ service);
}

/// Chain over the ascending member ids of one cluster that host `sid`.
/// Hosts joining, leaving, or swapping identity all change the hash;
/// churn among the cluster's non-host members does not — that is the
/// point (DESIGN.md §12): a cached route's CSP verdict reads only which
/// hosts a candidate cluster offers, not who else lives there.
[[nodiscard]] std::uint64_t host_set_hash(const OverlayNetwork& net,
                                          const std::vector<NodeId>& members,
                                          ServiceId sid) {
  std::uint64_t h = kFingerprintSeed;
  for (const NodeId m : members) {
    const auto& services = net.services_at(m);
    if (std::binary_search(services.begin(), services.end(), sid)) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(m.value()));
    }
  }
  return h;
}

}  // namespace

std::shared_ptr<const RouteSnapshot> RouteSnapshot::capture(
    const OverlayNetwork& net, const HfcTopology& topo,
    std::vector<NodeId> crashed, std::uint64_t crash_epoch) {
  require(net.size() == topo.node_count(),
          "RouteSnapshot::capture: network / topology node count mismatch");

  std::sort(crashed.begin(), crashed.end());
  crashed.erase(std::unique(crashed.begin(), crashed.end()), crashed.end());
  for (NodeId node : crashed) {
    require(node.valid() && node.idx() < net.size(),
            "RouteSnapshot::capture: crashed node outside the network");
  }

  std::shared_ptr<RouteSnapshot> snap(new RouteSnapshot());
  snap->crashed_ = std::move(crashed);
  snap->crash_epoch_ = crash_epoch;
  snap->net_ = std::make_unique<OverlayNetwork>(net);
  snap->topo_ = topo.clone_frozen(snap->net_->coord_distance_fn());

  snap->up_.assign(snap->net_->size(), 1);
  for (NodeId node : snap->crashed_) snap->up_[node.idx()] = 0;

  // Bake the degraded border table: resolve every live pair whose stored
  // border has a crashed end through the live-link view, once, so readers
  // pay O(1) per link instead of a member re-scan per request.
  // Pairs with no survivor keep their stored slots — the reader's
  // per-request view then reports them disconnected exactly like the live
  // router would.
  if (!snap->crashed_.empty()) {
    static obs::Counter& baked =
        obs::MetricsRegistry::global().counter("serve.baked_borders");
    HfcTopology& frozen = *snap->topo_;
    const LiveLinkView<ClusterId, HfcTopology> links(
        frozen, frozen.distance(),
        [&snap](NodeId n) { return snap->up_[n.idx()] != 0; });
    const std::size_t slots = frozen.cluster_count();
    for (std::size_t a = 0; a + 1 < slots; ++a) {
      const ClusterId ca(static_cast<std::int32_t>(a));
      for (std::size_t b = a + 1; b < slots; ++b) {
        const ClusterId cb(static_cast<std::int32_t>(b));
        const CspLink stored = frozen.link(ca, cb);
        if (!stored.found || (snap->up_[stored.exit.idx()] != 0 &&
                              snap->up_[stored.entry.idx()] != 0)) {
          continue;
        }
        const CspLink live = links.link(ca, cb);
        if (!live.found) continue;
        frozen.override_border_pair(ca, cb, live.exit, live.entry);
        baked.add(1);
      }
    }
  }

  snap->router_ = std::make_unique<HierarchicalServiceRouter>(
      *snap->net_, *snap->topo_, snap->net_->coord_distance_fn());
  snap->router_->sync_with_topology();

  // Per-service candidate-set fingerprints over the capture-time catalog
  // (the largest service id the placement mentions).
  std::size_t catalog = 0;
  for (std::size_t v = 0; v < snap->net_->size(); ++v) {
    const auto& services =
        snap->net_->services_at(NodeId(static_cast<std::int32_t>(v)));
    if (!services.empty()) {
      catalog = std::max(catalog, services.back().idx() + 1);
    }
  }
  snap->fingerprints_.resize(catalog);
  for (std::size_t s = 0; s < catalog; ++s) {
    const ServiceId sid(static_cast<std::int32_t>(s));
    std::uint64_t h = empty_fingerprint(s);
    for (ClusterId c : snap->router_->clusters_hosting(sid)) {
      // Per hosting cluster: identity, the exact host set it offers, and
      // its border epoch. Everything the CSP reads about a *candidate*
      // cluster is covered (host ids -> host coordinates are immutable
      // per id; border epoch -> entry/exit nodes and external lengths);
      // clusters a path *traverses* are pinned separately by the cache's
      // generation tags. Non-host membership churn in a hosting cluster
      // deliberately leaves the chain unchanged so cached routes survive
      // it.
      h = splitmix64(h ^ static_cast<std::uint64_t>(c.idx()));
      h = splitmix64(h ^ host_set_hash(*snap->net_, snap->topo_->members(c),
                                       sid));
      h = splitmix64(h ^ snap->topo_->border_epoch(c));
    }
    snap->fingerprints_[s] = h;
  }

  static obs::Counter& captures =
      obs::MetricsRegistry::global().counter("serve.snapshot_captures");
  captures.add(1);
  return snap;
}

std::uint64_t RouteSnapshot::service_fingerprint(ServiceId service) const {
  require(service.valid(), "RouteSnapshot::service_fingerprint: invalid id");
  if (service.idx() < fingerprints_.size()) return fingerprints_[service.idx()];
  return empty_fingerprint(service.idx());
}

ServicePath RouteSnapshot::route(const ServiceRequest& request) const {
  require(request.source.valid() && request.source.idx() < net_->size() &&
              request.destination.valid() &&
              request.destination.idx() < net_->size(),
          "RouteSnapshot::route: request endpoints outside the snapshot");
  require(cluster_of(request.source).valid() &&
              cluster_of(request.destination).valid(),
          "RouteSnapshot::route: request endpoints must be clustered");
  if (crashed_.empty()) return router_->route(request);
  require(up(request.source) && up(request.destination),
          "RouteSnapshot::route: request endpoints must be up");
  return router_
      ->route_degraded(request,
                       [this](NodeId n) { return up_[n.idx()] != 0; })
      .path;
}

}  // namespace hfc::serve
