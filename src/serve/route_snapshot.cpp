#include "serve/route_snapshot.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
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

}  // namespace

std::shared_ptr<const RouteSnapshot> RouteSnapshot::capture(
    const DynamicHfcOverlay& overlay, std::vector<NodeId> crashed,
    std::uint64_t crash_epoch, const RouteSnapshot* previous) {
  HFC_TRACE_SPAN("serve.capture");
  const OverlayNetwork& net = overlay.universe_network();
  const HfcTopology& topo = overlay.universe_topology();
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
  snap->net_ = previous != nullptr && previous->net_->size() == net.size()
                   ? previous->net_
                   : std::make_shared<const OverlayNetwork>(net);
  snap->topo_ = topo.clone_frozen(snap->net_->coord_distance_fn());

  snap->up_.assign(snap->net_->size(), 1);
  for (NodeId node : snap->crashed_) snap->up_[node.idx()] = 0;

  // Bake the degraded border table: resolve every live pair whose stored
  // border has a crashed end through the live-link view, once, and write
  // the surviving pair in, or the pair as disconnected when one side has
  // no survivor. Readers then take links from the table as stored.
  if (!snap->crashed_.empty()) {
    HFC_TRACE_SPAN("serve.bake");
    static obs::Counter& baked =
        obs::MetricsRegistry::global().counter("serve.baked_borders");
    HfcTopology& frozen = *snap->topo_;
    const auto up = [self = snap.get()](NodeId n) {
      return self->up_[n.idx()] != 0;
    };
    const LiveLinkView links(frozen, frozen.distance(), up);
    const std::size_t slots = frozen.cluster_count();
    for (std::size_t a = 0; a + 1 < slots; ++a) {
      const ClusterId ca(static_cast<std::int32_t>(a));
      for (std::size_t b = a + 1; b < slots; ++b) {
        const ClusterId cb(static_cast<std::int32_t>(b));
        const CspLink stored = frozen.link(ca, cb);
        if (!stored.found || (up(stored.exit) && up(stored.entry))) continue;
        const CspLink live = links.link(ca, cb);
        if (!live.found) {
          frozen.disconnect_pair(ca, cb);
          continue;
        }
        frozen.override_border_pair(ca, cb, live.exit, live.entry);
        baked.add(1);
      }
    }
    snap->survivors_.node_ok = [up](NodeId n, ServiceId) { return up(n); };
  }

  snap->router_ = std::make_unique<HierarchicalServiceRouter>(
      overlay.last_synced_router(), *snap->net_, *snap->topo_,
      snap->net_->coords());

  // Per-service candidate-set fingerprints, one pass over each cluster's
  // SCT_P: (cluster, host set, border epoch) folded into each service it
  // hosts, clusters ascending, a host set being the chain of the
  // service's ascending hosts. That is all the CSP reads of a *candidate*
  // (host ids fix coordinates; the border epoch fixes entry/exit nodes
  // and lengths); clusters a path *traverses* are pinned by the cache's
  // generation tags. Churn among non-host members leaves the chain
  // unchanged, so cached routes survive.
  const HierarchicalServiceRouter& router = *snap->router_;
  const std::size_t clusters = snap->topo_->cluster_count();
  std::size_t catalog = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    const auto& hosted =
        router.cluster_capability(ClusterId(static_cast<std::int32_t>(c)));
    if (!hosted.empty()) catalog = std::max(catalog, hosted.back().idx() + 1);
  }
  snap->fingerprints_.resize(catalog);
  for (std::size_t s = 0; s < catalog; ++s) {
    snap->fingerprints_[s] = empty_fingerprint(s);
  }
  for (std::size_t c = 0; c < clusters; ++c) {
    const ClusterId cluster(static_cast<std::int32_t>(c));
    const HierarchicalServiceRouter::HostTable& table =
        router.host_table(cluster);
    const std::uint64_t epoch = snap->topo_->border_epoch(cluster);
    for (const ServiceId s : router.cluster_capability(cluster)) {
      std::uint64_t hosts = kFingerprintSeed;
      for (const NodeId m : table.hosts_of(s)) {
        hosts = splitmix64(hosts ^ static_cast<std::uint64_t>(m.value()));
      }
      std::uint64_t& h = snap->fingerprints_[s.idx()];
      h = splitmix64(h ^ static_cast<std::uint64_t>(c));
      h = splitmix64(h ^ hosts);
      h = splitmix64(h ^ epoch);
    }
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
  static obs::Counter& degraded =
      obs::MetricsRegistry::global().counter("fault.degraded_requests");
  degraded.add(1);
  return router_->route_with_crankback(request, survivors_).path;
}

}  // namespace hfc::serve
