// Snapshot-capture oracle: a RouteSnapshot's cached aggregates derived
// from scratch over its own frozen network and topology.
//
// RouteSnapshot::capture clones SCT_C from the overlay's router,
// re-deriving only clusters whose generation moved, and hashes every
// service's host sets in one pass per cluster. This oracle is the
// from-scratch derivation those shortcuts must reproduce bit for bit:
// each cluster's SCT_C as the union of its members' services, and each
// service's fingerprint as the splitmix64 chain over its ascending
// hosting clusters of (cluster, host-set hash, border epoch), the
// host-set hash chaining the ascending member ids that host the service.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "util/ids.h"
#include "util/rng.h"

namespace hfc::oracle {

/// Seed of the fingerprint chains, as RouteSnapshot documents it ("Serv").
inline constexpr std::uint64_t kFingerprintSeed = 0x53657276ull;

/// SCT_C of `cluster`: the union of its members' services, ascending
/// (empty for a dead slot).
inline std::vector<ServiceId> cluster_capability(const OverlayNetwork& net,
                                                 const HfcTopology& topo,
                                                 ClusterId cluster) {
  return net.aggregate_services(topo.members(cluster));
}

/// The fingerprint of `service` over `net` and `topo`: one full scan of
/// every cluster's members per service.
inline std::uint64_t service_fingerprint(const OverlayNetwork& net,
                                         const HfcTopology& topo,
                                         ServiceId service) {
  const auto sid = static_cast<std::uint64_t>(service.idx());
  std::uint64_t h = splitmix64(kFingerprintSeed ^ sid);
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    const ClusterId cluster(static_cast<std::int32_t>(c));
    const std::vector<ServiceId> hosted =
        cluster_capability(net, topo, cluster);
    if (!std::binary_search(hosted.begin(), hosted.end(), service)) continue;
    std::uint64_t hosts = kFingerprintSeed;
    for (const NodeId m : topo.members(cluster)) {
      const auto& services = net.services_at(m);
      if (std::binary_search(services.begin(), services.end(), service)) {
        hosts = splitmix64(hosts ^ static_cast<std::uint64_t>(m.value()));
      }
    }
    h = splitmix64(h ^ static_cast<std::uint64_t>(c));
    h = splitmix64(h ^ hosts);
    h = splitmix64(h ^ topo.border_epoch(cluster));
  }
  return h;
}

}  // namespace hfc::oracle
