// SCT_P oracle: a cluster's host table by a member scan.
//
// HierarchicalServiceRouter derives each leaf cluster's SCT_P by a
// counting pass and re-derives it only for clusters whose generation
// moved; its rebinding clone copies the tables. This oracle is the
// from-scratch answer they must reproduce: every service some member
// hosts, ascending, with the members hosting it, ascending.
#pragma once

#include <utility>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "util/ids.h"

namespace hfc::oracle {

using HostRows = std::vector<std::pair<ServiceId, std::vector<NodeId>>>;

/// The SCT_P of leaf `cluster` (empty for a dead slot).
inline HostRows host_table(const OverlayNetwork& net, const HfcTopology& topo,
                           ClusterId cluster) {
  HostRows rows;
  const std::vector<NodeId>& members = topo.members(cluster);
  for (const ServiceId s : net.aggregate_services(members)) {
    std::vector<NodeId> hosts;
    for (const NodeId m : members) {
      if (net.hosts(m, s)) hosts.push_back(m);
    }
    rows.emplace_back(s, std::move(hosts));
  }
  return rows;
}

}  // namespace hfc::oracle
