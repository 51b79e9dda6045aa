#include "routing/path_expansion.h"

#include "obs/trace.h"
#include "util/require.h"

namespace hfc {

ServicePath expand_hfc_path(const ServicePath& path, const HfcTopology& topo) {
  HFC_TRACE_SPAN("routing.path_expansion");
  if (!path.found) return path;
  ServicePath expanded;
  expanded.found = true;
  expanded.cost = path.cost;
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    if (i == 0) {
      expanded.hops.push_back(path.hops[i]);
      continue;
    }
    const NodeId from = path.hops[i - 1].proxy;
    const NodeId to = path.hops[i].proxy;
    if (from != to) {
      const std::vector<NodeId> walk = topo.hop_path(from, to);
      for (std::size_t w = 1; w + 1 < walk.size(); ++w) {
        // Interior nodes are the border relays.
        if (walk[w] != expanded.hops.back().proxy) {
          expanded.hops.push_back(ServiceHop{walk[w], ServiceId{}});
        }
      }
    }
    if (path.hops[i].proxy == expanded.hops.back().proxy &&
        path.hops[i].is_relay()) {
      continue;  // relay duplicate of the previous hop
    }
    expanded.hops.push_back(path.hops[i]);
  }
  return expanded;
}

ServicePath expand_mesh_path(const ServicePath& path,
                             const MeshRouting& routing) {
  if (!path.found) return path;
  ServicePath expanded;
  expanded.found = true;
  expanded.cost = path.cost;
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    if (i == 0) {
      expanded.hops.push_back(path.hops[i]);
      continue;
    }
    const NodeId from = path.hops[i - 1].proxy;
    const NodeId to = path.hops[i].proxy;
    if (from == to) {
      expanded.hops.push_back(path.hops[i]);
      continue;
    }
    const std::vector<NodeId> walk = routing.walk(from, to);
    ensure(!walk.empty(), "expand_mesh_path: mesh cannot connect hop pair");
    // Interior nodes of the walk become relay hops.
    for (std::size_t w = 1; w + 1 < walk.size(); ++w) {
      expanded.hops.push_back(ServiceHop{walk[w], ServiceId{}});
    }
    expanded.hops.push_back(path.hops[i]);
  }
  return expanded;
}

}  // namespace hfc
