// Candidate-rank oracle: a parent's CSP candidates for one service by a
// scan of its children.
//
// HierarchicalServiceRouter keeps, per parent and service, the ascending
// sibling ranks of the children whose SCT_C holds the service, and moves
// a rank only when a refreshed or overridden cluster's SCT_C gains or
// loses the service. This oracle is the from-scratch answer: every child
// under which some leaf's SCT_C (cluster_capability) holds the service,
// in rank order. Read through the leaves, it also checks that the inner
// groups' aggregates are the union of their children's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "overlay/hfc_topology.h"
#include "routing/hierarchical_router.h"
#include "util/ids.h"

namespace hfc::oracle {

/// Whether some leaf at or under `group` lists `service` in its SCT_C.
inline bool holds(const HierarchicalServiceRouter& router,
                  const HfcTopology& topo, ClusterId group,
                  ServiceId service) {
  if (group.idx() < topo.cluster_count()) {
    const std::vector<ServiceId>& hosted = router.cluster_capability(group);
    return std::binary_search(hosted.begin(), hosted.end(), service);
  }
  const std::vector<ClusterId>& children = topo.group(group).children;
  return std::any_of(children.begin(), children.end(), [&](ClusterId c) {
    return holds(router, topo, c, service);
  });
}

/// The ranks of `parent`'s children that hold `service`, ascending.
inline std::vector<std::uint32_t> candidate_ranks(
    const HierarchicalServiceRouter& router, const HfcTopology& topo,
    ClusterId parent, ServiceId service) {
  std::vector<std::uint32_t> ranks;
  const std::vector<ClusterId>& children = topo.group(parent).children;
  for (std::uint32_t rank = 0; rank < children.size(); ++rank) {
    if (holds(router, topo, children[rank], service)) ranks.push_back(rank);
  }
  return ranks;
}

}  // namespace hfc::oracle
