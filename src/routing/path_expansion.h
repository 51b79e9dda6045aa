// Relay expansion of fully-connected-view paths onto the HFC topology
// and onto the mesh baseline.
//
// A flat router run over HFC-constrained distances ("HFC without state
// aggregation") returns only service hops; physically, hops that cross
// clusters travel through the border pair. This inserts those border
// relays so the path can be measured hop by hop. The mesh baseline's
// paths get the mesh walks between their hops the same way.
#pragma once

#include "overlay/hfc_topology.h"
#include "overlay/mesh_topology.h"
#include "routing/service_path.h"

namespace hfc {

/// Insert the border relay hops mandated by the HFC topology between
/// consecutive hops in different clusters. Intra-cluster hops stay direct.
[[nodiscard]] ServicePath expand_hfc_path(const ServicePath& path,
                                          const HfcTopology& topo);

/// Insert relay hops so a fully-connected-view path becomes a walk along
/// mesh edges: consecutive hops on non-adjacent proxies are joined by the
/// shortest mesh walk. Throws if the mesh routing cannot connect a pair.
[[nodiscard]] ServicePath expand_mesh_path(const ServicePath& path,
                                           const MeshRouting& routing);

}  // namespace hfc
