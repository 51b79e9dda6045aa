// Graphviz (DOT) exports for inspecting generated topologies.
//
//   dot -Tsvg underlay.dot -o underlay.svg
//
// The underlay export colours transit vs stub routers; the HFC export
// groups proxies into cluster subgraphs and draws external border links.
#pragma once

#include <string>

#include "overlay/hfc_topology.h"
#include "overlay/mesh_topology.h"
#include "topology/physical_network.h"

namespace hfc {

/// The physical network as an undirected DOT graph (transit routers drawn
/// as boxes, stub routers as points; edges labelled with delay).
[[nodiscard]] std::string to_dot(const PhysicalNetwork& net);

/// The HFC topology: one cluster subgraph per leaf cluster (members
/// listed, borders emphasised), plus every parent's sibling links between
/// border pairs, labelled with their length.
[[nodiscard]] std::string to_dot(const HfcTopology& topo);

/// The mesh overlay as a plain undirected graph.
[[nodiscard]] std::string to_dot(const MeshTopology& mesh);

}  // namespace hfc
