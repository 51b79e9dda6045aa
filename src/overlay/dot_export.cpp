#include "overlay/dot_export.h"

#include <iomanip>
#include <sstream>

namespace hfc {

std::string to_dot(const PhysicalNetwork& net) {
  std::ostringstream os;
  os << "graph underlay {\n  node [shape=point];\n";
  for (std::size_t r = 0; r < net.router_count(); ++r) {
    const RouterId id(static_cast<std::int32_t>(r));
    if (net.kind(id) == RouterKind::kTransit) {
      os << "  r" << r << " [shape=box, color=red, label=\"T" << r
         << "\"];\n";
    }
  }
  os << std::fixed << std::setprecision(1);
  for (const Link& link : net.links()) {
    os << "  r" << link.a.value() << " -- r" << link.b.value()
       << " [label=\"" << link.delay_ms << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const HfcTopology& topo) {
  std::ostringstream os;
  os << "graph hfc {\n  node [shape=circle];\n";
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    const ClusterId cluster(static_cast<std::int32_t>(c));
    os << "  subgraph cluster_" << c << " {\n    label=\"C" << c << "\";\n";
    for (NodeId m : topo.members(cluster)) {
      os << "    p" << m.value();
      if (topo.is_border(m)) {
        os << " [style=filled, fillcolor=gray]";
      }
      os << ";\n";
    }
    os << "  }\n";
  }
  os << std::fixed << std::setprecision(1);
  for (std::size_t g = 0; g < topo.group_count(); ++g) {
    const std::vector<ClusterId>& siblings =
        topo.group(ClusterId(static_cast<std::int32_t>(g))).children;
    for (std::size_t i = 0; i + 1 < siblings.size(); ++i) {
      for (std::size_t j = i + 1; j < siblings.size(); ++j) {
        const ClusterId a = siblings[i];
        const ClusterId b = siblings[j];
        os << "  p" << topo.border(a, b).value() << " -- p"
           << topo.border(b, a).value() << " [label=\""
           << topo.external_length(a, b) << "\", style=bold];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const MeshTopology& mesh) {
  std::ostringstream os;
  os << "graph mesh {\n  node [shape=point];\n";
  for (std::size_t u = 0; u < mesh.node_count(); ++u) {
    for (NodeId v : mesh.neighbors(NodeId(static_cast<std::int32_t>(u)))) {
      if (v.idx() > u) {
        os << "  p" << u << " -- p" << v.value() << ";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace hfc
