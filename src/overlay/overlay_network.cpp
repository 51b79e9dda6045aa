#include "overlay/overlay_network.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace hfc {

OverlayNetwork::OverlayNetwork(PointSet coords,
                               const ServicePlacement& placement)
    : coords_(std::move(coords)) {
  require(coords_.size() == placement.size(),
          "OverlayNetwork: coords/placement size mismatch");
  require(!coords_.empty(), "OverlayNetwork: empty network");
  require(coords_.dim() >= 1, "OverlayNetwork: zero-dimensional coordinates");
  std::size_t total = 0;
  for (const std::vector<ServiceId>& row : placement) total += row.size();
  offsets_.reserve(placement.size() + 1);
  services_.reserve(total);
  for (const std::vector<ServiceId>& row : placement) push_services(row);
}

void OverlayNetwork::push_services(std::span<const ServiceId> services) {
  require(std::is_sorted(services.begin(), services.end()),
          "OverlayNetwork: per-proxy service lists must be sorted");
  require(std::all_of(services.begin(), services.end(),
                      [](ServiceId s) { return s.valid(); }),
          "OverlayNetwork: invalid service id in placement");
  require(services_.size() + services.size() <=
              std::numeric_limits<std::uint32_t>::max(),
          "OverlayNetwork: placement too large");
  services_.insert(services_.end(), services.begin(), services.end());
  offsets_.push_back(static_cast<std::uint32_t>(services_.size()));
}

NodeId OverlayNetwork::add_node(Point coords,
                                std::span<const ServiceId> services) {
  require(coords.size() == coords_.dim(),
          "OverlayNetwork::add_node: dimension mismatch");
  push_services(services);
  const NodeId node(static_cast<std::int32_t>(coords_.size()));
  coords_.push_back(coords);
  return node;
}

std::span<const double> OverlayNetwork::coordinate(NodeId node) const {
  require(node.valid() && node.idx() < coords_.size(),
          "OverlayNetwork::coordinate: bad node");
  return coords_[node.idx()];
}

std::span<const ServiceId> OverlayNetwork::services_at(NodeId node) const {
  require(node.valid() && node.idx() < coords_.size(),
          "OverlayNetwork::services_at: bad node");
  return {services_.data() + offsets_[node.idx()],
          services_.data() + offsets_[node.idx() + 1]};
}

bool OverlayNetwork::hosts(NodeId node, ServiceId service) const {
  const std::span<const ServiceId> services = services_at(node);
  return std::binary_search(services.begin(), services.end(), service);
}

std::vector<ServiceId> OverlayNetwork::aggregate_services(
    const std::vector<NodeId>& members) const {
  std::vector<ServiceId> aggregate;
  for (NodeId member : members) {
    const std::span<const ServiceId> services = services_at(member);
    aggregate.insert(aggregate.end(), services.begin(), services.end());
  }
  std::sort(aggregate.begin(), aggregate.end());
  aggregate.erase(std::unique(aggregate.begin(), aggregate.end()),
                  aggregate.end());
  return aggregate;
}

std::vector<NodeId> OverlayNetwork::hosts_of(ServiceId service) const {
  require(service.valid(), "OverlayNetwork::hosts_of: invalid service");
  std::vector<NodeId> out = all_nodes();
  std::erase_if(out, [&](NodeId node) { return !hosts(node, service); });
  return out;
}

double OverlayNetwork::coord_distance(NodeId a, NodeId b) const {
  return euclidean(coordinate(a), coordinate(b));
}

CoordDistanceRef OverlayNetwork::coord_distance_fn() const {
  return CoordDistanceRef(this, alive_);
}

std::vector<NodeId> OverlayNetwork::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(coords_.size());
  for (std::size_t p = 0; p < coords_.size(); ++p) {
    out.push_back(NodeId(static_cast<std::int32_t>(p)));
  }
  return out;
}

}  // namespace hfc
