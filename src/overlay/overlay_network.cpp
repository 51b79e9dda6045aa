#include "overlay/overlay_network.h"

#include <algorithm>

#include "util/require.h"

namespace hfc {

OverlayNetwork::OverlayNetwork(PointSet coords, ServicePlacement placement)
    : coords_(std::move(coords)), placement_(std::move(placement)) {
  require(coords_.size() == placement_.size(),
          "OverlayNetwork: coords/placement size mismatch");
  require(!coords_.empty(), "OverlayNetwork: empty network");
  require(coords_.dim() >= 1, "OverlayNetwork: zero-dimensional coordinates");
  std::int32_t max_service = -1;
  for (std::size_t p = 0; p < coords_.size(); ++p) {
    require(std::is_sorted(placement_[p].begin(), placement_[p].end()),
            "OverlayNetwork: per-proxy service lists must be sorted");
    for (ServiceId s : placement_[p]) {
      require(s.valid(), "OverlayNetwork: invalid service id in placement");
      max_service = std::max(max_service, s.value());
    }
  }
  hosts_index_.resize(static_cast<std::size_t>(max_service + 1));
  for (std::size_t p = 0; p < placement_.size(); ++p) {
    for (ServiceId s : placement_[p]) {
      hosts_index_[s.idx()].push_back(NodeId(static_cast<std::int32_t>(p)));
    }
  }
}

NodeId OverlayNetwork::add_node(Point coords,
                                std::vector<ServiceId> services) {
  require(coords.size() == coords_.dim(),
          "OverlayNetwork::add_node: dimension mismatch");
  require(std::is_sorted(services.begin(), services.end()),
          "OverlayNetwork::add_node: services must be sorted");
  const NodeId node(static_cast<std::int32_t>(coords_.size()));
  for (ServiceId s : services) {
    require(s.valid(), "OverlayNetwork::add_node: invalid service id");
    if (s.idx() >= hosts_index_.size()) hosts_index_.resize(s.idx() + 1);
    hosts_index_[s.idx()].push_back(node);
  }
  coords_.push_back(coords);
  placement_.push_back(std::move(services));
  return node;
}

std::span<const double> OverlayNetwork::coordinate(NodeId node) const {
  require(node.valid() && node.idx() < coords_.size(),
          "OverlayNetwork::coordinate: bad node");
  return coords_[node.idx()];
}

const std::vector<ServiceId>& OverlayNetwork::services_at(NodeId node) const {
  require(node.valid() && node.idx() < placement_.size(),
          "OverlayNetwork::services_at: bad node");
  return placement_[node.idx()];
}

bool OverlayNetwork::hosts(NodeId node, ServiceId service) const {
  const auto& services = services_at(node);
  return std::binary_search(services.begin(), services.end(), service);
}

std::vector<ServiceId> OverlayNetwork::aggregate_services(
    const std::vector<NodeId>& members) const {
  std::vector<ServiceId> aggregate;
  for (NodeId member : members) {
    const auto& services = services_at(member);
    aggregate.insert(aggregate.end(), services.begin(), services.end());
  }
  std::sort(aggregate.begin(), aggregate.end());
  aggregate.erase(std::unique(aggregate.begin(), aggregate.end()),
                  aggregate.end());
  return aggregate;
}

std::vector<NodeId> OverlayNetwork::hosts_of(ServiceId service) const {
  require(service.valid(), "OverlayNetwork::hosts_of: invalid service");
  if (service.idx() >= hosts_index_.size()) return {};
  return hosts_index_[service.idx()];
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
