#include "routing/service_path.h"

#include <sstream>

#include "util/require.h"

namespace hfc {

std::string ServicePath::to_string() const {
  if (!found) return "<no path>";
  std::ostringstream os;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i) os << ", ";
    if (hops[i].is_relay()) {
      os << "-/";
    } else {
      os << "S" << hops[i].service.value() << "/";
    }
    os << "P" << hops[i].proxy.value();
  }
  return os.str();
}

std::vector<ServiceId> ServicePath::service_sequence() const {
  std::vector<ServiceId> out;
  for (const ServiceHop& hop : hops) {
    if (!hop.is_relay()) out.push_back(hop.service);
  }
  return out;
}

void append_hop(std::vector<ServiceHop>& hops, const ServiceHop& hop) {
  if (!hops.empty() && hops.back().proxy == hop.proxy) {
    if (hop.is_relay()) return;
    if (hops.back().is_relay()) {
      hops.back() = hop;
      return;
    }
  }
  hops.push_back(hop);
}

double path_length(const ServicePath& path, const OverlayDistance& distance) {
  if (!path.found || path.hops.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.hops.size(); ++i) {
    if (path.hops[i].proxy != path.hops[i + 1].proxy) {
      total += distance(path.hops[i].proxy, path.hops[i + 1].proxy);
    }
  }
  return total;
}

bool satisfies(const ServicePath& path, const ServiceRequest& request,
               const OverlayNetwork& net) {
  if (!path.found || path.hops.empty()) return false;
  if (path.hops.front().proxy != request.source) return false;
  if (path.hops.back().proxy != request.destination) return false;

  // Every service must run where it is actually installed.
  for (const ServiceHop& hop : path.hops) {
    if (!hop.is_relay() && !net.hosts(hop.proxy, hop.service)) return false;
  }

  // The performed sequence must spell out some configuration of the SG.
  const std::vector<ServiceId> performed = path.service_sequence();
  for (const std::vector<std::size_t>& config :
       request.graph.configurations()) {
    if (config.size() != performed.size()) continue;
    bool match = true;
    for (std::size_t i = 0; i < config.size(); ++i) {
      if (request.graph.label(config[i]) != performed[i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  // An empty SG is satisfied by a pure relay path.
  return request.graph.empty() && performed.empty();
}

}  // namespace hfc
