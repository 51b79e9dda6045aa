// Exhaustive service-path search: the routing test oracle.
//
// Independently of the DAG machinery, enumerate every configuration of
// the service graph and every assignment of its services onto hosting
// proxies, and return the cheapest. Exponential — only for small
// instances in tests.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "overlay/overlay_network.h"
#include "routing/service_path.h"
#include "services/service_graph.h"
#include "util/require.h"

namespace hfc::oracle {

/// Optimal service path by explicit enumeration under `distance`, with
/// candidates restricted to `allowed` (pass net.all_nodes() for no
/// restriction). Throws if the instance would enumerate more than ~10^7
/// assignments, to catch accidental misuse.
[[nodiscard]] inline ServicePath brute_force_route(
    const ServiceRequest& request, const OverlayNetwork& net,
    const OverlayDistance& distance, const std::vector<NodeId>& allowed) {
  require(static_cast<bool>(distance), "brute_force_route: null distance");

  ServicePath best;
  best.cost = std::numeric_limits<double>::infinity();

  if (request.graph.empty()) {
    best.found = true;
    best.cost = distance(request.source, request.destination);
    best.hops = {ServiceHop{request.source, ServiceId{}},
                 ServiceHop{request.destination, ServiceId{}}};
    return best;
  }

  // Candidate hosts per SG vertex.
  std::vector<std::vector<NodeId>> candidates(request.graph.size());
  for (std::size_t v = 0; v < request.graph.size(); ++v) {
    for (NodeId p : allowed) {
      if (net.hosts(p, request.graph.label(v))) candidates[v].push_back(p);
    }
  }

  for (const std::vector<std::size_t>& config :
       request.graph.configurations()) {
    // Guard against accidental combinatorial blow-ups in tests.
    double combos = 1.0;
    for (std::size_t v : config) {
      combos *= static_cast<double>(candidates[v].size());
      require(combos <= 1e7, "brute_force_route: instance too large");
    }
    if (combos == 0.0) continue;  // some service has no provider

    // Odometer over the assignment space of this configuration.
    std::vector<std::size_t> pick(config.size(), 0);
    while (true) {
      double cost = 0.0;
      NodeId prev = request.source;
      for (std::size_t i = 0; i < config.size(); ++i) {
        const NodeId host = candidates[config[i]][pick[i]];
        if (host != prev) cost += distance(prev, host);
        prev = host;
      }
      if (prev != request.destination) {
        cost += distance(prev, request.destination);
      }
      if (cost < best.cost) {
        best.found = true;
        best.cost = cost;
        best.hops.clear();
        best.hops.push_back(ServiceHop{request.source, ServiceId{}});
        for (std::size_t i = 0; i < config.size(); ++i) {
          best.hops.push_back(ServiceHop{candidates[config[i]][pick[i]],
                                         request.graph.label(config[i])});
        }
        best.hops.push_back(ServiceHop{request.destination, ServiceId{}});
      }
      // Advance the odometer.
      std::size_t digit = 0;
      while (digit < pick.size()) {
        if (++pick[digit] < candidates[config[digit]].size()) break;
        pick[digit] = 0;
        ++digit;
      }
      if (digit == pick.size()) break;
    }
  }
  if (!best.found) best.cost = 0.0;
  return best;
}

}  // namespace hfc::oracle
