// Concrete service paths: the output of service routing.
//
// Paper §2.2: a service path has the form
//   sp = <-/p0, s1/p1, ..., sn/pn, -/p(n+1)>
// where si/pj maps service si onto proxy pj and -/pi marks pi as a pure
// message relay.
#pragma once

#include <string>
#include <vector>

#include "overlay/overlay_network.h"
#include "services/service_graph.h"
#include "util/ids.h"

namespace hfc {

/// One hop of a service path. An invalid service means the proxy acts as a
/// relay only.
struct ServiceHop {
  NodeId proxy;
  ServiceId service;  ///< invalid => relay hop ("-/p")

  [[nodiscard]] bool is_relay() const { return !service.valid(); }
  friend bool operator==(const ServiceHop&, const ServiceHop&) = default;
};

/// A concrete service path. `cost` is the total length under the metric
/// the *router* used to choose the path (typically the coordinate
/// estimate); use `path_length` to re-measure under another metric
/// (typically ground-truth delay).
struct ServicePath {
  bool found = false;
  double cost = 0.0;
  std::vector<ServiceHop> hops;

  /// "-/p0, s1/p1, ..." rendering for logs and examples.
  [[nodiscard]] std::string to_string() const;

  /// The services performed, in order (relays skipped).
  [[nodiscard]] std::vector<ServiceId> service_sequence() const;
};

/// Append `hop` to a path under composition: a relay on the proxy the
/// path already ends at is dropped, and a service on a proxy the path
/// ends at as a relay replaces that relay.
void append_hop(std::vector<ServiceHop>& hops, const ServiceHop& hop);

/// Total length of the hop sequence under `distance` (0 for paths with
/// fewer than two hops; 0 for not-found paths).
[[nodiscard]] double path_length(const ServicePath& path,
                                 const OverlayDistance& distance);

/// Full validity check of a path against its request:
///  - starts at the request source and ends at its destination;
///  - every service hop runs on a proxy that hosts that service;
///  - the performed service sequence follows the vertex labels of some
///    source-to-sink configuration of the request's service graph.
[[nodiscard]] bool satisfies(const ServicePath& path,
                             const ServiceRequest& request,
                             const OverlayNetwork& net);

}  // namespace hfc
