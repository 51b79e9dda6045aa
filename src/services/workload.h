// Workload generation: service placement on proxies and random service
// requests, matching the paper's Table 1 environments (4-10 services per
// proxy, request lengths 4-10, client-driven source/destination choice).
#pragma once

#include <cstddef>
#include <vector>

#include "services/service_graph.h"
#include "util/ids.h"
#include "util/rng.h"

namespace hfc {

struct WorkloadParams {
  /// Number of distinct service types in the catalog.
  std::size_t catalog_size = 40;
  /// Services installed per proxy, uniform in [min, max] (Table 1: 4-10).
  std::size_t services_per_proxy_min = 4;
  std::size_t services_per_proxy_max = 10;
  /// Services per request, uniform in [min, max] (Table 1: 4-10).
  std::size_t request_length_min = 4;
  std::size_t request_length_max = 10;
  /// Fraction of requests whose SG is non-linear (extra alternative
  /// sources, as in Figure 2b). The paper's tests use linear SGs; the
  /// non-linear generator exercises the general algorithm.
  double nonlinear_fraction = 0.0;
};

/// Assign services to `proxy_count` proxies. Every catalog service is
/// guaranteed to be hosted by at least one proxy (round-robin seeding),
/// then each proxy is topped up with distinct random services until its
/// drawn count is reached. Throws if parameters are inconsistent.
[[nodiscard]] ServicePlacement assign_services(std::size_t proxy_count,
                                               const WorkloadParams& params,
                                               Rng& rng);

/// True if every service of `graph` is hosted by some proxy.
[[nodiscard]] bool placement_satisfies(const ServicePlacement& placement,
                                       const ServiceGraph& graph);

/// Generate one random request between the given endpoints: a chain of
/// `length` distinct catalog services, optionally widened into a
/// non-linear SG. Throws if length exceeds the catalog.
[[nodiscard]] ServiceRequest make_request(NodeId source, NodeId destination,
                                          std::size_t length,
                                          const WorkloadParams& params,
                                          Rng& rng);

/// A batch of requests with endpoints drawn from `endpoint_pool`
/// (typically the proxies nearest to client attachment points; falls back
/// to all proxies). Source and destination are distinct when the pool
/// allows it.
[[nodiscard]] std::vector<ServiceRequest> make_requests(
    std::size_t count, const std::vector<NodeId>& endpoint_pool,
    const WorkloadParams& params, Rng& rng);

}  // namespace hfc
