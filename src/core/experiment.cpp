#include "core/experiment.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "overlay/mesh_topology.h"
#include "routing/flat_router.h"
#include "routing/full_state_router.h"
#include "routing/path_expansion.h"
#include "util/stats.h"

namespace hfc {

std::vector<Environment> paper_environments() {
  // Table 1: physical topology / landmarks / proxies / clients.
  return {
      Environment{300, 10, 250, 40},
      Environment{600, 10, 500, 90},
      Environment{900, 10, 750, 140},
      Environment{1200, 10, 1000, 120},
  };
}

FrameworkConfig config_for(const Environment& env, std::uint64_t seed) {
  FrameworkConfig config;
  config.physical_routers = env.physical_routers;
  config.landmarks = env.landmarks;
  config.proxies = env.proxies;
  config.clients = env.clients;
  config.seed = seed;
  return config;
}

OverheadSample measure_state_overhead(const HfcFramework& fw) {
  HFC_TRACE_SPAN("protocol.state_overhead");
  const HfcTopology& topo = fw.topology();
  const std::size_t n = topo.node_count();
  OverheadSample sample;
  sample.flat_coordinate = static_cast<double>(n);
  sample.flat_service = static_cast<double>(n);
  sample.clusters = topo.cluster_count();
  RunningStat coord;
  RunningStat service;
  for (NodeId node : fw.overlay().all_nodes()) {
    coord.add(static_cast<double>(topo.coordinate_state_count(node)));
    service.add(static_cast<double>(topo.service_state_count(node)));
  }
  sample.hfc_coordinate = coord.mean();
  sample.hfc_service = service.mean();
  return sample;
}

PathEfficiencySample measure_path_efficiency(const HfcFramework& fw,
                                             std::size_t request_count,
                                             std::uint64_t seed) {
  PathEfficiencySample sample;
  Rng rng(seed);
  Rng request_rng = rng.fork(1);
  Rng mesh_rng = rng.fork(2);

  const std::vector<ServiceRequest> requests =
      fw.generate_requests(request_count, request_rng);
  const OverlayDistance estimated = fw.estimated_distance();
  const OverlayDistance truth = fw.true_distance();
  const OverlayNetwork& net = fw.overlay();
  const HfcTopology& topo = fw.topology();

  // --- Competitor 1: single-level mesh with global state. The mesh is
  // built and routed over the same coordinate estimates the HFC framework
  // uses (§6.1: "we will also assume this for single-level topology").
  const MeshTopology mesh(net.size(), estimated, MeshParams{}, mesh_rng);
  const auto mesh_routing =
      std::make_shared<const MeshRouting>(mesh.compute_routing(estimated));
  const OverlayDistance mesh_distance = [mesh_routing](NodeId a, NodeId b) {
    return mesh_routing->distance(a, b);
  };
  const FlatServiceRouter mesh_router(net, mesh_distance);

  // --- Competitor 2: HFC with aggregation = the framework's own router.

  // --- Competitor 3: HFC topology with full global state (no
  // aggregation): flat optimal routing under HFC-constrained estimates.
  const FullStateHfcRouter noagg_router(net, topo, estimated);

  RunningStat mesh_stat;
  RunningStat agg_stat;
  RunningStat noagg_stat;
  for (const ServiceRequest& request : requests) {
    const ServicePath mesh_path =
        expand_mesh_path(mesh_router.route(request), *mesh_routing);
    const ServicePath agg_path = fw.route(request);
    const ServicePath noagg_path = noagg_router.route(request);
    if (!mesh_path.found || !agg_path.found || !noagg_path.found) {
      ++sample.failures;
      continue;
    }
    mesh_stat.add(path_length(mesh_path, truth));
    agg_stat.add(path_length(agg_path, truth));
    noagg_stat.add(path_length(noagg_path, truth));
  }
  sample.requests = requests.size();
  sample.mesh_avg = mesh_stat.mean();
  sample.hfc_agg_avg = agg_stat.mean();
  sample.hfc_noagg_avg = noagg_stat.mean();
  return sample;
}

ConstructionCost measure_construction_cost(const HfcFramework& fw) {
  HFC_TRACE_SPAN("construction.measure_cost");
  ConstructionCost cost;
  cost.measurement_probes = fw.distance_map().probes_used;
  cost.report_messages = fw.overlay().size();
  cost.info_messages = fw.overlay().size();
  const HfcTopology& topo = fw.topology();
  // Per proxy (Figure 4): its cluster membership list, the border table
  // of every sibling set on its ancestry (two node ids per sibling pair;
  // c·(c−1) in a one-level topology), and the coordinates it must retain.
  for (NodeId node : fw.overlay().all_nodes()) {
    std::size_t border_table_entries = 0;
    for (ClusterId g = topo.cluster_of(node); g != topo.root();
         g = topo.group(g).parent) {
      const std::size_t k = topo.group(topo.group(g).parent).children.size();
      border_table_entries += k * (k - 1);
    }
    cost.info_node_states += topo.members(topo.cluster_of(node)).size() +
                             border_table_entries +
                             topo.coordinate_state_count(node);
  }
  // The returned struct is a snapshot view; the registry's cumulative
  // "construction.*" counters are the durable record (benches report the
  // per-call delta between two snapshots).
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("construction.measurement_probes").add(cost.measurement_probes);
  reg.counter("construction.report_messages").add(cost.report_messages);
  reg.counter("construction.info_messages").add(cost.info_messages);
  reg.counter("construction.info_node_states").add(cost.info_node_states);
  return cost;
}

RelayLoadSample measure_relay_load(const HfcFramework& fw,
                                   std::size_t request_count,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const auto requests = fw.generate_requests(request_count, rng);
  std::vector<std::size_t> appearances(fw.overlay().size(), 0);
  std::size_t total = 0;
  for (const ServiceRequest& request : requests) {
    const ServicePath path = fw.route(request);
    if (!path.found) continue;
    for (const ServiceHop& hop : path.hops) {
      ++appearances[hop.proxy.idx()];
      ++total;
    }
  }
  RelayLoadSample sample;
  if (total == 0) return sample;
  std::vector<std::size_t> sorted = appearances;
  std::sort(sorted.rbegin(), sorted.rend());
  sample.max_share = static_cast<double>(sorted[0]) /
                     static_cast<double>(total);
  std::size_t top5 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sorted.size()); ++i) {
    top5 += sorted[i];
  }
  sample.top5_share =
      static_cast<double>(top5) / static_cast<double>(total);
  for (std::size_t a : appearances) {
    if (a > 0) ++sample.loaded_proxies;
  }
  return sample;
}

std::string format_row(const std::vector<std::string>& cells,
                       std::size_t width) {
  std::ostringstream os;
  for (const std::string& cell : cells) {
    std::string padded = cell;
    if (padded.size() < width) padded.resize(width, ' ');
    os << padded << ' ';
  }
  return os.str();
}

}  // namespace hfc
