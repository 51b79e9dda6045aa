// Quickstart: build an HFC service overlay and route one service request.
//
//   $ example_quickstart [seed]
//
// Walks the full pipeline of the paper on a small deployment: transit-stub
// underlay, landmark coordinates, MST clustering, HFC topology, and one
// hierarchical route, printing what happens at each step.
#include <cstdlib>
#include <iostream>

#include "core/experiment.h"
#include "core/framework.h"

int main(int argc, char** argv) {
  using namespace hfc;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  FrameworkConfig config;
  config.physical_routers = 300;
  config.proxies = 120;
  config.landmarks = 10;
  config.clients = 30;
  config.seed = seed;

  std::cout << "Building HFC framework (seed " << seed << ")...\n";
  const auto fw = HfcFramework::build(config);

  const HfcTopology& topo = fw->topology();
  std::cout << "  underlay routers : " << fw->underlay().network.router_count()
            << "\n  overlay proxies  : " << fw->overlay().size()
            << "\n  clusters         : " << topo.cluster_count()
            << "\n  border proxies   : " << topo.all_borders().size()
            << "\n  coordinate dim   : " << fw->distance_map().system.dimensions
            << "\n  probes used      : " << fw->distance_map().probes_used
            << "  (vs " << config.proxies * (config.proxies - 1) / 2
            << " for direct n^2 measurement)\n\n";

  // One request from the workload generator: a chain of 5 services
  // between two client-side proxies.
  Rng rng(seed + 100);
  const ServiceRequest request = fw->generate_requests(1, rng).front();
  std::cout << "Request: P" << request.source.value() << " -> ["
            << request.graph.to_string() << "] -> P"
            << request.destination.value() << "\n\n";

  const auto csp = fw->router().compute_csp(request);
  std::cout << "Cluster-level service path (CSP), lower bound "
            << csp.lower_bound << " ms:\n  ";
  for (const auto& e : csp.steps) {
    std::cout << "S" << request.graph.label(e.sg_vertex).value() << "/C"
              << e.unit.value() << " ";
  }
  std::cout << "\n\n";

  const ServicePath path = fw->route(request);
  std::cout << "Final service path:\n  " << path.to_string() << "\n";
  std::cout << "  estimated length : " << path.cost << " ms\n";
  std::cout << "  true delay       : "
            << path_length(path, fw->true_distance()) << " ms\n";

  // State the scalability numbers this node enjoys (Figure 9).
  const OverheadSample overhead = measure_state_overhead(*fw);
  std::cout << "\nPer-proxy state (node-states):\n"
            << "  flat coordinates " << overhead.flat_coordinate
            << " vs HFC " << overhead.hfc_coordinate << "\n"
            << "  flat service     " << overhead.flat_service << " vs HFC "
            << overhead.hfc_service << "\n";
  return 0;
}
