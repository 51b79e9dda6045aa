// paper_flat: the paper's own pipeline at Table 1 environment 4 (1200
// routers, 10 landmarks, 1000 proxies, 120 clients, 4-10-service chains).
// Set-up composes HfcFramework::build's steps 1-7 from their public calls,
// with the same Rng forks, so each step is timed as a call into its module;
// then one client routes requests through the hierarchical router in a
// closed loop. The smoke run uses environment 1 and checks the composed
// build against HfcFramework::build itself.
//
// The universes are five fixed builds (framework seeds 1-5) and the run's
// seed drives only the request streams: path cost and route time depend
// strongly on the generated underlay, and a seed-dependent underlay would
// make run-to-run spread dwarf any regression bound.
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/framework.h"
#include "harness.h"
#include "topology/shortest_paths.h"

namespace e2e {
namespace {

using namespace hfc;

constexpr std::size_t kUniverses = 5;

/// The built stack, members in dependency order so the router and topology
/// are destroyed before the distance tier they reference.
struct FlatStack {
  TransitStubTopology underlay;
  OverlayPlacement placement;
  DistanceMap distance_map;
  std::unique_ptr<CoordDistanceService> coords;
  std::unique_ptr<TruthDistanceService> truth;
  std::unique_ptr<OverlayNetwork> net;
  std::unique_ptr<HfcTopology> topo;
  std::unique_ptr<HierarchicalServiceRouter> router;
  std::vector<NodeId> client_proxies;
};

std::unique_ptr<FlatStack> build(Run& run, const FrameworkConfig& config) {
  auto s = std::make_unique<FlatStack>();
  const Rng master(config.seed);

  Rng topo_rng = master.fork(1);
  s->underlay = run.call("topology.underlay", [&] {
    return generate_transit_stub(
        TransitStubParams::for_total_routers(config.physical_routers),
        topo_rng);
  });

  Rng place_rng = master.fork(2);
  PlacementParams placement;
  placement.proxies = config.proxies;
  placement.landmarks = config.landmarks;
  placement.clients = config.clients;
  s->placement = run.call("topology.placement", [&] {
    return place_overlay(s->underlay, placement, place_rng);
  });

  std::vector<RouterId> endpoints = s->placement.landmark_routers;
  endpoints.insert(endpoints.end(), s->placement.proxy_routers.begin(),
                   s->placement.proxy_routers.end());
  auto oracle = run.call("distance.oracle", [&] {
    return std::make_unique<LatencyOracle>(
        s->underlay.network, std::move(endpoints), config.measurement_noise,
        master.fork(3), config.distance_cache_rows);
  });
  Rng gnp_rng = master.fork(4);
  s->distance_map = run.call("coords.gnp", [&] {
    return build_distance_map(*oracle, config.landmarks, config.gnp, gnp_rng);
  });
  run.call("distance.tiers", [&] {
    s->coords =
        std::make_unique<CoordDistanceService>(s->distance_map.proxy_coords);
    s->truth = std::make_unique<TruthDistanceService>(
        s->underlay.network, s->placement.proxy_routers,
        config.distance_cache_rows);
  });

  Rng workload_rng = master.fork(5);
  ServicePlacement services = run.call("services.assign", [&] {
    return assign_services(config.proxies, config.workload, workload_rng);
  });
  s->net = run.call("overlay.network", [&] {
    return std::make_unique<OverlayNetwork>(s->distance_map.proxy_coords,
                                            std::move(services));
  });
  Clustering clustering = run.call("cluster.cluster_nodes", [&] {
    return cluster_nodes(*s->coords, config.zahn);
  });
  s->topo = run.call("overlay.hfc_topology", [&] {
    return std::make_unique<HfcTopology>(std::move(clustering), *s->coords,
                                         config.border_selection);
  });
  s->router = run.call("routing.router_ctor", [&] {
    return std::make_unique<HierarchicalServiceRouter>(
        *s->net, *s->topo, *s->coords, config.routing);
  });

  // Each client's nearest proxy by true delay: the request endpoint pool.
  s->client_proxies = run.call("topology.client_attach", [&] {
    std::vector<NodeId> pool;
    for (RouterId client : s->placement.client_routers) {
      const ShortestPathTree tree = dijkstra(s->underlay.network, client);
      double best = std::numeric_limits<double>::infinity();
      NodeId nearest;
      for (std::size_t p = 0; p < s->placement.proxy_routers.size(); ++p) {
        const double d = tree.delay_ms[s->placement.proxy_routers[p].idx()];
        if (d < best) {
          best = d;
          nearest = NodeId(static_cast<std::int32_t>(p));
        }
      }
      pool.push_back(nearest);
    }
    return pool;
  });
  return s;
}

/// The composed build must equal HfcFramework::build: same partition, same
/// client pool, same routes.
void check_against_framework(Run& run, const FlatStack& s,
                             const FrameworkConfig& config) {
  Run::Check check(run);
  const auto fw = HfcFramework::build(config);
  if (fw->topology().clustering().assignment !=
      s.topo->clustering().assignment) {
    run.violate("composed build partitions differently from HfcFramework");
  }
  if (fw->client_proxies() != s.client_proxies) {
    run.violate("composed build picks other client proxies");
  }
  Rng rng = Rng(config.seed).fork(77);
  for (const ServiceRequest& req :
       make_requests(200, s.client_proxies, config.workload, rng)) {
    if (path_digest(fw->route(req)) != path_digest(s.router->route(req))) {
      run.violate("composed build routes differently from HfcFramework");
      break;
    }
  }
}

}  // namespace

void run_paper_flat(Run& run) {
  const bool smoke = run.opts().smoke;
  const std::vector<Environment> envs = paper_environments();
  const Environment& env = smoke ? envs.front() : envs.back();
  const std::size_t universes = smoke ? 1 : kUniverses;

  EndToEnd e2e;
  std::vector<std::unique_ptr<FlatStack>> stacks;
  std::vector<FrameworkConfig> configs;
  for (std::size_t u = 0; u < universes; ++u) {
    configs.push_back(config_for(env, /*seed=*/u + 1));
    Run::Setup setup(run);
    stacks.push_back(build(run, configs.back()));
  }
  if (smoke) check_against_framework(run, *stacks.front(), configs.front());

  // One client, round-robin over the universes, each with its own seeded
  // request stream over its client pool.
  std::vector<Rng> rngs;
  std::vector<std::vector<ServiceRequest>> batches(universes);
  std::vector<std::size_t> next(universes, 0);
  std::vector<std::vector<ServicePath>> found(universes);
  for (std::size_t u = 0; u < universes; ++u) {
    rngs.push_back(Rng(run.opts().seed).fork(100 + u));
  }
  {
    Run::Span measure(run, "e2e.measure");
    run.begin_measure(200);
    while (run.more(e2e.requests)) {
      const std::size_t u = e2e.requests % universes;
      const FlatStack& stack = *stacks[u];
      if (next[u] == batches[u].size()) {
        batches[u] = make_requests(64, stack.client_proxies,
                                   configs[u].workload, rngs[u]);
        next[u] = 0;
      }
      const ServiceRequest& req = batches[u][next[u]++];
      run.set_request(e2e.requests + 1);
      ServicePath path =
          run.call("routing.route", [&] { return stack.router->route(req); });
      e2e.request_ms.push_back(run.last_ms());
      e2e.add_requests(1, run.last_ms());
      run.attempt();
      run.mix(path_digest(path));
      Run::Span check(run, "e2e.check");
      if (!path.found) {
        run.fail("request unrouted");
      } else if (!satisfies(path, req, *stack.net)) {
        run.violate("route breaks its request (services, hosts, endpoints)");
      } else {
        found[u].push_back(std::move(path));
      }
    }
    run.set_request(0);
  }

  // Path cost is the Fig. 10 quantity: true underlay delay, read from a
  // truth tier sized to hold every proxy's row.
  {
    Run::Check check(run);
    for (std::size_t u = 0; u < universes; ++u) {
      const FlatStack& stack = *stacks[u];
      const TruthDistanceService truth(stack.underlay.network,
                                       stack.placement.proxy_routers,
                                       env.proxies);
      const OverlayDistance delay = [&truth](NodeId a, NodeId b) {
        return truth(a, b);
      };
      for (const ServicePath& path : found[u]) {
        e2e.add_cost(path_length(path, delay));
      }
    }
  }
  run.report(e2e);
}

}  // namespace e2e
