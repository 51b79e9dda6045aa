// Chaos invariant harness (ISSUE 5 satellite 1): seeded random fault
// schedules driven through the §4 protocol sim, checked after quiesce for
//   (a) no degraded route traverses a crashed proxy,
//   (b) no SCT entry older than the TTL survives the run,
//   (c) convergence returns to 1.0 once every fault window has healed,
//   (d) incremental churn maintenance agrees with a full rebuild,
// and the whole scenario replays bit-for-bit: the same seed produces the
// same digest on a serial run, a 4-thread run, and a re-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/zahn.h"
#include "dynamic/dynamic_overlay.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "oracle/full_rebuild.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/hierarchical_router.h"
#include "routing/service_path.h"
#include "services/workload.h"
#include "sim/state_protocol.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

/// Four well-separated blobs of four proxies; placement from a catalog of
/// six services so requests stay brute-force friendly.
struct ChaosWorld {
  std::vector<Point> coords;
  ServicePlacement placement;
};

ChaosWorld make_world(std::uint64_t seed) {
  Rng rng(seed);
  ChaosWorld w;
  for (int blob = 0; blob < 4; ++blob) {
    for (int i = 0; i < 4; ++i) {
      w.coords.push_back(
          {40.0 * blob + rng.uniform_real(0, 4), rng.uniform_real(0, 4)});
    }
  }
  WorkloadParams wp;
  wp.catalog_size = 6;
  wp.services_per_proxy_min = 1;
  wp.services_per_proxy_max = 3;
  Rng prng = rng.fork(7);
  w.placement = assign_services(w.coords.size(), wp, prng);
  return w;
}

void append_path(std::ostringstream& dig, const ServicePath& path) {
  dig << " found=" << path.found << " cost=" << path.cost << " [";
  for (const ServiceHop& hop : path.hops) {
    dig << hop.proxy.value() << "/" << hop.service.value() << " ";
  }
  dig << "]";
}

/// One full chaos scenario for `seed`; asserts the quiesce invariants and
/// returns a digest of everything observable (fault schedule, post-run
/// tables, traffic metrics, degraded routes, churn-equivalence probes).
/// Bit-equal digests across runs and thread counts = determinism.
std::string run_chaos(std::uint64_t seed) {
  const ChaosWorld w = make_world(seed);
  const OverlayNetwork net(w.coords, w.placement);
  const Clustering clustering = cluster_points(w.coords);
  const HfcTopology topo(clustering, net.coord_distance_fn());

  std::ostringstream dig;
  dig << std::hexfloat;  // exact double round-trip: bit-equality, not "close"

  // --- leg 1: the soft-state protocol under a healing fault schedule ---
  StateProtocolParams pp;
  pp.local_period_ms = 200.0;
  pp.aggregate_period_ms = 200.0;
  pp.aggregate_phase_ms = 100.0;
  pp.rounds = 8;
  pp.loss_probability = 0.02;
  pp.loss_seed = seed;
  pp.sct_ttl_ms = 600.0;
  pp.aggregate_retries = 1;
  pp.retry_timeout_ms = 200.0;

  FaultPlanParams fp;
  fp.horizon_ms = 1400.0;  // the last local round; every window heals by 700
  fp.heal_fraction = 0.5;
  fp.crashes = 2;
  fp.mean_downtime_ms = 300.0;
  fp.partitions = 1;
  fp.mean_partition_ms = 300.0;
  fp.bursts = 1;
  fp.mean_burst_ms = 150.0;
  fp.burst_loss = 0.9;
  fp.jitter_ms = 1.5;
  const FaultPlan plan = FaultPlan::random(fp, topo, seed);
  dig << "plan:" << plan.serialize() << "\n";

  StateProtocolSim sim(net, topo, net.coord_distance_fn(), pp);
  FaultInjector injector(plan, topo);
  sim.set_fault_injector(&injector);
  sim.run();

  // Invariant (b): no table entry is older than the TTL after quiesce.
  EXPECT_EQ(sim.stale_entries(pp.sct_ttl_ms), 0u) << "seed " << seed;
  // Invariant (c): every fault window healed well before the final
  // refresh rounds, so soft state reconverges exactly.
  EXPECT_EQ(injector.crashed_count(), 0u) << "seed " << seed;
  EXPECT_TRUE(sim.fully_converged()) << "seed " << seed;
  EXPECT_DOUBLE_EQ(sim.convergence_fraction(), 1.0) << "seed " << seed;

  dig << "end=" << sim.end_time_ms() << " conv=" << sim.convergence_fraction()
      << "\n";
  const StateProtocolMetrics& m = sim.metrics();
  dig << "msgs local=" << m.local_messages << " agg=" << m.aggregate_messages
      << " fwd=" << m.forwarded_messages << " lost=" << m.lost_messages
      << " retried=" << m.retried_messages << " expired=" << m.expired_entries
      << " names=" << m.service_names_carried << "\n";
  for (NodeId node : net.all_nodes()) {
    const ProxyStateTables& t = sim.tables(node);
    std::vector<std::pair<NodeId, std::vector<ServiceId>>> sct_p(
        t.sct_p.begin(), t.sct_p.end());
    std::sort(sct_p.begin(), sct_p.end());
    std::vector<std::pair<ClusterId, std::vector<ServiceId>>> sct_c(
        t.sct_c.begin(), t.sct_c.end());
    std::sort(sct_c.begin(), sct_c.end());
    dig << "n" << node.value() << " p:";
    for (const auto& [peer, services] : sct_p) {
      dig << peer.value() << "=";
      for (ServiceId s : services) dig << s.value() << ",";
      dig << ";";
    }
    dig << " c:";
    for (const auto& [cluster, services] : sct_c) {
      dig << cluster.value() << "=";
      for (ServiceId s : services) dig << s.value() << ",";
      dig << ";";
    }
    dig << "\n";
  }

  // --- leg 2: degraded routing while a border pair is dark ---
  // Invariant (a): routes computed against a crash set never traverse a
  // crashed proxy, and a surviving fallback pair is used when one exists.
  const HierarchicalServiceRouter router(net, topo, net.coord_distance_fn());
  const ClusterId ca = topo.cluster_of(NodeId(0));
  const ClusterId cb = topo.cluster_of(NodeId(15));
  std::vector<NodeId> crashed{topo.border(ca, cb), topo.border(cb, ca)};
  std::sort(crashed.begin(), crashed.end());
  crashed.erase(std::unique(crashed.begin(), crashed.end()), crashed.end());
  const auto up = [&crashed](NodeId n) {
    return !std::binary_search(crashed.begin(), crashed.end(), n);
  };

  WorkloadParams rp;
  rp.catalog_size = 6;
  rp.request_length_min = 1;
  rp.request_length_max = 2;
  Rng rrng = Rng(seed).fork(9);
  const auto requests = make_requests(4, net.all_nodes(), rp, rrng);
  for (const ServiceRequest& request : requests) {
    if (!up(request.source) || !up(request.destination)) continue;
    const auto result = router.route_degraded(request, up, 32);
    if (result.path.found) {
      EXPECT_TRUE(satisfies(result.path, request, net)) << "seed " << seed;
      for (const ServiceHop& hop : result.path.hops) {
        EXPECT_TRUE(up(hop.proxy))
            << "route through crashed proxy " << hop.proxy.value()
            << ", seed " << seed;
      }
    }
    append_path(dig, result.path);
    dig << " cranks=" << result.crankbacks << "\n";
  }

  // --- leg 3: incremental churn maintenance vs full rebuild, degraded ---
  DynamicHfcOverlay inc(w.coords, w.placement, {},
                        BorderSelection::kClosestPair);
  Rng crng = Rng(seed).fork(11);
  std::vector<ChurnEvent> events;
  for (std::size_t i : crng.sample_indices(w.coords.size(), 3)) {
    events.push_back(ChurnEvent::make_deactivate(NodeId(static_cast<int>(i))));
  }
  events.push_back(ChurnEvent::make_activate(events.front().node));
  events.push_back(ChurnEvent::make_add(
      {crng.uniform_real(0, 4), crng.uniform_real(0, 4)}, {ServiceId(0)}));
  (void)inc.apply(events);
  const oracle::FullRebuild full(inc);

  // Invariant (d): identical partitions, border pairs, and degraded routes.
  EXPECT_EQ(inc.active_partition(), full.active_partition())
      << "seed " << seed;
  EXPECT_EQ(inc.border_pairs(), full.border_pairs()) << "seed " << seed;
  for (const auto& [lo, hi] : inc.border_pairs()) {
    dig << "b " << lo.value() << "-" << hi.value() << "\n";
  }

  NodeId src, dst;
  for (NodeId node : net.all_nodes()) {
    if (!inc.is_active(node) || !up(node)) continue;
    if (!src.valid()) src = node;
    dst = node;
  }
  Rng qrng = Rng(seed).fork(13);
  const ServiceRequest query = make_request(src, dst, 2, rp, qrng);
  const auto dyn_up = [&](NodeId n) { return up(n); };
  const ServicePath via_inc = inc.route_degraded(query, dyn_up);
  const ServicePath via_full = full.route_degraded(query, dyn_up);
  EXPECT_EQ(via_inc.found, via_full.found) << "seed " << seed;
  EXPECT_EQ(via_inc.hops, via_full.hops) << "seed " << seed;
  for (const ServiceHop& hop : via_inc.hops) {
    EXPECT_TRUE(up(hop.proxy)) << "seed " << seed;
  }
  append_path(dig, via_inc);
  dig << "\n";
  return dig.str();
}

class ChaosSuite : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override { set_global_threads(0); }
};

TEST_P(ChaosSuite, InvariantsHoldAndReplayIsBitEqual) {
  const std::uint64_t seed = GetParam();
  set_global_threads(1);
  const std::string serial = run_chaos(seed);
  const std::string replay = run_chaos(seed);
  set_global_threads(4);
  const std::string threaded = run_chaos(seed);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, replay) << "same-seed replay diverged, seed " << seed;
  EXPECT_EQ(serial, threaded)
      << "serial vs 4-thread run diverged, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSuite,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

}  // namespace
}  // namespace hfc
