// stream_chaos: long-lived streaming multicast under churn and faults. Each
// session builds a ~4.4k-proxy universe, streams from 2 sources to its
// receivers in locating-first mode for 1000 ms of virtual time, and
// survives 20 crashes, 3 partitions and 2 loss bursts in the first 600 ms
// while 10% of receivers join late and 10% leave. The driver arms the joins
// and leaves itself (as StreamSchedule::arm does) so that every
// activation, subscribe, unsubscribe and deactivation is timed; the
// session's own repair passes and ticks are the self time of sim.run.
// Sessions repeat until the run's time is up, all over one fixed universe
// and one fixed fault plan; the run's seed and the session's index drive
// the membership schedule and loss draws. Runs that complete more or fewer
// sessions then still stream through the same chaos.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "harness.h"
#include "qos/qos_manager.h"
#include "sim/event_queue.h"
#include "streaming/stream_schedule.h"
#include "streaming/streaming_session.h"
#include "util/rng.h"
#include "util/stats.h"

namespace e2e {
namespace {

using namespace hfc;

constexpr std::size_t kReceivers = 4000;
constexpr std::size_t kSmokeReceivers = 800;
constexpr std::size_t kSources = 2;
constexpr double kSessionMs = 1000.0;
constexpr double kChaosMs = 600.0;
constexpr std::uint64_t kUniverseSeed = 1;

/// One session's objects, in dependency order for teardown.
struct Session {
  std::unique_ptr<DynamicHfcOverlay> overlay;
  std::unique_ptr<QosManager> qos;
  FaultPlan plan;
  std::unique_ptr<StreamingSession> session;
  std::unique_ptr<FaultInjector> injector;
  Simulator sim;
  std::vector<NodeId> sources;
  StreamingParams params;
};

struct Latencies {
  std::vector<double> join_ms;    ///< activation + subscribe
  std::vector<double> update_ms;  ///< unsubscribe + deactivation
};

/// Build one session and schedule its timeline on the simulator.
void set_up(Run& run, Session& s, std::size_t receivers, std::uint64_t seed,
            Latencies& lat, std::vector<double>& request_ms) {
  // Universe inputs: receivers plus 10% headroom in ~100-proxy blobs, four
  // services cycled so every cluster hosts the chain.
  const std::size_t n = receivers + receivers / 10 + kSources;
  const std::size_t blobs = std::max<std::size_t>(4, n / 100);
  Rng rng(kUniverseSeed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = i % blobs;
    pts.push_back(
        {static_cast<double>(b % 16) * 120.0 + rng.uniform_real(-5.0, 5.0),
         static_cast<double>(b / 16) * 120.0 + rng.uniform_real(-5.0, 5.0)});
  }
  ServicePlacement placement(n);
  for (std::size_t i = 0; i < n; ++i) {
    placement[i] = {ServiceId(static_cast<std::int32_t>(i % 4))};
  }

  s.overlay = run.call("dynamic.overlay_ctor", [&] {
    return std::make_unique<DynamicHfcOverlay>(
        std::move(pts), std::move(placement), ZahnParams{},
        BorderSelection::kClosestPair, ChurnMode::kIncremental);
  });
  DynamicHfcOverlay& overlay = *s.overlay;
  const OverlayNetwork& net = overlay.universe_network();
  const HfcTopology& topo = overlay.universe_topology();
  s.qos = run.call("qos.manager_ctor", [&] {
    return std::make_unique<QosManager>(
        net, topo, std::vector<double>(net.size(), 1.0e6),
        CapacityAggregation::kOptimistic);
  });

  FaultPlanParams fp;
  fp.horizon_ms = kChaosMs;
  fp.heal_fraction = 1.0;
  fp.crashes = 20;
  fp.mean_downtime_ms = 150.0;
  fp.partitions = 3;
  fp.mean_partition_ms = 120.0;
  fp.bursts = 2;
  fp.mean_burst_ms = 80.0;
  fp.burst_loss = 0.3;
  s.plan = run.call("fault.plan",
                    [&] { return FaultPlan::random(fp, topo, kUniverseSeed); });

  // Sources are the first proxies no crash touches; the rest is the pool.
  std::set<NodeId> victims;
  for (const FaultEvent& event : s.plan.events()) {
    if (event.kind == FaultKind::kCrash) victims.insert(event.node);
  }
  std::vector<NodeId> pool;
  for (NodeId node : net.all_nodes()) {
    if (s.sources.size() < kSources && victims.count(node) == 0) {
      s.sources.push_back(node);
    } else {
      pool.push_back(node);
    }
  }

  StreamScheduleParams sp;
  sp.initial_count = receivers - receivers / 10;
  sp.join_count = receivers / 10;
  sp.leave_count = receivers / 10;
  sp.horizon_ms = kChaosMs;
  const StreamSchedule schedule = run.call("streaming.schedule", [&] {
    return StreamSchedule::random(pool, sp, seed);
  });
  std::vector<ChurnEvent> late;
  for (NodeId node : schedule.late_joiners()) {
    late.push_back(ChurnEvent::make_deactivate(node));
  }
  run.call("dynamic.apply", [&] { return overlay.apply(late); });

  s.params.chain = {ServiceId(1)};
  s.params.tick_ms = 50.0;
  s.params.repair_delay_ms = 25.0;
  s.params.demand = 1.0;
  s.params.mode = StreamMode::kLocating;
  s.params.seed = seed;
  s.session = run.call("streaming.session_ctor", [&] {
    return std::make_unique<StreamingSession>(overlay, *s.qos, s.sources,
                                              s.params);
  });
  StreamingSession& session = *s.session;
  run.call("fault.injector", [&] {
    s.injector = std::make_unique<FaultInjector>(s.plan, topo);
    session.attach_injector(*s.injector);
    s.injector->arm(s.sim);
    session.start(s.sim, kSessionMs);
  });

  // Membership timeline: a join activates (when needed) and subscribes; a
  // leave unsubscribes and deactivates. Each is one timed request.
  std::uint64_t next_request = 0;
  for (const StreamEvent& event : schedule.events()) {
    const NodeId node = event.node;
    const std::uint64_t id = ++next_request;
    std::function<void(Simulator&)> handler;
    if (event.join) {
      handler = [&run, &overlay, &session, &lat, &request_ms, node,
                 id](Simulator& sim) {
        run.set_request(id);
        double ms = 0.0;
        if (!overlay.is_active(node)) {
          const ChurnEvent activate = ChurnEvent::make_activate(node);
          run.call("dynamic.apply",
                   [&] { return overlay.apply({&activate, 1}); });
          ms += run.last_ms();
        }
        run.call("streaming.subscribe", [&] { session.subscribe(sim, node); });
        ms += run.last_ms();
        lat.join_ms.push_back(ms);
        request_ms.push_back(ms);
        run.set_request(0);
      };
    } else {
      handler = [&run, &overlay, &session, &lat, &request_ms, node,
                 id](Simulator& sim) {
        run.set_request(id);
        run.call("streaming.unsubscribe",
                 [&] { session.unsubscribe(sim, node); });
        double ms = run.last_ms();
        const ChurnEvent deactivate = ChurnEvent::make_deactivate(node);
        run.call("dynamic.apply",
                 [&] { return overlay.apply({&deactivate, 1}); });
        ms += run.last_ms();
        lat.update_ms.push_back(ms);
        request_ms.push_back(ms);
        run.set_request(0);
      };
    }
    s.sim.schedule_at(event.time_ms, std::move(handler));
  }
}

struct SessionOutcome {
  double tail = 1.0;      ///< delivery ratio after the last repair
  double reserved = 0.0;  ///< capacity still reserved after finish
};

/// Output checks after a session: the post-repair tail delivers, every
/// reservation is released, and every attached member's branch starts at
/// its source, ends at the member and applies the chain exactly once. The
/// path cost is each final tree's cost per receiver: root paths grow with
/// tree depth, which the join order decides, so their mean swung by a
/// fifth between seeds.
SessionOutcome check_session(Run& run, Session& s, EndToEnd& e2e) {
  Run::Check check(run);
  StreamingSession& session = *s.session;
  const double quiesce = std::max(s.plan.last_event_ms(), kChaosMs) +
                         2.0 * s.params.repair_delay_ms;
  SessionOutcome out;
  out.tail = session.continuity(quiesce).ratio();
  if (out.tail < 0.99) run.violate("post-repair delivery ratio below 0.99");
  out.reserved = s.qos->reserved_total();
  if (std::abs(out.reserved) > 1e-6) {
    run.violate("reservations left after finish");
  }

  const OverlayNetwork& net = s.overlay->universe_network();
  for (std::size_t t = 0; t < session.source_count(); ++t) {
    const StreamingSession::TreeExport tree = session.as_multicast_tree(t);
    if (!tree.request.destinations.empty()) {
      e2e.add_cost(tree.tree.cost /
                   static_cast<double>(tree.request.destinations.size()));
    }
    for (NodeId node : net.all_nodes()) {
      if (!session.is_member(node)) continue;
      const std::vector<ServiceHop> branch = session.branch_of(t, node);
      if (branch.empty()) continue;  // detached at the end: no branch
      ServicePath path;
      path.found = true;
      path.hops = branch;
      if (branch.front().proxy != session.source(t) ||
          branch.back().proxy != node ||
          path.service_sequence() != s.params.chain) {
        run.violate("stream branch breaks its source, member or chain");
      }
    }
  }
  run.mix(std::hash<std::string>{}(session.digest()));
  return out;
}

}  // namespace

void run_stream_chaos(Run& run) {
  const bool smoke = run.opts().smoke;
  const std::size_t receivers = smoke ? kSmokeReceivers : kReceivers;

  EndToEnd e2e;
  Latencies lat;
  std::vector<double> session_s;
  SessionOutcome worst;
  std::size_t sessions = 0;
  run.begin_measure(1);
  while (run.more(sessions)) {
    const std::uint64_t seed =
        splitmix64(run.opts().seed ^ splitmix64(++sessions));
    auto s = std::make_unique<Session>();
    const std::size_t before = e2e.request_ms.size();
    {
      Run::Setup setup(run);
      set_up(run, *s, receivers, seed, lat, e2e.request_ms);
    }
    {
      Run::Span measure(run, "e2e.measure");
      run.call("sim.run", [&] { return s->sim.run(); });
      session_s.push_back(run.last_ms() / 1000.0);
    }
    const std::size_t ops = e2e.request_ms.size() - before;
    e2e.add_requests(ops, 1000.0 * session_s.back());
    run.attempt(ops);
    const SessionOutcome out = check_session(run, *s, e2e);
    worst.tail = std::min(worst.tail, out.tail);
    if (std::abs(out.reserved) > std::abs(worst.reserved)) {
      worst.reserved = out.reserved;
    }
  }
  run.metric("sessions", static_cast<double>(sessions), "count");
  run.metric("session_s", percentile(session_s, 50.0), "s");
  run.metric("join_p50_ms", percentile(lat.join_ms, 50.0), "ms");
  run.metric("join_p99_ms", percentile(lat.join_ms, 99.0), "ms");
  run.metric("update_p50_ms", percentile(lat.update_ms, 50.0), "ms");
  run.metric("update_p99_ms", percentile(lat.update_ms, 99.0), "ms");
  run.metric("delivery_tail", worst.tail, "ratio");
  run.metric("qos.reserved_after", worst.reserved, "capacity");
  run.report(e2e);
}

}  // namespace e2e
