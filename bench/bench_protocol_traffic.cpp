// Extension bench — state distribution protocol traffic (§4).
//
// Runs the hierarchical protocol on the event simulator and reports its
// per-round message and bandwidth cost next to what flat flooding (every
// proxy advertising to every other proxy) would cost at the same scale.
//
// All reported counts come from the observability registry: each sim run
// (and each construction-cost measurement) is bracketed by registry
// snapshots and reported as `obs::counter_delta` between them, rather
// than from any per-run tallies kept by the simulator itself.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "core/experiment.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "routing/hierarchical_router.h"
#include "sim/state_protocol.h"
#include "src/obs/metrics.h"

namespace {

using Snapshot = std::vector<hfc::obs::MetricSnapshot>;

Snapshot snap() { return hfc::obs::MetricsRegistry::global().snapshot(); }

}  // namespace

int main() {
  using namespace hfc;
  benchutil::BenchJson json("protocol_traffic");
  std::cout << "State distribution protocol traffic per refresh round\n";
  std::cout << format_row({"proxies", "local msgs", "agg msgs", "fwd msgs",
                           "total", "flat flood", "conv (ms)"})
            << "\n";
  for (const Environment& env : paper_environments()) {
    const auto fw = HfcFramework::build(config_for(env, 8000));
    StateProtocolParams params;
    params.rounds = 1;
    StateProtocolSim sim(fw->overlay(), fw->topology(), fw->true_distance(),
                         params);
    const Snapshot before = snap();
    sim.run();
    const Snapshot after = snap();
    const std::uint64_t local =
        obs::counter_delta(before, after, "protocol.local_messages");
    const std::uint64_t aggregate =
        obs::counter_delta(before, after, "protocol.aggregate_messages");
    const std::uint64_t forwarded =
        obs::counter_delta(before, after, "protocol.forwarded_messages");
    const std::uint64_t total = local + aggregate + forwarded;
    const std::size_t flat_flood = env.proxies * (env.proxies - 1);
    std::cout << format_row({std::to_string(env.proxies),
                             std::to_string(local),
                             std::to_string(aggregate),
                             std::to_string(forwarded),
                             std::to_string(total),
                             std::to_string(flat_flood),
                             benchutil::fmt(sim.metrics().convergence_time_ms,
                                            1)})
              << "\n";
    json.add_trials(1);
    if (env.proxies == 250) {
      json.note("messages_total_250", static_cast<double>(total));
    }
    if (!sim.fully_converged()) {
      std::cout << "  WARNING: protocol did not fully converge\n";
    }
  }

  // One-time construction cost (§3.1-3.3: probes + coordinator traffic).
  std::cout << "\nConstruction cost (one-time):\n";
  std::cout << format_row({"proxies", "probes", "vs n^2 probes",
                           "P msgs", "payload states"})
            << "\n";
  for (const Environment& env : paper_environments()) {
    const auto fw = HfcFramework::build(config_for(env, 8050));
    const Snapshot before = snap();
    (void)measure_construction_cost(*fw);
    const Snapshot after = snap();
    const std::uint64_t probes =
        obs::counter_delta(before, after, "construction.measurement_probes");
    const std::uint64_t messages =
        obs::counter_delta(before, after, "construction.report_messages") +
        obs::counter_delta(before, after, "construction.info_messages");
    const std::uint64_t states =
        obs::counter_delta(before, after, "construction.info_node_states");
    std::cout << format_row(
                     {std::to_string(env.proxies),
                      std::to_string(probes),
                      std::to_string(env.proxies * (env.proxies - 1) / 2),
                      std::to_string(messages),
                      std::to_string(states)})
              << "\n";
    json.add_trials(1);
  }

  // Failure injection: soft-state repair under 30% message loss.
  std::cout << "\nConvergence under 30% message loss (250 proxies):\n";
  std::cout << format_row({"rounds", "lost msgs", "convergence"}) << "\n";
  const auto fw = HfcFramework::build(
      config_for(Environment{300, 10, 250, 40}, 8000));
  for (std::size_t rounds : {1u, 2u, 4u, 8u}) {
    StateProtocolParams lossy;
    lossy.rounds = rounds;
    lossy.loss_probability = 0.3;
    StateProtocolSim sim(fw->overlay(), fw->topology(), fw->true_distance(),
                         lossy);
    const Snapshot before = snap();
    sim.run();
    const Snapshot after = snap();
    const std::uint64_t lost =
        obs::counter_delta(before, after, "protocol.lost_messages");
    std::cout << format_row(
                     {std::to_string(rounds),
                      std::to_string(lost),
                      benchutil::fmt(sim.convergence_fraction(), 4)})
              << "\n";
    json.add_trials(1);
  }

  // Fault scenario (ISSUE 5): a correlated burst-loss window plus a
  // border-proxy crash/recover, against a fault-free run of the same
  // configuration. Reported: message cost, reconvergence time, and the
  // stretch of the router's fallback routes while the stored border pair
  // between two clusters is dark. Emitted as BENCH_protocol_faults.json.
  {
    benchutil::BenchJson fault_json("protocol_faults");
    const HfcTopology& topo = fw->topology();
    const std::vector<NodeId> nodes = fw->overlay().all_nodes();
    const ClusterId ca = topo.cluster_of(nodes.front());
    ClusterId cb = ca;
    for (NodeId node : nodes) {
      if (topo.cluster_of(node) != ca) {
        cb = topo.cluster_of(node);
        break;
      }
    }
    const NodeId near_border = topo.border(ca, cb);
    const NodeId far_border = topo.border(cb, ca);

    StateProtocolParams fparams;
    fparams.local_period_ms = 200.0;
    fparams.aggregate_period_ms = 200.0;
    fparams.aggregate_phase_ms = 100.0;
    fparams.rounds = 6;
    fparams.sct_ttl_ms = 600.0;
    fparams.aggregate_retries = 2;
    fparams.retry_timeout_ms = 200.0;

    // Crash the ca-side border at 100ms (back at 400ms) and drop 90% of
    // everything in a 150-350ms window; all faults heal with three full
    // refresh rounds left, so the soft state can reconverge.
    std::vector<FaultEvent> events;
    FaultEvent crash;
    crash.time_ms = 100.0;
    crash.kind = FaultKind::kCrash;
    crash.node = near_border;
    events.push_back(crash);
    FaultEvent recover = crash;
    recover.time_ms = 400.0;
    recover.kind = FaultKind::kRecover;
    events.push_back(recover);
    FaultEvent burst_open;
    burst_open.time_ms = 150.0;
    burst_open.kind = FaultKind::kBurstStart;
    burst_open.loss = 0.9;
    events.push_back(burst_open);
    FaultEvent burst_close = burst_open;
    burst_close.time_ms = 350.0;
    burst_close.kind = FaultKind::kBurstEnd;
    events.push_back(burst_close);
    // HFC_FAULT_PLAN overrides the scripted scenario with any spec
    // (FaultPlan::parse throws on a malformed one).
    const char* spec = std::getenv("HFC_FAULT_PLAN");
    FaultPlan plan = spec != nullptr && *spec != '\0' ? FaultPlan::parse(spec)
                                                      : FaultPlan();
    if (plan.events().empty()) {
      plan = FaultPlan(events, /*base_loss=*/0.0, /*jitter_ms=*/0.0,
                       /*seed=*/8000);
    }

    struct ProtocolOutcome {
      std::uint64_t messages = 0;
      std::uint64_t lost = 0;
      std::uint64_t retried = 0;
      std::uint64_t expired = 0;
      double convergence_ms = 0.0;
      bool converged = false;
    };
    const auto run_protocol = [&](const FaultPlan* p) {
      StateProtocolSim sim(fw->overlay(), topo, fw->true_distance(), fparams);
      FaultInjector injector(p != nullptr ? *p : FaultPlan(), topo);
      if (p != nullptr) sim.set_fault_injector(&injector);
      const Snapshot before = snap();
      sim.run();
      const Snapshot after = snap();
      ProtocolOutcome out;
      out.messages =
          obs::counter_delta(before, after, "protocol.local_messages") +
          obs::counter_delta(before, after, "protocol.aggregate_messages") +
          obs::counter_delta(before, after, "protocol.forwarded_messages");
      out.lost = obs::counter_delta(before, after, "protocol.lost_messages") +
                 obs::counter_delta(before, after, "fault.dropped_loss") +
                 obs::counter_delta(before, after, "fault.dropped_down");
      out.retried =
          obs::counter_delta(before, after, "protocol.retried_messages");
      out.expired =
          obs::counter_delta(before, after, "protocol.expired_entries");
      out.convergence_ms = sim.metrics().convergence_time_ms;
      out.converged = sim.fully_converged();
      return out;
    };
    const ProtocolOutcome clean = run_protocol(nullptr);
    const ProtocolOutcome faulted = run_protocol(&plan);

    std::cout << "\nBurst loss + border failure (250 proxies, plan "
              << plan.serialize() << "):\n";
    std::cout << format_row({"run", "msgs", "lost", "retried", "expired",
                             "reconv (ms)", "converged"})
              << "\n";
    const auto report = [&](const char* label, const ProtocolOutcome& o) {
      std::cout << format_row({label, std::to_string(o.messages),
                               std::to_string(o.lost),
                               std::to_string(o.retried),
                               std::to_string(o.expired),
                               benchutil::fmt(o.convergence_ms, 1),
                               o.converged ? "yes" : "NO"})
                << "\n";
    };
    report("fault-free", clean);
    report("faulted", faulted);
    fault_json.add_trials(2);
    fault_json.note("messages_fault_free", static_cast<double>(clean.messages));
    fault_json.note("messages_faulted", static_cast<double>(faulted.messages));
    fault_json.note("reconvergence_ms", faulted.convergence_ms);
    fault_json.note("converged", faulted.converged ? 1.0 : 0.0);

    // Fallback stretch: route a request batch normally, then again with
    // both stored borders between ca and cb crashed, and compare costs on
    // the requests both modes can serve.
    std::vector<NodeId> crashed{near_border, far_border};
    std::sort(crashed.begin(), crashed.end());
    crashed.erase(std::unique(crashed.begin(), crashed.end()), crashed.end());
    const auto up = [&crashed](NodeId n) {
      return !std::binary_search(crashed.begin(), crashed.end(), n);
    };
    Rng rng(8100);
    const auto requests = fw->generate_requests(40, rng);
    double stretch_sum = 0.0;
    std::size_t compared = 0;
    std::size_t degraded_only_failures = 0;
    for (const ServiceRequest& request : requests) {
      if (!up(request.source) || !up(request.destination)) continue;
      const ServicePath healthy = fw->router().route(request);
      const auto degraded = fw->router().route_degraded(request, up, 32);
      if (healthy.found && degraded.path.found && healthy.cost > 0.0) {
        stretch_sum += degraded.path.cost / healthy.cost;
        ++compared;
      } else if (healthy.found && !degraded.path.found) {
        ++degraded_only_failures;
      }
    }
    const double stretch = compared > 0 ? stretch_sum / compared : 0.0;
    std::cout << "fallback stretch over " << compared
              << " requests (borders " << near_border.value() << ","
              << far_border.value() << " dark): " << benchutil::fmt(stretch, 4)
              << "  unroutable: " << degraded_only_failures << "\n";
    fault_json.add_trials(requests.size());
    fault_json.note("fallback_stretch", stretch);
    fault_json.note("fallback_compared", static_cast<double>(compared));
    fault_json.note("fallback_unroutable",
                    static_cast<double>(degraded_only_failures));
  }
  return 0;
}
