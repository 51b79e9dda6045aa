// The hierarchical service-routing-information distribution protocol of
// paper §4, executed on the discrete-event engine.
//
// Every proxy maintains two Service Capability Tables:
//   SCT_P — full per-proxy service sets for its own cluster, refreshed by
//           periodic *local state* messages flooded within the cluster;
//   SCT_C — aggregate service set per cluster, refreshed by *aggregate
//           state* messages each border proxy sends to its peer borders in
//           other clusters, which then forward them inside their cluster.
// Message delivery takes the overlay distance between sender and receiver.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "sim/event_queue.h"
#include "util/ids.h"
#include "util/rng.h"

namespace hfc {

struct StateProtocolParams {
  double local_period_ms = 1000.0;
  double aggregate_period_ms = 2000.0;
  /// How many periods of each message type to simulate.
  std::size_t rounds = 2;
  /// Offset of the first aggregate round after the first local round, so
  /// borders aggregate fresh SCT_P contents.
  double aggregate_phase_ms = 500.0;
  /// Probability that any single protocol message is lost in transit
  /// (failure injection). Periodic refresh makes the protocol
  /// soft-state: lost messages are repaired by later rounds.
  double loss_probability = 0.0;
  /// Seed for the loss process (only used when loss_probability > 0).
  std::uint64_t loss_seed = 1;
  /// Soft-state lifetime: SCT_P/SCT_C entries not refreshed for this long
  /// are expired, so state from a crashed or partitioned peer ages out
  /// instead of lingering as stale truth. 0 (the default) disables expiry.
  double sct_ttl_ms = 0.0;
  /// Retransmission attempts for each border-to-border aggregate message
  /// whose (implicit) delivery ack has not arrived after retry_timeout_ms.
  /// 0 keeps the paper's pure periodic-refresh behaviour.
  std::size_t aggregate_retries = 0;
  double retry_timeout_ms = 250.0;
};

/// Protocol traffic accounting. Since the observability subsystem landed,
/// the live tallies are the process-wide `obs::MetricsRegistry` counters
/// under the "protocol." prefix; this struct is the per-sim snapshot view
/// (the delta since the sim was constructed), kept so existing callers of
/// `metrics()` stay source-compatible.
struct StateProtocolMetrics {
  std::size_t local_messages = 0;
  std::size_t aggregate_messages = 0;       ///< border-to-border
  std::size_t forwarded_messages = 0;       ///< intra-cluster fan-out
  /// Sum over delivered messages of the service-name count they carry —
  /// the protocol's bandwidth proxy.
  std::size_t service_names_carried = 0;
  /// Simulation time at which the last table update happened.
  double convergence_time_ms = 0.0;
  /// Messages dropped by the loss process.
  std::size_t lost_messages = 0;
  /// Aggregate retransmissions triggered by missed delivery acks.
  std::size_t retried_messages = 0;
  /// SCT entries removed by TTL expiry sweeps.
  std::size_t expired_entries = 0;
};

/// One proxy's view of the system, as maintained by the protocol.
struct ProxyStateTables {
  /// SCT_P: services per known proxy of the own cluster.
  std::unordered_map<NodeId, std::vector<ServiceId>> sct_p;
  /// SCT_C: aggregate services per known cluster.
  std::unordered_map<ClusterId, std::vector<ServiceId>> sct_c;
};

class FaultInjector;

class StateProtocolSim {
 public:
  /// `delay` gives message delivery latency between proxies (typically
  /// ground-truth underlay delays). References must outlive the sim.
  StateProtocolSim(const OverlayNetwork& net, const HfcTopology& topo,
                   OverlayDistance delay, StateProtocolParams params = {});

  /// Attach a fault injector: its plan is armed onto this sim's event
  /// queue when run() starts, crashed proxies neither send nor receive
  /// (a crash also wipes the victim's soft state), and every message's
  /// fate (partition / burst loss / jitter) is decided by the injector.
  /// Call before run(); the injector must outlive the sim and must not be
  /// shared with another sim (arming is once-only).
  void set_fault_injector(FaultInjector* injector);

  /// Run the configured rounds to completion.
  void run();

  /// Simulation time when run() drained its event queue (0 before run).
  [[nodiscard]] double end_time_ms() const { return end_time_ms_; }

  /// Entries across all tables whose last refresh is older than `ttl_ms`
  /// relative to end_time_ms(). With expiry enabled this is 0 after run()
  /// for any ttl_ms >= the configured TTL — the chaos suite's staleness
  /// invariant.
  [[nodiscard]] std::size_t stale_entries(double ttl_ms) const;

  [[nodiscard]] const ProxyStateTables& tables(NodeId node) const;

  /// This sim's traffic as a delta of the registry's "protocol.*" counters
  /// since construction. Exact for the (universal) case of sims whose
  /// message processing does not interleave with another sim's; two sims
  /// running their event loops concurrently would blend into the same
  /// process-wide counters.
  [[nodiscard]] const StateProtocolMetrics& metrics() const;

  /// True when every proxy's SCT_P matches its cluster's placement and its
  /// SCT_C matches every cluster's aggregate service set.
  [[nodiscard]] bool fully_converged() const;

  /// Fraction of expected table entries (SCT_P rows + SCT_C rows over all
  /// proxies) that are present and accurate — 1.0 iff fully_converged().
  /// Quantifies degradation under message loss.
  [[nodiscard]] double convergence_fraction() const;

  /// The ground-truth aggregate service set of a cluster (sorted).
  [[nodiscard]] std::vector<ServiceId> aggregate_of(ClusterId cluster) const;

 private:
  /// True when the loss process drops a message.
  bool dropped();
  /// Combined fate of a message: the sim's own loss process, then the
  /// attached injector (partitions, bursts, jitter). On true, `extra_delay`
  /// holds the injector's jitter to add to the delivery delay.
  bool message_passes(NodeId from, NodeId to, double& extra_delay);
  [[nodiscard]] bool is_up(NodeId node) const;
  void send_local_state(Simulator& sim, NodeId from);
  void send_aggregate_state(Simulator& sim, NodeId border);
  void send_aggregate_to(Simulator& sim, NodeId border, NodeId peer,
                         ClusterId own, const std::vector<ServiceId>& services,
                         std::size_t attempts_left);
  void deliver_local(Simulator& sim, NodeId to, NodeId about,
                     std::vector<ServiceId> services);
  void deliver_aggregate(Simulator& sim, NodeId to, ClusterId about,
                         std::vector<ServiceId> services, bool forwarded);
  /// Drop every entry whose stamp is older than now - sct_ttl_ms.
  void expire_stale(double now);

  const OverlayNetwork& net_;
  const HfcTopology& topo_;
  OverlayDistance delay_;
  StateProtocolParams params_;
  std::vector<ProxyStateTables> tables_;
  /// Last-refresh stamps paralleling tables_ (ProxyStateTables stays the
  /// plain two-map view callers already depend on).
  std::vector<std::unordered_map<NodeId, double>> sct_p_stamp_;
  std::vector<std::unordered_map<ClusterId, double>> sct_c_stamp_;
  StateProtocolMetrics base_;  ///< registry counter values at construction
  mutable StateProtocolMetrics metrics_view_;
  double convergence_time_ms_ = 0.0;
  double end_time_ms_ = 0.0;
  Rng loss_rng_;
  FaultInjector* injector_ = nullptr;
  bool ran_ = false;
};

}  // namespace hfc
