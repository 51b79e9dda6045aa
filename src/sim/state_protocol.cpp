#include "sim/state_protocol.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

/// The protocol's registry handles, resolved once. Counters are the live
/// tallies; StateProtocolSim instances view them as deltas.
struct ProtocolMetrics {
  obs::Counter& local;
  obs::Counter& aggregate;
  obs::Counter& forwarded;
  obs::Counter& names_carried;
  obs::Counter& lost;
  obs::Counter& retried;
  obs::Counter& expired;
  obs::Gauge& convergence_time;

  static ProtocolMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static ProtocolMetrics m{
        reg.counter("protocol.local_messages"),
        reg.counter("protocol.aggregate_messages"),
        reg.counter("protocol.forwarded_messages"),
        reg.counter("protocol.service_names_carried"),
        reg.counter("protocol.lost_messages"),
        reg.counter("protocol.retried_messages"),
        reg.counter("protocol.expired_entries"),
        reg.gauge("protocol.convergence_time_ms"),
    };
    return m;
  }
};

}  // namespace

StateProtocolSim::StateProtocolSim(const OverlayNetwork& net,
                                   const HfcTopology& topo,
                                   OverlayDistance delay,
                                   StateProtocolParams params)
    : net_(net),
      topo_(topo),
      delay_(std::move(delay)),
      params_(params),
      loss_rng_(params.loss_seed) {
  require(static_cast<bool>(delay_), "StateProtocolSim: null delay");
  require(params_.loss_probability >= 0.0 && params_.loss_probability < 1.0,
          "StateProtocolSim: loss probability outside [0,1)");
  require(topo_.node_count() == net_.size(),
          "StateProtocolSim: topology/network size mismatch");
  require(params_.local_period_ms > 0.0 && params_.aggregate_period_ms > 0.0,
          "StateProtocolSim: periods must be positive");
  require(params_.rounds >= 1, "StateProtocolSim: need >= 1 round");
  require(params_.sct_ttl_ms >= 0.0, "StateProtocolSim: negative TTL");
  require(params_.aggregate_retries == 0 || params_.retry_timeout_ms > 0.0,
          "StateProtocolSim: retries need a positive retry timeout");
  tables_.resize(net_.size());
  sct_p_stamp_.resize(net_.size());
  sct_c_stamp_.resize(net_.size());
  // Baseline for the per-sim delta view (see metrics()).
  const ProtocolMetrics& m = ProtocolMetrics::get();
  base_.local_messages = m.local.value();
  base_.aggregate_messages = m.aggregate.value();
  base_.forwarded_messages = m.forwarded.value();
  base_.service_names_carried = m.names_carried.value();
  base_.lost_messages = m.lost.value();
  base_.retried_messages = m.retried.value();
  base_.expired_entries = m.expired.value();
}

void StateProtocolSim::set_fault_injector(FaultInjector* injector) {
  require(!ran_, "StateProtocolSim::set_fault_injector: sim already ran");
  injector_ = injector;
}

bool StateProtocolSim::is_up(NodeId node) const {
  return injector_ == nullptr || injector_->node_up(node);
}

bool StateProtocolSim::message_passes(NodeId from, NodeId to,
                                      double& extra_delay) {
  extra_delay = 0.0;
  // The sim's own Bernoulli loss draws first (preserves the draw sequence
  // of injector-free configurations), then the injector's verdict.
  if (dropped()) return false;
  if (injector_ == nullptr) return true;
  const MessageFate fate = injector_->on_message(from, to);
  extra_delay = fate.extra_delay_ms;
  return fate.delivered;
}

bool StateProtocolSim::dropped() {
  if (params_.loss_probability == 0.0) return false;
  if (!loss_rng_.chance(params_.loss_probability)) return false;
  ProtocolMetrics::get().lost.add(1);
  return true;
}

void StateProtocolSim::deliver_local(Simulator& sim, NodeId to, NodeId about,
                                     std::vector<ServiceId> services) {
  if (!is_up(to)) {
    injector_->note_receiver_down();
    return;
  }
  ProtocolMetrics::get().names_carried.add(services.size());
  tables_[to.idx()].sct_p[about] = std::move(services);
  sct_p_stamp_[to.idx()][about] = sim.now();
  convergence_time_ms_ = sim.now();
  ProtocolMetrics::get().convergence_time.set(convergence_time_ms_);
}

void StateProtocolSim::deliver_aggregate(Simulator& sim, NodeId to,
                                         ClusterId about,
                                         std::vector<ServiceId> services,
                                         bool forwarded) {
  if (!is_up(to)) {
    injector_->note_receiver_down();
    return;
  }
  ProtocolMetrics::get().names_carried.add(services.size());
  tables_[to.idx()].sct_c[about] = services;
  sct_c_stamp_[to.idx()][about] = sim.now();
  convergence_time_ms_ = sim.now();
  ProtocolMetrics::get().convergence_time.set(convergence_time_ms_);
  if (forwarded) return;
  // A border proxy that receives a fresh aggregate from a peer border is
  // responsible for fanning it out inside its own cluster (§4 step 2).
  const ClusterId own = topo_.cluster_of(to);
  for (NodeId member : topo_.members(own)) {
    if (member == to) continue;
    ProtocolMetrics::get().forwarded.add(1);
    double extra = 0.0;
    if (!message_passes(to, member, extra)) continue;
    std::vector<ServiceId> copy = services;
    sim.schedule_in(delay_(to, member) + extra,
                    [this, member, about, copy = std::move(copy)](
                        Simulator& s) mutable {
                      deliver_aggregate(s, member, about, std::move(copy),
                                        /*forwarded=*/true);
                    });
  }
}

void StateProtocolSim::send_local_state(Simulator& sim, NodeId from) {
  if (!is_up(from)) return;  // a crashed proxy's refresh timer is silent
  const std::vector<ServiceId>& services = net_.services_at(from);
  // A node always knows itself.
  tables_[from.idx()].sct_p[from] = services;
  sct_p_stamp_[from.idx()][from] = sim.now();
  for (NodeId member : topo_.members(topo_.cluster_of(from))) {
    if (member == from) continue;
    ProtocolMetrics::get().local.add(1);
    double extra = 0.0;
    if (!message_passes(from, member, extra)) continue;
    sim.schedule_in(delay_(from, member) + extra,
                    [this, member, from, services](Simulator& s) {
                      deliver_local(s, member, from, services);
                    });
  }
}

void StateProtocolSim::send_aggregate_to(Simulator& sim, NodeId border,
                                         NodeId peer, ClusterId own,
                                         const std::vector<ServiceId>& services,
                                         std::size_t attempts_left) {
  ProtocolMetrics::get().aggregate.add(1);
  // Implicit-ack flag shared between the delivery handler and the retry
  // check: delivery within the timeout suppresses the retransmission.
  auto delivered = std::make_shared<bool>(false);
  double extra = 0.0;
  if (message_passes(border, peer, extra)) {
    std::vector<ServiceId> copy = services;
    sim.schedule_in(delay_(border, peer) + extra,
                    [this, peer, own, delivered, copy = std::move(copy)](
                        Simulator& s) mutable {
                      if (!is_up(peer)) {
                        injector_->note_receiver_down();
                        return;  // not acked: the retry may still succeed
                      }
                      *delivered = true;
                      deliver_aggregate(s, peer, own, std::move(copy),
                                        /*forwarded=*/false);
                    });
  }
  if (attempts_left == 0) return;
  std::vector<ServiceId> copy = services;
  sim.schedule_in(
      params_.retry_timeout_ms,
      [this, border, peer, own, delivered, attempts_left,
       copy = std::move(copy)](Simulator& s) mutable {
        if (*delivered) return;
        if (!is_up(border)) return;  // sender crashed since the attempt
        ProtocolMetrics::get().retried.add(1);
        send_aggregate_to(s, border, peer, own, copy, attempts_left - 1);
      });
}

void StateProtocolSim::send_aggregate_state(Simulator& sim, NodeId border) {
  if (!is_up(border)) return;
  const ClusterId own = topo_.cluster_of(border);
  // Aggregate what this border currently knows via SCT_P (union of the
  // per-proxy sets, §4 footnote 5).
  std::vector<ServiceId> aggregate;
  for (const auto& [node, services] : tables_[border.idx()].sct_p) {
    aggregate.insert(aggregate.end(), services.begin(), services.end());
  }
  std::sort(aggregate.begin(), aggregate.end());
  aggregate.erase(std::unique(aggregate.begin(), aggregate.end()),
                  aggregate.end());
  // Every node tracks its own cluster's aggregate locally.
  tables_[border.idx()].sct_c[own] = aggregate;
  sct_c_stamp_[border.idx()][own] = sim.now();

  for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
    const ClusterId other(static_cast<int>(c));
    if (other == own) continue;
    if (!topo_.live(other)) continue;  // dead slots have no borders
    // Only the border facing `other` speaks for the cluster on that edge.
    if (topo_.border(own, other) != border) continue;
    const NodeId peer = topo_.border(other, own);
    send_aggregate_to(sim, border, peer, own, aggregate,
                      params_.aggregate_retries);
  }
}

void StateProtocolSim::expire_stale(double now) {
  if (params_.sct_ttl_ms <= 0.0) return;
  std::size_t expired = 0;
  for (std::size_t n = 0; n < tables_.size(); ++n) {
    for (auto it = sct_p_stamp_[n].begin(); it != sct_p_stamp_[n].end();) {
      if (now - it->second > params_.sct_ttl_ms) {
        tables_[n].sct_p.erase(it->first);
        it = sct_p_stamp_[n].erase(it);
        ++expired;
      } else {
        ++it;
      }
    }
    for (auto it = sct_c_stamp_[n].begin(); it != sct_c_stamp_[n].end();) {
      if (now - it->second > params_.sct_ttl_ms) {
        tables_[n].sct_c.erase(it->first);
        it = sct_c_stamp_[n].erase(it);
        ++expired;
      } else {
        ++it;
      }
    }
  }
  if (expired > 0) ProtocolMetrics::get().expired.add(expired);
}

std::size_t StateProtocolSim::stale_entries(double ttl_ms) const {
  std::size_t stale = 0;
  for (std::size_t n = 0; n < tables_.size(); ++n) {
    for (const auto& [key, stamp] : sct_p_stamp_[n]) {
      if (end_time_ms_ - stamp > ttl_ms) ++stale;
    }
    for (const auto& [key, stamp] : sct_c_stamp_[n]) {
      if (end_time_ms_ - stamp > ttl_ms) ++stale;
    }
  }
  return stale;
}

void StateProtocolSim::run() {
  HFC_TRACE_SPAN("protocol.run");
  require(!ran_, "StateProtocolSim::run: already ran");
  ran_ = true;
  Simulator sim;

  if (injector_ != nullptr) {
    // Crash semantics: a crashed proxy loses its soft state (it restarts
    // cold); liveness checks at send/delivery time do the rest.
    injector_->set_on_crash([this](NodeId victim) {
      tables_[victim.idx()] = ProxyStateTables{};
      sct_p_stamp_[victim.idx()].clear();
      sct_c_stamp_[victim.idx()].clear();
    });
    injector_->arm(sim);
  }

  for (std::size_t round = 0; round < params_.rounds; ++round) {
    const double local_time =
        static_cast<double>(round) * params_.local_period_ms;
    for (NodeId node : net_.all_nodes()) {
      sim.schedule_at(local_time, [this, node](Simulator& s) {
        send_local_state(s, node);
      });
    }
    const double aggregate_time =
        params_.aggregate_phase_ms +
        static_cast<double>(round) * params_.aggregate_period_ms;
    for (NodeId border : topo_.all_borders()) {
      sim.schedule_at(aggregate_time, [this, border](Simulator& s) {
        send_aggregate_state(s, border);
      });
    }
  }
  // Periodic TTL sweeps: stale entries disappear while the sim runs, not
  // just at the end, so mid-run convergence measurements see expiry too.
  if (params_.sct_ttl_ms > 0.0) {
    const double horizon =
        std::max(static_cast<double>(params_.rounds - 1) *
                     params_.local_period_ms,
                 params_.aggregate_phase_ms +
                     static_cast<double>(params_.rounds - 1) *
                         params_.aggregate_period_ms);
    for (double t = params_.sct_ttl_ms; t <= horizon;
         t += params_.sct_ttl_ms) {
      sim.schedule_at(t, [this](Simulator& s) { expire_stale(s.now()); });
    }
  }
  sim.run();
  end_time_ms_ = sim.now();
  // Final sweep at quiesce time: after run() no surviving entry is older
  // than the TTL (the chaos suite's staleness invariant).
  expire_stale(end_time_ms_);
  // Non-border nodes also maintain their own-cluster SCT_C entry locally
  // (they have full SCT_P); refresh at the end of each aggregate phase.
  for (NodeId node : net_.all_nodes()) {
    if (!is_up(node)) continue;  // crashed proxies hold no fresh state
    std::vector<ServiceId> aggregate;
    for (const auto& [peer, services] : tables_[node.idx()].sct_p) {
      aggregate.insert(aggregate.end(), services.begin(), services.end());
    }
    std::sort(aggregate.begin(), aggregate.end());
    aggregate.erase(std::unique(aggregate.begin(), aggregate.end()),
                    aggregate.end());
    tables_[node.idx()].sct_c[topo_.cluster_of(node)] = std::move(aggregate);
    sct_c_stamp_[node.idx()][topo_.cluster_of(node)] = end_time_ms_;
  }
}

const StateProtocolMetrics& StateProtocolSim::metrics() const {
  const ProtocolMetrics& m = ProtocolMetrics::get();
  metrics_view_.local_messages = m.local.value() - base_.local_messages;
  metrics_view_.aggregate_messages =
      m.aggregate.value() - base_.aggregate_messages;
  metrics_view_.forwarded_messages =
      m.forwarded.value() - base_.forwarded_messages;
  metrics_view_.service_names_carried =
      m.names_carried.value() - base_.service_names_carried;
  metrics_view_.lost_messages = m.lost.value() - base_.lost_messages;
  metrics_view_.retried_messages = m.retried.value() - base_.retried_messages;
  metrics_view_.expired_entries = m.expired.value() - base_.expired_entries;
  metrics_view_.convergence_time_ms = convergence_time_ms_;
  return metrics_view_;
}

const ProxyStateTables& StateProtocolSim::tables(NodeId node) const {
  require(node.valid() && node.idx() < tables_.size(),
          "StateProtocolSim::tables: bad node");
  return tables_[node.idx()];
}

std::vector<ServiceId> StateProtocolSim::aggregate_of(
    ClusterId cluster) const {
  return net_.aggregate_services(topo_.members(cluster));
}

double StateProtocolSim::convergence_fraction() const {
  // Ground-truth aggregates once, not once per (node, cluster): the check
  // was O(n * C * |cluster|) recomputation before this hoist.
  std::vector<std::vector<ServiceId>> truth(topo_.cluster_count());
  for (std::size_t c = 0; c < truth.size(); ++c) {
    const ClusterId cluster(static_cast<int>(c));
    if (topo_.live(cluster)) truth[c] = aggregate_of(cluster);
  }
  // Per-node verification is read-only and independent; each task fills
  // its own slot and the final sum over slots is order-independent.
  const std::vector<NodeId>& nodes = net_.all_nodes();
  std::vector<std::pair<std::size_t, std::size_t>> per_node(nodes.size());
  parallel_for(nodes.size(), 8, [&](std::size_t ni) {
    const NodeId node = nodes[ni];
    std::size_t expected = 0;
    std::size_t correct = 0;
    const ProxyStateTables& t = tables_[node.idx()];
    const ClusterId own = topo_.cluster_of(node);
    for (NodeId member : topo_.members(own)) {
      ++expected;
      const auto it = t.sct_p.find(member);
      if (it != t.sct_p.end() && it->second == net_.services_at(member)) {
        ++correct;
      }
    }
    for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
      const ClusterId cluster(static_cast<int>(c));
      if (!topo_.live(cluster)) continue;  // dead slots are not expected
      ++expected;
      const auto it = t.sct_c.find(cluster);
      if (it != t.sct_c.end() && it->second == truth[c]) {
        ++correct;
      }
    }
    per_node[ni] = {expected, correct};
  });
  std::size_t expected = 0;
  std::size_t correct = 0;
  for (const auto& [e, k] : per_node) {
    expected += e;
    correct += k;
  }
  return expected == 0
             ? 1.0
             : static_cast<double>(correct) / static_cast<double>(expected);
}

bool StateProtocolSim::fully_converged() const {
  for (NodeId node : net_.all_nodes()) {
    const ProxyStateTables& t = tables_[node.idx()];
    const ClusterId own = topo_.cluster_of(node);
    // SCT_P: one accurate entry per cluster member.
    const std::vector<NodeId>& members = topo_.members(own);
    if (t.sct_p.size() != members.size()) return false;
    for (NodeId member : members) {
      const auto it = t.sct_p.find(member);
      if (it == t.sct_p.end()) return false;
      if (it->second != net_.services_at(member)) return false;
    }
    // SCT_C: one accurate entry per live cluster in the system.
    if (t.sct_c.size() != topo_.live_cluster_count()) return false;
    for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
      const ClusterId cluster(static_cast<int>(c));
      if (!topo_.live(cluster)) continue;
      const auto it = t.sct_c.find(cluster);
      if (it == t.sct_c.end()) return false;
      if (it->second != aggregate_of(cluster)) return false;
    }
  }
  return true;
}

}  // namespace hfc
