#include "fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "overlay/hfc_topology.h"
#include "util/require.h"

namespace hfc {

namespace {

/// Registry handles for everything the injector does, resolved once.
struct FaultMetrics {
  obs::Counter& crashes;
  obs::Counter& recoveries;
  obs::Counter& partitions;
  obs::Counter& heals;
  obs::Counter& bursts;
  obs::Counter& dropped_loss;       ///< base + burst loss drops
  obs::Counter& dropped_partition;  ///< cross-partition drops
  obs::Counter& dropped_down;       ///< sender/receiver-down drops
  obs::Counter& jittered;           ///< messages given extra delay
  obs::Gauge& jitter_ms_total;

  static FaultMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static FaultMetrics m{
        reg.counter("fault.crashes"),
        reg.counter("fault.recoveries"),
        reg.counter("fault.partitions"),
        reg.counter("fault.heals"),
        reg.counter("fault.bursts"),
        reg.counter("fault.dropped_loss"),
        reg.counter("fault.dropped_partition"),
        reg.counter("fault.dropped_down"),
        reg.counter("fault.jittered"),
        reg.gauge("fault.jitter_ms_total"),
    };
    return m;
  }
};

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, const HfcTopology& topo)
    : plan_(std::move(plan)),
      topo_(topo),
      msg_rng_(Rng(plan_.seed()).fork(0x0fa1u)) {}

std::uint64_t FaultInjector::pair_key(ClusterId a, ClusterId b) {
  const std::uint64_t lo =
      static_cast<std::uint64_t>(std::min(a.value(), b.value()));
  const std::uint64_t hi =
      static_cast<std::uint64_t>(std::max(a.value(), b.value()));
  return (hi << 32) | lo;
}

bool FaultInjector::partitioned(ClusterId a, ClusterId b) const {
  if (!a.valid() || !b.valid() || a == b) return false;
  return partitions_.find(pair_key(a, b)) != partitions_.end();
}

std::function<bool(NodeId)> FaultInjector::up_predicate() const {
  return [this](NodeId node) { return node_up(node); };
}

void FaultInjector::apply(Simulator&, const FaultEvent& event) {
  FaultMetrics& m = FaultMetrics::get();
  switch (event.kind) {
    case FaultKind::kCrash: {
      // The table is per topology node: a crash naming a proxy the
      // topology does not hold is a malformed plan, and growing the table
      // to an arbitrary id would allocate up to 2 GiB.
      require(event.node.idx() < topo_.node_count(),
              "FaultInjector: crash of a node outside the topology");
      const std::size_t i = event.node.idx();
      if (i >= crashed_.size()) crashed_.resize(i + 1);
      std::uint8_t& down = crashed_[i];
      if (down == 0) {
        down = 1;
        ++crashed_count_;
        m.crashes.add(1);
        if (on_crash_) on_crash_(event.node);
      }
      break;
    }
    case FaultKind::kRecover:
      if (!node_up(event.node)) {
        crashed_[event.node.idx()] = 0;
        --crashed_count_;
        m.recoveries.add(1);
        if (on_recover_) on_recover_(event.node);
      }
      break;
    case FaultKind::kPartition:
      if (partitions_.insert(pair_key(event.a, event.b)).second) {
        m.partitions.add(1);
        if (on_partition_) on_partition_(event.a, event.b);
      }
      break;
    case FaultKind::kHeal:
      if (partitions_.erase(pair_key(event.a, event.b)) > 0) {
        m.heals.add(1);
        if (on_heal_) on_heal_(event.a, event.b);
      }
      break;
    case FaultKind::kBurstStart:
      open_burst_losses_.push_back(event.loss);
      m.bursts.add(1);
      break;
    case FaultKind::kBurstEnd:
      // An end closes the oldest open window (ends carry no identity;
      // FaultPlan::serialize pairs them the same way), so an overlapping
      // window's loss keeps applying until its own end event.
      if (!open_burst_losses_.empty()) open_burst_losses_.pop_front();
      break;
  }
}

double FaultInjector::current_burst_loss() const {
  double loss = 0.0;
  for (const double l : open_burst_losses_) loss = std::max(loss, l);
  return loss;
}

void FaultInjector::arm(Simulator& sim) {
  require(!armed_, "FaultInjector::arm: already armed");
  armed_ = true;
  for (const FaultEvent& event : plan_.events()) {
    sim.schedule_at(event.time_ms,
                    [this, event](Simulator& s) { apply(s, event); });
  }
}

MessageFate FaultInjector::on_message(NodeId from, NodeId to) {
  FaultMetrics& m = FaultMetrics::get();
  MessageFate fate;
  if (!node_up(from)) {
    // Defensive: callers normally skip crashed senders outright.
    m.dropped_down.add(1);
    fate.delivered = false;
    return fate;
  }
  const ClusterId ca = topo_.cluster_of(from);
  const ClusterId cb = topo_.cluster_of(to);
  if (partitioned(ca, cb)) {
    m.dropped_partition.add(1);
    fate.delivered = false;
    return fate;
  }
  // One combined loss draw per message: burst windows dominate, the
  // plan-wide base loss floors it.
  const double loss =
      std::max(plan_.base_loss(), current_burst_loss());
  if (loss > 0.0 && msg_rng_.chance(loss)) {
    m.dropped_loss.add(1);
    fate.delivered = false;
    return fate;
  }
  if (plan_.jitter_ms() > 0.0) {
    fate.extra_delay_ms = msg_rng_.uniform_real(0.0, plan_.jitter_ms());
    m.jittered.add(1);
    m.jitter_ms_total.add(fate.extra_delay_ms);
  }
  return fate;
}

void FaultInjector::note_receiver_down() {
  FaultMetrics::get().dropped_down.add(1);
}

}  // namespace hfc
