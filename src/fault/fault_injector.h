// Executes a FaultPlan against a discrete-event simulation.
//
// The injector is the single seam between a fault schedule and the things
// it breaks: it arms the plan's events onto a `Simulator`, tracks which
// proxies are down and which cluster pairs are partitioned, and decides
// the fate of every protocol message (drop due to partition, correlated
// burst loss, plan-wide base loss; extra delivery jitter). All message-
// level randomness derives from the plan's seed, and the simulator is
// single-threaded, so a given (plan, workload) pair replays bit-for-bit.
//
// Everything the injector does is surfaced through the metrics registry
// under the "fault." prefix (see DESIGN.md §10 for the full table).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "fault/fault_plan.h"
#include "sim/event_queue.h"
#include "util/ids.h"
#include "util/rng.h"

namespace hfc {

class HfcTopology;

/// Fate of one message, decided at send time. A dropped message is never
/// scheduled; a delivered one arrives after its normal delay plus
/// `extra_delay_ms` of jitter.
struct MessageFate {
  bool delivered = true;
  double extra_delay_ms = 0.0;
};

class FaultInjector {
 public:
  /// The topology is only consulted for cluster membership when checking
  /// partitions; it must outlive the injector and may mutate under churn
  /// (a node's current cluster is looked up per message).
  FaultInjector(FaultPlan plan, const HfcTopology& topo);

  /// Schedule every plan event onto `sim`. Call once, before running the
  /// sim; crash/recover state then evolves as the sim clock advances.
  void arm(Simulator& sim);

  /// Liveness "now" (as of the armed simulator's clock).
  [[nodiscard]] bool node_up(NodeId node) const {
    return node.idx() >= crashed_.size() || crashed_[node.idx()] == 0;
  }
  [[nodiscard]] std::size_t crashed_count() const { return crashed_count_; }
  /// A copyable predicate view of node_up, for routing filters.
  [[nodiscard]] std::function<bool(NodeId)> up_predicate() const;

  [[nodiscard]] bool partitioned(ClusterId a, ClusterId b) const;
  /// Effective correlated-loss probability right now: the max loss over
  /// all currently open burst windows (0 when none). Windows may overlap;
  /// each end event closes the oldest open window, matching serialize().
  [[nodiscard]] double current_burst_loss() const;

  /// Decide the fate of one message. Senders that are down should not call
  /// this (a crashed proxy sends nothing); if they do, the message is
  /// dropped and counted like a receiver-down drop.
  [[nodiscard]] MessageFate on_message(NodeId from, NodeId to);

  /// Record a delivery-time drop (receiver was down when the message
  /// arrived). The protocol owns that check because recovery may land
  /// between send and delivery; the injector owns the accounting.
  void note_receiver_down();

  /// Hooks fired when a crash/recover event executes (e.g. the protocol
  /// clears the victim's soft state on crash). Set before arm() fires.
  void set_on_crash(std::function<void(NodeId)> fn) {
    on_crash_ = std::move(fn);
  }
  void set_on_recover(std::function<void(NodeId)> fn) {
    on_recover_ = std::move(fn);
  }
  /// Hooks fired when a partition opens / heals between two clusters
  /// (e.g. a streaming session marks tree edges crossing the pair as
  /// interrupted). Fired only on state changes — a duplicate partition
  /// event for an already-partitioned pair stays silent, like crashes.
  void set_on_partition(std::function<void(ClusterId, ClusterId)> fn) {
    on_partition_ = std::move(fn);
  }
  void set_on_heal(std::function<void(ClusterId, ClusterId)> fn) {
    on_heal_ = std::move(fn);
  }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  [[nodiscard]] static std::uint64_t pair_key(ClusterId a, ClusterId b);
  void apply(Simulator& sim, const FaultEvent& event);

  FaultPlan plan_;
  const HfcTopology& topo_;
  Rng msg_rng_;
  bool armed_ = false;
  /// 1 per crashed node, indexed by id; grown on demand up to the largest
  /// id crashed (an id past the end is up).
  std::vector<std::uint8_t> crashed_;
  std::size_t crashed_count_ = 0;
  std::unordered_set<std::uint64_t> partitions_;
  /// Loss of each open burst window, oldest first (FIFO close order).
  std::deque<double> open_burst_losses_;
  std::function<void(NodeId)> on_crash_;
  std::function<void(NodeId)> on_recover_;
  std::function<void(ClusterId, ClusterId)> on_partition_;
  std::function<void(ClusterId, ClusterId)> on_heal_;
};

}  // namespace hfc
