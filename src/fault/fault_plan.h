// Deterministic fault schedules for the discrete-event simulator.
//
// The paper's §4 soft-state protocol claims robustness to message loss;
// a production overlay additionally loses whole proxies (crash/recover),
// whole inter-cluster links (partitions), and experiences correlated
// (burst) loss and delivery jitter. A `FaultPlan` is an explicit, fully
// ordered schedule of such events plus the plan-wide loss/jitter knobs —
// replayable bit-for-bit from a single seed, serializable to a compact
// text spec (see `FaultPlan::parse`), and parseable back, so a chaos
// run can be pinned in a bug report as one short string.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.h"

namespace hfc {

class HfcTopology;

enum class FaultKind {
  kCrash,       ///< proxy goes down; its soft state is lost
  kRecover,     ///< proxy comes back up with empty tables
  kPartition,   ///< all messages between two clusters are dropped
  kHeal,        ///< the partition between two clusters lifts
  kBurstStart,  ///< correlated-loss window opens (loss = `loss`)
  kBurstEnd,    ///< correlated-loss window closes
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

struct FaultEvent {
  double time_ms = 0.0;
  FaultKind kind = FaultKind::kCrash;
  NodeId node;        ///< kCrash / kRecover
  ClusterId a, b;     ///< kPartition / kHeal (unordered pair)
  double loss = 1.0;  ///< kBurstStart: loss probability inside the window

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Knobs for `FaultPlan::random`. All windows (downtime, partitions,
/// bursts) are generated to close by `heal_fraction * horizon_ms`, so a
/// protocol run covering the full horizon always ends with a fault-free
/// tail in which soft-state refresh can reconverge.
struct FaultPlanParams {
  double horizon_ms = 8000.0;
  std::size_t crashes = 3;          ///< crash/recover pairs to schedule
  double mean_downtime_ms = 1200.0;
  /// Probability that a crash victim is drawn from the border set rather
  /// than uniformly — border failures are the interesting case (§3.3).
  double border_bias = 0.5;
  std::size_t partitions = 1;       ///< partition/heal pairs
  double mean_partition_ms = 1200.0;
  std::size_t bursts = 1;           ///< correlated-loss windows
  double mean_burst_ms = 600.0;
  double burst_loss = 0.8;
  /// Plan-wide Bernoulli loss applied to every message, on top of bursts.
  double base_loss = 0.0;
  /// Uniform extra delivery delay in [0, jitter_ms) per message.
  double jitter_ms = 0.0;
  /// Fault windows close by heal_fraction * horizon_ms.
  double heal_fraction = 0.7;
};

class FaultPlan {
 public:
  /// Events sorted by (time, kind, node, clusters, loss): same-time
  /// events apply in FaultKind order, so a plan is its set of events and
  /// serialize() -> parse() returns an equal plan whatever the order of
  /// the spec's directives.
  explicit FaultPlan(std::vector<FaultEvent> events = {},
                     double base_loss = 0.0, double jitter_ms = 0.0,
                     std::uint64_t seed = 1);

  /// Deterministic random plan: identical (params, topo, seed) triples
  /// produce identical plans, independent of thread count or call site.
  /// Crash victims avoid repeats while enough distinct nodes exist;
  /// partition pairs are drawn from the live clusters of `topo`.
  [[nodiscard]] static FaultPlan random(const FaultPlanParams& params,
                                        const HfcTopology& topo,
                                        std::uint64_t seed);

  /// Parse the text format (see serialize); throws
  /// std::invalid_argument with a position hint on malformed input.
  ///
  ///   crash@500:3;recover@1700:3;partition@800:0/2;heal@2100:0/2;
  ///   burst@900+400:0.8;loss:0.05;jitter:2.5;seed:42
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Compact text form, parseable by `parse`. Equal plans serialize to
  /// equal strings — the chaos suite's schedule-determinism check.
  [[nodiscard]] std::string serialize() const;

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] double base_loss() const { return base_loss_; }
  [[nodiscard]] double jitter_ms() const { return jitter_ms_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Time of the last scheduled event (0 for an empty plan).
  [[nodiscard]] double last_event_ms() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
  double base_loss_ = 0.0;
  double jitter_ms_ = 0.0;
  /// Seeds the injector's message-level randomness (loss draws, jitter).
  std::uint64_t seed_ = 1;
};

}  // namespace hfc
