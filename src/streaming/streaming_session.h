// Long-lived streaming multicast sessions under churn and faults.
//
// The paper motivates service overlays with multimedia delivery, but a
// one-shot multicast tree (src/multicast) is a snapshot: the moment a
// member leaves through the churn path or a relay crashes under a
// FaultPlan, the tree silently stops describing reality. A
// `StreamingSession` keeps one service multicast tree per source alive
// across the sim timeline:
//
//  - members join and leave through the PR 4 incremental churn path
//    (`DynamicHfcOverlay`), and the session grafts/regrafts their uplink
//    edges over the live universe router;
//  - proxies crash and recover and cluster pairs partition/heal through a
//    PR 5 `FaultInjector`; the session subscribes to its hooks, marks the
//    edges riding a dead proxy or a severed cluster pair as interrupted,
//    and schedules repair passes that regraft orphaned subtrees;
//  - per-receiver continuity is tracked tick by tick, surfaced through
//    `stream.*` metrics (delivery ratio, interruption duration and repair
//    latency histograms) and a per-run digest that is byte-identical
//    across serial, replay and multi-threaded runs.
//
// Two regraft strategies, selected by the HFC_STREAM_MODE knob
// (DESIGN.md §15):
//
//  - kLocating ("A Locating-First Approach for Scalable Overlay
//    Multicast"): a joiner or orphan first locates the nearest live
//    already-attached members by GNP coordinate distance — own cluster
//    first — then refines the shortlist through the unicast router and
//    attaches to the cheapest feasible candidate.
//  - kClique (CliqueStream-style clustered dissemination): each cluster
//    elects one head per tree; members attach to their cluster head
//    directly (intra-cluster full connectivity), heads form the
//    inter-cluster backbone, and repair promotes a surviving member to
//    head when the old one dies.
//
// Determinism contract: all session state mutates inside simulator
// handlers, which run serially; the only parallel section is the repair
// pass's candidate routing, which fans read-only `route_degraded` calls
// over the thread pool into per-orphan slots and merges serially — so a
// given (universe, schedule, plan, seed) tuple produces a bit-identical
// digest at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "fault/fault_injector.h"
#include "multicast/service_multicast.h"
#include "qos/qos_manager.h"
#include "routing/service_path.h"
#include "sim/event_queue.h"
#include "util/ids.h"
#include "util/rng.h"

namespace hfc {

/// Regraft strategy for joins and orphan repair.
enum class StreamMode {
  kLocating,  ///< coordinate shortlist, refined via the unicast router
  kClique,    ///< per-cluster heads, CliqueStream-style
};

/// Mode selected by the HFC_STREAM_MODE knob: "locating" (default) or
/// "clique". Malformed values warn once (env_warning_count observable)
/// and fall back to kLocating.
[[nodiscard]] StreamMode stream_mode_from_env();

struct StreamingParams {
  /// Service chain applied source-to-member (may be empty = pure relay
  /// dissemination). Every branch applies it exactly once.
  std::vector<ServiceId> chain;
  /// Continuity sampling period: every tick, every member either receives
  /// the stream (root path fully live) or records a miss.
  double tick_ms = 50.0;
  /// Detection-to-repair latency: a repair pass runs this long after the
  /// fault that orphaned a subtree (and keeps retrying at this period
  /// while orphans remain).
  double repair_delay_ms = 25.0;
  /// Capacity units a member's uplink reserves on every distinct proxy of
  /// its edge (relays included — they forward the stream).
  double demand = 1.0;
  StreamMode mode = stream_mode_from_env();
  /// Attach candidates refined through the unicast router per join or
  /// orphan (HFC_STREAM_REPAIR_BUDGET).
  std::size_t repair_budget = 0;  ///< 0 = read the knob
  /// Seeds the per-tick loss draws (statistically independent from the
  /// injector's message stream).
  std::uint64_t seed = 1;
};

/// Aggregate continuity over a tick range.
struct ContinuityStats {
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  [[nodiscard]] double ratio() const {
    return expected == 0 ? 1.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(expected);
  }
};

class StreamingSession {
 public:
  /// One tree per source over a shared member set, routed over the
  /// overlay's universe-level router. Sources must be active, distinct
  /// universe nodes and must stay members of the overlay for the
  /// session's lifetime. `qos` spans the same universe network. Both
  /// must outlive the session.
  StreamingSession(DynamicHfcOverlay& overlay, QosManager& qos,
                   std::vector<NodeId> sources, StreamingParams params);

  /// Mirror an injector's fault timeline: the session takes over its
  /// on_crash/on_recover/on_partition/on_heal hooks. Call before
  /// `injector.arm()` fires events; the injector must outlive the session.
  void attach_injector(FaultInjector& injector);

  /// Schedule the continuity ticks (every tick_ms up to `horizon_ms`) and
  /// the session finish at `horizon_ms`. Call once, before sim.run().
  void start(Simulator& sim, double horizon_ms);

  /// Member joins every tree: locate by coordinates, refine via the
  /// router, reserve capacity. A member that cannot be attached right now
  /// (down, no feasible candidate) stays subscribed but detached and is
  /// picked up by later repair passes. Throws if `node` is a source,
  /// already subscribed, or not active in the overlay.
  void subscribe(Simulator& sim, NodeId node);

  /// Member leaves every tree: its reservations are released and the
  /// members relaying through it (children included) are regrafted
  /// synchronously, avoiding the leaver. Call before deactivating the
  /// node in the overlay. Throws if not subscribed.
  void unsubscribe(Simulator& sim, NodeId node);

  /// Close the session: releases every reservation (reserve/release net
  /// zero against the QosManager) and freezes continuity accounting.
  /// Scheduled automatically by start(); idempotent.
  void finish(Simulator& sim);

  [[nodiscard]] std::size_t source_count() const { return sources_.size(); }
  [[nodiscard]] NodeId source(std::size_t tree) const;
  [[nodiscard]] std::size_t member_count() const;
  [[nodiscard]] bool is_member(NodeId node) const;
  /// Members currently delivering on tree `tree` (root path fully live).
  [[nodiscard]] std::size_t unblocked_count(std::size_t tree) const;
  /// Members of tree `tree` whose edge is broken or missing.
  [[nodiscard]] std::size_t orphan_count(std::size_t tree) const;
  /// Root-path hop sequence of `node` on tree `tree` (empty if detached
  /// somewhere along the way). Hop 0 is the source.
  [[nodiscard]] std::vector<ServiceHop> branch_of(std::size_t tree,
                                                  NodeId node) const;

  /// Export tree `tree` as a one-shot MulticastTree over the members
  /// currently reachable from the source through attached edges, with the
  /// matching request (destinations in ascending member order). The
  /// export satisfies tree_satisfies() whenever every reachable branch is
  /// fully live.
  struct TreeExport {
    MulticastTree tree;
    MulticastRequest request;
  };
  [[nodiscard]] TreeExport as_multicast_tree(std::size_t tree) const;

  /// Continuity over ticks strictly after `after_ms` (-inf = whole run;
  /// departed members' ticks are included — they are folded into the
  /// per-tick log when they leave).
  [[nodiscard]] ContinuityStats continuity(double after_ms = -1.0) const;

  [[nodiscard]] std::uint64_t regraft_count() const { return regrafts_; }
  [[nodiscard]] std::uint64_t repair_failure_count() const {
    return repair_failures_;
  }

  /// Hexfloat digest of the full session history: every join, leave,
  /// break, regraft and tick tally plus the final tree shapes. Equal
  /// digests <=> bit-identical runs.
  [[nodiscard]] std::string digest() const;

 private:
  struct Edge {
    std::vector<ServiceHop> hops;  ///< attach .. member; empty = detached
    std::vector<NodeId> claimed;   ///< distinct proxies, hops[1..]
    /// Cluster pairs the edge crosses (partition exposure), as stored at
    /// graft time; cluster labels are stable while the hops stay active.
    std::vector<std::pair<ClusterId, ClusterId>> crossings;
    bool ok = false;            ///< currently delivering
    bool wants_repair = false;  ///< broken by crash/leave, regraft wanted
    double broke_at = 0.0;
  };
  struct Member {
    NodeId parent;  ///< source or member; invalid = detached
    std::vector<NodeId> children;
    Edge edge;
    /// Broken edges on the root path (own edge included); 0 = delivering.
    std::uint32_t blocked = 0;
    double interrupted_since = -1.0;
    std::int32_t cluster = -1;  ///< universe cluster label at join time
  };
  struct Tree {
    NodeId source;
    std::map<NodeId, Member> members;  ///< deterministic iteration order
    std::vector<NodeId> source_children;  ///< sorted
    /// proxy -> members whose edge includes it (sorted, deduped).
    std::map<NodeId, std::vector<NodeId>> by_proxy;
    /// cluster label -> members (sorted); keys from Member::cluster.
    std::map<std::int32_t, std::vector<NodeId>> by_cluster;
    /// kClique: cluster label -> designated head member.
    std::map<std::int32_t, NodeId> head;
  };
  struct TickPoint {
    double time_ms = 0.0;
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
  };
  /// One scored attach candidate (route filled by the repair pass's
  /// parallel fan-out or inline for joins/leaves).
  struct Candidate {
    NodeId attach;
    ServicePath path;
    double cost = 0.0;
  };

  [[nodiscard]] bool node_up(NodeId node) const;
  [[nodiscard]] bool edge_alive(const Edge& edge) const;
  [[nodiscard]] std::uint32_t parent_blocked(const Tree& tree,
                                             NodeId parent) const;
  [[nodiscard]] std::int32_t cluster_label(NodeId node) const;
  [[nodiscard]] std::vector<NodeId>& children_of(Tree& tree, NodeId parent);
  /// Head of `cluster` on `tree` after lazy re-election: the stored head
  /// if still eligible, else the smallest eligible member of the cluster
  /// (stored back), else invalid.
  NodeId resolve_head(Tree& tree, std::int32_t cluster) const;

  /// Shortlisted attach points for (re)grafting `node` onto `tree`,
  /// mode-dependent, excluding `exclude` (a leaver mid-withdrawal).
  /// Candidates are eligible *now*: attached, unblocked, up members (or
  /// the source). Routes are not filled in.
  [[nodiscard]] std::vector<Candidate> collect_candidates(
      Tree& tree, NodeId node, NodeId exclude) const;
  /// Fill candidate.path/cost: direct intra-cluster edge when possible,
  /// unicast route otherwise. `router` must be pre-synced (the caller
  /// grabs universe_router() serially); the call itself is read-only and
  /// safe to fan out in parallel.
  void route_candidate(const HierarchicalServiceRouter& router,
                       const Tree& tree, NodeId node, Candidate& cand,
                       NodeId exclude) const;
  /// Serially pick the cheapest feasible routed candidate and graft
  /// `node` under it (releasing the old claim, rebasing the subtree).
  /// Returns false when nothing is feasible; the member stays detached.
  bool apply_attach(Simulator& sim, std::size_t tree_index, NodeId node,
                    std::vector<Candidate>& candidates);
  /// collect + route + apply inline (joins and leave-time regrafts).
  bool try_attach(Simulator& sim, std::size_t tree_index, NodeId node,
                  NodeId exclude);

  /// Add/remove `node`'s edge hops to/from the by_proxy index.
  void index_edge(Tree& tree, NodeId node, const Edge& edge, bool add);
  /// blocked += delta over the subtree rooted at `node` (inclusive),
  /// recording interruption transitions against the sim clock.
  void bump_subtree(Simulator& sim, Tree& tree, NodeId node,
                    std::int64_t delta);
  void mark_edge_broken(Simulator& sim, Tree& tree, NodeId node,
                        bool wants_repair);
  void try_restore_edge(Simulator& sim, Tree& tree, NodeId node);

  void on_crash(Simulator& sim, NodeId node);
  void on_recover(Simulator& sim, NodeId node);
  void on_partition(Simulator& sim, ClusterId a, ClusterId b);
  void on_heal(Simulator& sim, ClusterId a, ClusterId b);
  void schedule_repair(Simulator& sim);
  void repair_pass(Simulator& sim);
  void tick(Simulator& sim);

  void log_event(double time_ms, const std::string& line);

  DynamicHfcOverlay& overlay_;
  QosManager& qos_;
  std::vector<NodeId> sources_;
  StreamingParams params_;
  FaultInjector* injector_ = nullptr;
  /// The armed simulator (set by start()); injector hooks need the clock.
  Simulator* sim_ = nullptr;
  std::vector<Tree> trees_;
  Rng tick_rng_;
  bool started_ = false;
  bool finished_ = false;
  bool repair_pending_ = false;
  double horizon_ms_ = -1.0;
  std::uint64_t regrafts_ = 0;
  std::uint64_t repair_failures_ = 0;
  std::vector<TickPoint> ticks_;
  std::vector<std::string> log_;
};

}  // namespace hfc
