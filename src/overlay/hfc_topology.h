// The Hierarchically Fully-Connected (HFC) topology of paper §3.
//
// Properties (paper's list):
//  1. distance-based clustering — nodes grouped by Internet proximity;
//  2. connectivity — intra-cluster nodes fully connected; clusters fully
//     connected pairwise through border nodes;
//  3. border selection — the border pair between two clusters is their
//     closest cross-cluster node pair;
//  4. visibility — a cluster is seen from outside via its border nodes.
//
// In a bi-level HFC hierarchy any two nodes are at most two intermediate
// nodes apart: u -> border(u's cluster, v's cluster) -> border(v's
// cluster, u's cluster) -> v.
//
// Besides the immutable build-once form, the topology supports *incremental
// membership maintenance* (DESIGN.md §9) for the dynamic overlay: a member
// can be added to or removed from a cluster, and only the border pairs of
// the C−1 cluster pairs involving that cluster are repaired — everything
// else survives untouched. Cluster slots are stable: a cluster emptied by
// removals goes dead (`live() == false`) and its id is never reused, so
// per-cluster caches keyed by ClusterId stay valid across churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/zahn.h"
#include "overlay/overlay_network.h"
#include "routing/csp_kernel.h"
#include "spatial/closest_pair.h"
#include "spatial/dynamic_set.h"
#include "util/ids.h"

namespace hfc {

class DistanceService;

/// Border selection strategies. `kClosestPair` is the paper's rule; the
/// alternatives exist for the ablation study (DESIGN.md A3).
enum class BorderSelection {
  kClosestPair,  ///< nearest cross-cluster pair (paper §3.3)
  kRandomPair,   ///< uniformly random pair
  kSingleHub,    ///< one fixed hub node per cluster handles all clusters
};

/// The knowledge a single proxy receives from the clustering coordinator P
/// (paper Figure 4): cluster membership, the global border table, and the
/// coordinates it must retain.
struct NodeKnowledge {
  ClusterId own_cluster;
  std::vector<NodeId> cluster_members;     ///< including the node itself
  std::vector<NodeId> visible_borders;     ///< all border nodes system-wide
  /// Nodes whose coordinates this proxy stores: union of the two above.
  std::vector<NodeId> coordinate_set;
};

class HfcTopology {
 public:
  /// Build the HFC topology from a clustering of `n` nodes; `distance` is
  /// the coordinate-space distance the system knows (border pairs are
  /// chosen to minimise it). The topology keeps a copy of the functor and
  /// re-evaluates it for `external_length` queries, so whatever state the
  /// functor references must outlive the topology. Throws on an empty
  /// clustering.
  HfcTopology(Clustering clustering, const OverlayDistance& distance,
              BorderSelection selection = BorderSelection::kClosestPair);

  /// Same, querying a distance service (the framework passes its
  /// coordinate tier). The service must outlive the topology. When the
  /// service exposes a coordinate view and `spatial_enabled(n)` holds,
  /// kClosestPair border selection — at build time and in churn repair —
  /// runs as bichromatic closest-pair queries over per-cluster spatial
  /// sets instead of full cross-cluster scans; member lists are kept
  /// sorted ascending, so the answers (lex-min (d, x, y) pairs) are
  /// identical to the brute scans even under exact distance ties.
  HfcTopology(Clustering clustering, const DistanceService& distance,
              BorderSelection selection = BorderSelection::kClosestPair);

  [[nodiscard]] std::size_t node_count() const {
    return clustering_.node_count();
  }
  /// Number of cluster *slots* (stable ids, including dead ones after
  /// incremental removals). Freshly built topologies have no dead slots,
  /// so for them this equals live_cluster_count().
  [[nodiscard]] std::size_t cluster_count() const {
    return clustering_.cluster_count();
  }
  /// Number of clusters that still have members.
  [[nodiscard]] std::size_t live_cluster_count() const { return live_count_; }
  [[nodiscard]] bool live(ClusterId cluster) const;
  [[nodiscard]] const Clustering& clustering() const { return clustering_; }

  /// --- incremental membership maintenance (DESIGN.md §9) ---
  ///
  /// Mutations are single-threaded with respect to queries: callers must
  /// not query the topology concurrently with a mutation (the batch repair
  /// itself fans across the thread pool internally). Border repair is
  /// equivalent to a from-scratch rebuild of the same membership under
  /// kClosestPair up to exact distance ties (a fresh scan keeps the
  /// lex-min (d, x, y) pair; incremental repair keeps the incumbent
  /// unless an addition is strictly closer).

  /// Per-cluster generation stamp, bumped on every membership change of
  /// that cluster (including its death). Lets routers invalidate derived
  /// per-cluster state (SCT_C) without a global rebuild.
  [[nodiscard]] std::uint64_t generation(ClusterId cluster) const;
  /// Bumped on every mutation of any cluster.
  [[nodiscard]] std::uint64_t structure_generation() const {
    return structure_generation_;
  }

  /// Per-cluster border epoch, bumped (on both clusters of the pair) only
  /// when a stored border slot involving the cluster actually changes.
  /// Strictly coarser than `generation`: membership churn that does not
  /// move any border pair leaves it untouched, which is what lets route
  /// fingerprints (src/serve) survive non-border, non-host churn.
  [[nodiscard]] std::uint64_t border_epoch(ClusterId cluster) const;

  /// Grow the node space by one (the new node belongs to no cluster yet);
  /// follow with on_member_added to place it.
  void append_node();

  /// `node` (currently unclustered) joins `cluster` (which must be live).
  /// Outside a batch, the C−1 border pairs involving `cluster` are
  /// repaired immediately by scanning only the new node against each other
  /// cluster; inside a batch the repair is deferred and coalesced.
  void on_member_added(NodeId node, ClusterId cluster);

  /// `node` leaves its cluster. A non-border leave costs O(C) slot checks;
  /// a border leave re-scans only the cluster pairs whose stored border it
  /// was. Removing the last member kills the cluster: its slot goes dead
  /// and every border pair involving it is dropped.
  void on_member_removed(NodeId node);

  /// Batch mutations between begin/end: repairs are deferred so k events
  /// touching one cluster pay one repair per affected cluster pair, and
  /// the repairs fan out across the thread pool deterministically.
  void begin_mutation_batch();
  void end_mutation_batch();

  [[nodiscard]] ClusterId cluster_of(NodeId node) const {
    return clustering_.cluster_of(node);
  }
  [[nodiscard]] const std::vector<NodeId>& members(ClusterId cluster) const;

  /// The border node inside `from` that faces `toward`. Identity
  /// (from == toward) is invalid.
  [[nodiscard]] NodeId border(ClusterId from, ClusterId toward) const;

  /// Length of the external link between the border pair of two distinct
  /// clusters, under the distance the topology was built with. Derived on
  /// demand from the stored distance functor — the O(C^2) length matrix
  /// is no longer materialized.
  [[nodiscard]] double external_length(ClusterId a, ClusterId b) const;

  [[nodiscard]] bool is_border(NodeId node) const;

  /// The stored link from `from` toward `toward` (the live-link view's
  /// store): `exit` = border(from, toward), `entry` = border(toward, from)
  /// and their distance from the lower id's end; found for distinct live
  /// clusters.
  [[nodiscard]] CspLink link(ClusterId from, ClusterId toward) const;

  /// The distance border pairs are chosen and measured under.
  [[nodiscard]] const OverlayDistance& distance() const { return distance_; }

  /// All distinct border nodes in the system, ascending. After incremental
  /// mutations the list is refreshed lazily on first access (not safe to
  /// call concurrently from multiple threads while stale).
  [[nodiscard]] const std::vector<NodeId>& all_borders() const;

  /// HFC-constrained distance between two nodes under `distance`:
  /// direct when they share a cluster, otherwise through the border pair
  /// of their two clusters.
  [[nodiscard]] double path_distance(NodeId u, NodeId v,
                                     const OverlayDistance& distance) const;

  /// The node sequence realising path_distance: [u, b_u?, b_v?, v] with
  /// borders omitted when they coincide with an endpoint (or each other).
  [[nodiscard]] std::vector<NodeId> hop_path(NodeId u, NodeId v) const;

  /// What node `node` learns from the coordinator (Figure 4).
  [[nodiscard]] NodeKnowledge knowledge_of(NodeId node) const;

  /// Number of coordinate node-states `node` maintains: its cluster's
  /// members plus every border node in the system, counted once each
  /// (§6.1, Figure 9a).
  [[nodiscard]] std::size_t coordinate_state_count(NodeId node) const;

  /// Number of service-capability node-states `node` maintains: one per
  /// member of its own cluster (SCT_P) plus one per cluster (SCT_C)
  /// (§6.1, Figure 9b).
  [[nodiscard]] std::size_t service_state_count(NodeId node) const;

  /// Deep-copy the routing-relevant state into a standalone frozen
  /// topology for snapshot publication (src/serve, DESIGN.md §12):
  /// clustering, border table + reference counts, liveness and the
  /// generation stamps are all copied; the distance functor is rebound to
  /// `distance` (the snapshot owns its own coordinate tier, so the clone
  /// has no lifetime tie to this topology's service). Spatial
  /// acceleration is deliberately dropped — a frozen clone never mutates,
  /// and spatial state only accelerates mutation repair; queries answer
  /// identically either way (the §11 exactness contract). Throws inside
  /// an open mutation batch.
  [[nodiscard]] std::unique_ptr<HfcTopology> clone_frozen(
      const OverlayDistance& distance) const;

  /// Replace the stored border pair of two distinct live clusters. Used
  /// for snapshot degradation baking (DESIGN.md §12): the publisher
  /// overwrites pairs whose stored border has a crashed end with the
  /// surviving pair, so readers resolve them in O(1) instead of
  /// re-scanning members per request. `in_a`/`in_b` must be members of
  /// `a`/`b`. Reference counts are maintained; generation stamps do NOT
  /// advance — the overwrite refines the view, it is not a membership
  /// change.
  void override_border_pair(ClusterId a, ClusterId b, NodeId in_a,
                            NodeId in_b);

  /// True when kClosestPair selection runs on per-cluster spatial sets.
  [[nodiscard]] bool spatial_active() const { return coords_ != nullptr; }

  /// Bytes of spatial-index state resident across the per-cluster sets
  /// (0 when the spatial path is off). Bounded by the bench memory
  /// ceiling alongside the coordinate tier.
  [[nodiscard]] std::size_t spatial_resident_bytes() const;

 private:
  /// Uninitialized shell for clone_frozen to fill member-by-member.
  HfcTopology() = default;

  /// The border-selection sweep shared by both constructors.
  void build_borders();

  /// The border pair of live clusters a < b under selection_: the one
  /// BorderSelection switch, shared by the construction sweep and
  /// repair_staged. kClosestPair scans the whole pair when `rescan` is set
  /// or no pair is stored; otherwise only the staged additions challenge
  /// the stored pair. `scan` says which (kNone for the ablation rules).
  enum class PairScan { kNone, kFull, kAdds };
  struct PairChoice {
    NodeId in_a, in_b;
    PairScan scan = PairScan::kNone;
  };
  [[nodiscard]] PairChoice choose_border_pair(std::size_t a, std::size_t b,
                                              bool rescan,
                                              QueryStats& stats) const;
  /// Cluster slot `cluster` as a closest-pair side.
  [[nodiscard]] PairSide side(std::size_t cluster) const;
  /// Key identifying the unordered cluster pair {a, b} in repair staging.
  [[nodiscard]] std::size_t pair_key(std::size_t a, std::size_t b) const;
  /// Overwrite one border slot, maintaining the per-node reference counts.
  void set_border(std::size_t slot, NodeId node);
  /// Kill an emptied cluster: clear every border pair involving it.
  void kill_cluster(std::size_t cluster);
  /// Repair the border pairs invalidated by staged membership changes,
  /// one parallel task per affected cluster pair, then clear the staging.
  void repair_staged();

  Clustering clustering_;
  /// The distance the topology was built with; external_length re-derives
  /// link lengths from it instead of storing a matrix.
  OverlayDistance distance_;
  BorderSelection selection_;
  /// border_[from * C + toward] = border node of `from` facing `toward`.
  std::vector<NodeId> border_;
  /// Per node: number of border slots currently pointing at it (a node is
  /// a border iff its count is non-zero).
  std::vector<std::uint32_t> border_refs_;
  /// Sorted distinct border nodes, derived lazily from border_refs_.
  mutable std::vector<NodeId> all_borders_;
  mutable bool borders_dirty_ = false;

  std::vector<bool> live_;
  std::size_t live_count_ = 0;
  std::vector<std::uint64_t> generation_;
  std::uint64_t structure_generation_ = 0;
  /// Per cluster: bumped by set_border when a slot involving it changes.
  std::vector<std::uint64_t> border_epoch_;

  /// Mutation staging (between begin/end_mutation_batch, or for the
  /// single-event immediate-repair path).
  bool in_batch_ = false;
  /// Clusters whose membership changed, with the nodes added to them that
  /// are still members (a node removed again within the batch is dropped).
  std::unordered_map<std::size_t, std::vector<NodeId>> staged_adds_;
  std::unordered_set<std::size_t> touched_;
  /// Pair keys whose stored border node was removed: full rescan needed.
  std::unordered_set<std::size_t> full_pairs_;

  /// Spatial acceleration (DESIGN.md §11). Set only by the
  /// DistanceService constructor when the service has a coordinate view
  /// and `spatial_enabled(n)` holds; points into the service's
  /// coordinate store (which may grow — rows are re-read through it).
  const PointSet* coords_ = nullptr;
  /// One churn-capable set per cluster slot, mirroring members.
  std::vector<DynamicSpatialSet> cluster_sets_;
};

}  // namespace hfc
