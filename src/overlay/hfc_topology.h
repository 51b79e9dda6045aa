// The Hierarchically Fully-Connected (HFC) topology of paper §3, at any
// depth.
//
// Properties (paper's list):
//  1. distance-based clustering — nodes grouped by Internet proximity;
//  2. connectivity — intra-cluster nodes fully connected; clusters fully
//     connected pairwise through border nodes;
//  3. border selection — the border pair between two clusters is their
//     closest cross-cluster node pair;
//  4. visibility — a cluster is seen from outside via its border nodes.
//
// In a bi-level HFC hierarchy (paper Figure 1) any two nodes are at most
// two intermediate nodes apart: u -> border(u's cluster, v's cluster) ->
// border(v's cluster, u's cluster) -> v.
//
// The same structure nests (DESIGN.md §13): the clusters are the leaves
// of a tree of groups, each group's children are fully connected pairwise
// through border pairs chosen by the §3.3 rule, and a virtual root holds
// the top level. The bi-level topology is the one-level tree: every
// cluster a child of the root. Deeper trees come from recursive proximity
// clustering of group centroids (MultiLevelParams); communication between
// two nodes descends from their lowest common group through border pairs,
// so in an L-level tree a path crosses at most 2^(L+1) - 2 intermediate
// nodes.
//
// Group ids share ClusterId's space: the leaf clusters are 0..C-1, the
// inner groups follow level by level, the root is last. Each parent's
// sibling links live in one dense k x k table over its k children.
//
// A one-level topology also supports *incremental membership maintenance*
// (DESIGN.md §9) for the dynamic overlay: a member can be added to or
// removed from a cluster, and only the border pairs of the C−1 cluster
// pairs involving that cluster are repaired — everything else survives
// untouched. Cluster slots are stable: a cluster emptied by removals goes
// dead (`live() == false`) and its id is never reused, so per-cluster
// caches keyed by ClusterId stay valid across churn.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/zahn.h"
#include "coords/point_set.h"
#include "overlay/overlay_network.h"
#include "spatial/closest_pair.h"
#include "spatial/dynamic_set.h"
#include "util/ids.h"

namespace hfc {

class CoordDistanceService;

/// The link from unit `from` toward unit `toward`: `exit` is the border
/// inside `from`, `entry` the border inside `toward`, `length` the
/// external link between them.
struct CspLink {
  NodeId exit, entry;  ///< invalid when !found
  double length = std::numeric_limits<double>::infinity();
  bool found = false;
};

/// Border selection strategies. `kClosestPair` is the paper's rule; the
/// alternatives exist for the ablation study (DESIGN.md A3).
enum class BorderSelection {
  kClosestPair,  ///< nearest cross-cluster pair (paper §3.3)
  kRandomPair,   ///< uniformly random pair
  kSingleHub,    ///< one fixed hub node per cluster handles all clusters
};

/// The knowledge a single proxy receives from the clustering coordinator P
/// (paper Figure 4): cluster membership, the border nodes it sees, and the
/// coordinates it must retain.
struct NodeKnowledge {
  ClusterId own_cluster;
  std::vector<NodeId> cluster_members;     ///< including the node itself
  /// The border nodes among the siblings of every group on the node's
  /// ancestry, ascending (every border node system-wide in a one-level
  /// topology).
  std::vector<NodeId> visible_borders;
  /// Nodes whose coordinates this proxy stores: union of the two above.
  std::vector<NodeId> coordinate_set;
};

/// One group of the tree. Level 1 = leaf clusters of proxies; higher
/// levels group the groups below; the virtual root is the highest level.
struct HierarchyGroup {
  std::size_t level = 1;
  ClusterId parent;                 ///< invalid for the root
  std::vector<ClusterId> children;  ///< ascending; empty at level 1
};

struct MultiLevelParams {
  /// Number of clustering levels requested (1 = flat clusters under a
  /// root, i.e. the paper's bi-level topology). Construction stops early
  /// at the level where a single group remains. Ignored in bounded-fanout
  /// mode (group_fanout > 0), where depth is derived instead.
  std::size_t levels = 2;
  /// Leaf clustering defaults to the median neighbourhood statistic:
  /// hierarchically laid-out points are multi-scale, and a mean is masked
  /// by the one enormous bridge edge to the next super-group.
  ZahnParams leaf_zahn{
      .inconsistency_factor = 3.0,
      .neighborhood_depth = 2,
      .statistic = ZahnStatistic::kMedian,
  };
  /// The Zahn inconsistency factor is multiplied by this per level above
  /// the leaves (coarser grouping higher up).
  double factor_growth = 1.3;

  /// Bounded-fanout mode (DESIGN.md §13). 0 keeps the legacy fixed-
  /// `levels` construction above. When > 0, no group — including the
  /// virtual root — holds more than this many children: oversized Zahn
  /// leaves are split by recursive widest-axis median partition down to
  /// `leaf_limit` nodes, and levels of median-partitioned centroid
  /// groups are added until one root can hold the top level, so the
  /// depth is ceil(log_fanout(#leaves)) instead of a caller guess. Per-
  /// parent sibling counts stay O(fanout) as n grows, which keeps the
  /// pairwise border-selection work and per-node visible state bounded
  /// — the property the 1M-proxy build rests on.
  std::size_t group_fanout = 0;
  /// Max nodes per leaf cluster in bounded-fanout mode (>= 1).
  std::size_t leaf_limit = 256;

  /// Convenience: bounded-fanout params with the default leaf Zahn.
  [[nodiscard]] static MultiLevelParams bounded(std::size_t fanout,
                                                std::size_t leaf_limit) {
    MultiLevelParams p;
    p.group_fanout = fanout;
    p.leaf_limit = leaf_limit;
    return p;
  }
};

class HfcTopology {
 public:
  /// Build the one-level HFC topology from a clustering of `n` nodes;
  /// `distance` is the coordinate-space distance the system knows (border
  /// pairs are chosen to minimise it). The topology keeps a copy of the
  /// functor to choose and repair border pairs and to price overridden
  /// ones (link lengths themselves are stored), so whatever state the
  /// functor references must outlive the topology. Throws on an empty
  /// clustering.
  HfcTopology(Clustering clustering, const OverlayDistance& distance,
              BorderSelection selection = BorderSelection::kClosestPair);

  /// Same, over the coordinate tier (the framework's and the dynamic
  /// overlay's build), which must outlive the topology. kClosestPair
  /// border selection — at build time and in churn repair — runs as
  /// bichromatic closest-pair queries over per-cluster spatial sets on
  /// the tier's coordinates instead of full cross-cluster scans; member
  /// lists are kept sorted ascending, so the answers (lex-min (d, x, y)
  /// pairs) are identical to the OverlayDistance constructor's scans even
  /// under exact distance ties. The two ablation rules build no sets.
  HfcTopology(Clustering clustering, const CoordDistanceService& distance,
              BorderSelection selection = BorderSelection::kClosestPair);

  /// Build a tree of any depth by recursive proximity clustering of proxy
  /// coordinates (read only during the build): level-1 groups are the
  /// Zahn clusters of the proxies, level-k groups cluster the centroids
  /// of level k-1. Sibling borders are closest pairs under euclidean();
  /// their lengths are stored, as no distance outlives the build. Throws
  /// on empty input or zero levels.
  HfcTopology(const PointSet& coords, const MultiLevelParams& params);

  [[nodiscard]] std::size_t node_count() const {
    return clustering_.node_count();
  }
  /// Number of leaf cluster *slots* (stable ids, including dead ones after
  /// incremental removals). Freshly built topologies have no dead slots,
  /// so for them this equals live_cluster_count().
  [[nodiscard]] std::size_t cluster_count() const {
    return clustering_.cluster_count();
  }
  /// Number of clusters that still have members.
  [[nodiscard]] std::size_t live_cluster_count() const { return live_count_; }
  [[nodiscard]] bool live(ClusterId cluster) const;
  /// The leaf clusters.
  [[nodiscard]] const Clustering& clustering() const { return clustering_; }

  /// --- the tree ---

  /// Number of clustering levels (excludes the virtual root); 1 for the
  /// paper's bi-level topology.
  [[nodiscard]] std::size_t levels() const { return level_groups_.size(); }
  /// Every group: leaf clusters, inner groups and the root.
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] const HierarchyGroup& group(ClusterId id) const;
  /// The virtual root, holding the top level's groups.
  [[nodiscard]] ClusterId root() const { return root_; }
  /// Groups of a given level (1..levels()), ascending.
  [[nodiscard]] const std::vector<ClusterId>& groups_at(
      std::size_t level) const;
  /// The ancestor of `node`'s leaf at the given level (1..levels()+1
  /// where levels()+1 is the root).
  [[nodiscard]] ClusterId ancestor_of(NodeId node, std::size_t level) const;

  /// --- incremental membership maintenance (DESIGN.md §9) ---
  ///
  /// Mutators need a one-level topology built over a distance (the two
  /// Clustering constructors); they throw on any other.
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
  /// repaired immediately by testing only the new node against each other
  /// cluster — its box first, a nearest query only where the box cannot
  /// rule a closer pair out; inside a batch the repair is deferred and
  /// coalesced.
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
  /// A group's proxies, ascending: a leaf cluster's members, or the
  /// flattened membership of an inner group. The root keeps no list.
  [[nodiscard]] const std::vector<NodeId>& members(ClusterId group) const;

  /// The border node inside group `from` that faces sibling `toward`.
  /// Identity (from == toward) and non-siblings are invalid.
  [[nodiscard]] NodeId border(ClusterId from, ClusterId toward) const;

  /// Length of the external link between the border pair of two distinct
  /// siblings, as stored when the pair was chosen.
  [[nodiscard]] double external_length(ClusterId a, ClusterId b) const;

  [[nodiscard]] bool is_border(NodeId node) const;

  /// The stored link from `from` toward `toward` (the live-link view's
  /// store): `exit` = border(from, toward), `entry` = border(toward, from)
  /// and their distance from the lower id's end; found for distinct
  /// siblings whose length is finite: not when either is dead or the pair
  /// was disconnected.
  [[nodiscard]] CspLink link(ClusterId from, ClusterId toward) const;

  /// The length of link() between the children of `parent` at sibling
  /// ranks a != b (their positions in `group(parent).children`), in either
  /// order: +inf where either sibling is dead or the pair is disconnected,
  /// as link() then finds none. Unchecked.
  [[nodiscard]] double length(ClusterId parent, std::size_t a,
                              std::size_t b) const {
    return length_[triangle_[parent.idx()] + triangle_index(a, b)];
  }

  /// The distance border pairs are chosen and measured under; null in a
  /// topology built from coordinates.
  [[nodiscard]] const OverlayDistance& distance() const { return distance_; }

  /// All distinct border nodes in the system, ascending. After incremental
  /// mutations the list is refreshed lazily on first access (not safe to
  /// call concurrently from multiple threads while stale).
  [[nodiscard]] const std::vector<NodeId>& all_borders() const;

  /// HFC-constrained distance between two nodes under `distance`: the
  /// summed hops of hop_path (direct when they share a cluster).
  [[nodiscard]] double path_distance(NodeId u, NodeId v,
                                     const OverlayDistance& distance) const;

  /// The node sequence between two nodes with the border relays of every
  /// level: [u, b_u?, b_v?, v] in a one-level topology, borders omitted
  /// when they coincide with an endpoint.
  [[nodiscard]] std::vector<NodeId> hop_path(NodeId u, NodeId v) const;

  /// What node `node` learns from the coordinator (Figure 4).
  [[nodiscard]] NodeKnowledge knowledge_of(NodeId node) const;

  /// Number of coordinate node-states `node` maintains: its cluster's
  /// members plus every border node it sees, counted once each (§6.1,
  /// Figure 9a).
  [[nodiscard]] std::size_t coordinate_state_count(NodeId node) const;

  /// Number of service-capability node-states `node` maintains: one per
  /// member of its own cluster (SCT_P) plus one per live sibling group at
  /// every level of its ancestry, its own included (SCT_C) (§6.1,
  /// Figure 9b).
  [[nodiscard]] std::size_t service_state_count(NodeId node) const;

  /// Deep-copy the routing-relevant state into a standalone frozen
  /// topology for snapshot publication (src/serve, DESIGN.md §12): the
  /// tree, border and length tables + reference counts, liveness and the
  /// generation stamps are all copied; the distance functor is rebound to
  /// `distance` (a snapshot passes its own network's coordinate distance,
  /// so the clone has no lifetime tie to this topology's). Spatial
  /// acceleration is deliberately dropped — a frozen clone never mutates,
  /// and spatial state only accelerates mutation repair; queries answer
  /// identically either way (the §11 exactness contract). Throws inside an
  /// open mutation batch.
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

  /// Set the link length of two distinct clusters to +inf, so link() no
  /// longer finds the pair, as for a dead side; nothing else changes. For
  /// snapshot baking (DESIGN.md §12) when one side has no survivor.
  void disconnect_pair(ClusterId a, ClusterId b);

  /// True when kClosestPair selection runs on per-cluster spatial sets.
  [[nodiscard]] bool spatial_active() const { return coords_ != nullptr; }

  /// Bytes of spatial-index state resident across the per-cluster sets
  /// (0 when the spatial path is off). Bounded by the bench memory
  /// ceiling alongside the coordinate tier.
  [[nodiscard]] std::size_t spatial_resident_bytes() const;

  /// Bytes of tree state resident (leaf and group membership, the tree
  /// and the sibling tables) — the bench memory-ceiling assertions bound
  /// this alongside the coordinate tier.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  /// Uninitialized shell for clone_frozen to fill member-by-member.
  HfcTopology() = default;

  /// The one-level tree over clustering_: every cluster a child of the
  /// root.
  void build_flat_tree();
  /// The leaf clusters as the tree's first level.
  void add_leaf_level();
  void build_fixed_levels(const PointSet& coords,
                          const MultiLevelParams& params);
  void build_bounded_fanout(const PointSet& coords,
                            const MultiLevelParams& params);
  /// Append a group over `children` at `level`, adopting them: the root,
  /// or an inner group of groups_at(level) with flattened membership.
  void add_group(std::size_t level, std::vector<ClusterId> children,
                 bool is_root);
  /// Place every group in its parent's sibling table, size the tables
  /// and the per-cluster state.
  void finish_tree();

  /// The border-selection sweep: every parent's sibling pairs, chosen
  /// under `distance`. With `coords` each parent's children get transient
  /// spatial sets over it; otherwise the persistent per-cluster sets are
  /// used where present.
  void build_borders(const OverlayDistance& distance, const PointSet* coords,
                     const char* candidate_counter);

  /// The border pair of live siblings a < b under selection_: the one
  /// BorderSelection switch, shared by the construction sweep and
  /// repair_staged. kClosestPair scans the whole pair when `rescan` is set
  /// or no pair is stored; otherwise only the staged additions challenge
  /// the stored pair, each skipped when the other side's box lies beyond
  /// the best length so far. `scan` says which (kNone for the ablation
  /// rules).
  enum class PairScan { kNone, kFull, kAdds };
  struct PairChoice {
    NodeId in_a, in_b;
    PairScan scan = PairScan::kNone;
    double dist = 0;  ///< distance(in_a, in_b)
    std::uint64_t box_rejects = 0;  ///< kAdds: additions the box skipped
  };
  [[nodiscard]] PairChoice choose_border_pair(ClusterId a, ClusterId b,
                                              PairSide side_a,
                                              PairSide side_b,
                                              const OverlayDistance& distance,
                                              bool rescan,
                                              QueryStats& stats) const;
  /// Group `group` as a closest-pair side, with its cluster's spatial set
  /// when there is one.
  [[nodiscard]] PairSide side(std::size_t group) const;
  /// The table slot holding border(from, toward) of two siblings.
  [[nodiscard]] std::size_t slot(std::size_t from, std::size_t toward) const {
    return row_[from] + rank_[toward];
  }
  /// The position of sibling ranks a != b, in either order, in their
  /// parent's length triangle.
  [[nodiscard]] static std::size_t triangle_index(std::size_t a,
                                                  std::size_t b) {
    const std::size_t lo = std::min(a, b);
    const std::size_t hi = std::max(a, b);
    return hi * (hi - 1) / 2 + lo;
  }
  /// The length_ slot of two distinct siblings, in either order.
  [[nodiscard]] std::size_t length_slot(std::size_t a, std::size_t b) const {
    return triangle_[groups_[a].parent.idx()] +
           triangle_index(rank_[a], rank_[b]);
  }
  /// Visit the nodes after `a` on the hop path from `a` to `b`, in order.
  template <typename Visit>
  void walk(NodeId a, NodeId b, const Visit& visit) const;
  /// Throw unless the topology supports incremental maintenance: one
  /// level, built over a distance.
  void require_mutable(const char* what) const;
  /// Overwrite border(from, toward), maintaining the per-node reference
  /// counts and both clusters' border epochs.
  void set_border(std::size_t from, std::size_t toward, NodeId node);
  /// Kill an emptied cluster: clear every border pair involving it.
  void kill_cluster(std::size_t cluster);

  /// Membership changes of one cluster slot, staged for repair.
  struct Staged {
    /// Nodes added to the cluster that are still members, in staged order.
    std::vector<NodeId> adds;
    /// Siblings whose stored border pair with this cluster lost its node
    /// here: those pairs rescan in full.
    std::vector<std::size_t> rescans;
    bool touched = false;
  };
  /// One sibling pair a batch revisits, a < b.
  struct PairWork {
    std::size_t a = 0;
    std::size_t b = 0;
    bool rescan = false;
  };
  /// `cluster`'s staging slot, marking the cluster touched.
  Staged& stage(std::size_t cluster);
  /// The live sibling pairs the staged changes can move, by touched row:
  /// every pair of a cluster that gained members, and every pair whose
  /// stored border node left. Each pair once.
  [[nodiscard]] std::vector<PairWork> staged_pairs() const;
  /// True when `cluster`'s member box lies strictly farther than `bound`
  /// from `node` — the inclusive `>` rule KdTree::search prunes by, so at
  /// an equal distance a query must still run. Spatial topologies only,
  /// after build_boxes().
  [[nodiscard]] bool beyond_box(NodeId node, std::size_t cluster,
                                double bound) const;
  /// Size boxes_ and fit each cluster slot's box to its members.
  void build_boxes();
  /// True when no staged addition of either side of an add-only pair can
  /// beat its stored length: each lies beyond the other side's box.
  /// Counts the additions tested into `rejects` when so.
  [[nodiscard]] bool adds_beyond_boxes(const PairWork& work,
                                       std::uint64_t& rejects) const;
  /// Repair the border pairs invalidated by staged membership changes,
  /// one parallel task per pair the boxes do not settle, then clear the
  /// staging.
  void repair_staged();

  Clustering clustering_;
  /// The distance the topology was built with: it chooses, repairs and
  /// prices border pairs, whose lengths length_ stores. Null for a
  /// topology built from coordinates.
  OverlayDistance distance_;
  BorderSelection selection_ = BorderSelection::kClosestPair;

  /// The tree: groups_[g] for every group id, leaves first, root last.
  std::vector<HierarchyGroup> groups_;
  std::vector<std::vector<ClusterId>> level_groups_;  ///< [level-1] -> ids
  ClusterId root_;
  /// inner_members_[g - C] = flattened membership of inner group g.
  std::vector<std::vector<NodeId>> inner_members_;
  /// Per group: the position among its siblings, and the offset of its
  /// row in the parent's sibling table, so border(from, toward) is
  /// border_[row_[from] + rank_[toward]]. One-level: border_[from*C+toward].
  std::vector<std::size_t> rank_;
  std::vector<std::size_t> row_;
  /// Per group: the offset of its children's length triangle, so siblings
  /// a, b with rank_[a] < rank_[b] under parent p keep their link length
  /// at length_[triangle_[p] + rank_[b] (rank_[b] - 1) / 2 + rank_[a]].
  std::vector<std::size_t> triangle_;
  /// Every parent's k x k sibling table, parents in id order.
  std::vector<NodeId> border_;
  /// Every parent's k (k - 1) / 2 link lengths, beside border_: the
  /// distance between the pair's border nodes, from the lower id's end,
  /// stored whenever the pair is chosen; +inf once either side dies.
  std::vector<double> length_;
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
  /// Per cluster slot, sized at the first mutation.
  std::vector<Staged> staged_;
  /// The clusters touched since the last repair, in first-touch order.
  std::vector<std::size_t> touched_;

  /// Spatial acceleration (DESIGN.md §11). Set only by the
  /// CoordDistanceService constructor under kClosestPair; points into the
  /// tier's coordinate store (which may grow — rows are re-read through
  /// it).
  const PointSet* coords_ = nullptr;
  /// One churn-capable set per cluster slot, mirroring members.
  std::vector<DynamicSpatialSet> cluster_sets_;
  /// Per cluster slot, built at the first repair: a box covering every
  /// member the cluster has had since — widened on each join, never
  /// shrunk — so it covers its set's indexed and still-pending points
  /// alike. dim lows, then dim highs, cluster after cluster.
  std::vector<double> boxes_;
};

}  // namespace hfc
