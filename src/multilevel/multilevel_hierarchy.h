// Multi-level HFC hierarchies — a generalisation of the paper's bi-level
// topology (§1 explicitly presents Figure 1 as "an example of a *bi-level*
// HFC topology"; this module provides the n-level case the naming
// implies, for overlays beyond the paper's 1000-proxy scale).
//
// Construction is recursive proximity clustering: level-1 groups are the
// Zahn clusters of the proxy coordinates; level-k groups are Zahn clusters
// of the level-(k-1) group centroids (with a progressively relaxed
// inconsistency factor). Groups sharing a parent are fully connected
// pairwise through border node pairs chosen as the closest cross-group
// node pair — the same §3.3 rule applied at every level.
//
// Visibility generalises Figure 4: a proxy keeps full state of its leaf
// cluster, and, for every level of its ancestry, the border nodes among
// its group's siblings. Communication between two nodes descends from
// their lowest common group through border pairs, so a node in an L-level
// hierarchy is at most 2^L - 2 intermediate hops from any other.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "cluster/zahn.h"
#include "coords/point_set.h"
#include "overlay/overlay_network.h"
#include "routing/csp_kernel.h"
#include "util/ids.h"

namespace hfc {

/// One group of the hierarchy. Level 1 = leaf clusters of proxies;
/// higher levels group the groups below. The virtual root (holding every
/// top-level group) is stored explicitly as the highest level.
struct HierarchyGroup {
  std::size_t level = 1;
  std::size_t parent = kNoGroup;          ///< kNoGroup for the root
  std::vector<std::size_t> children;      ///< group indices (empty at level 1)
  std::vector<NodeId> nodes;              ///< flattened membership, ascending

  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
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

class MultiLevelHierarchy {
 public:
  /// Build from proxy coordinates (read only during the build). Throws
  /// on empty input or zero levels.
  MultiLevelHierarchy(const PointSet& coords, const MultiLevelParams& params);

  [[nodiscard]] std::size_t node_count() const { return node_leaf_.size(); }
  /// Number of real clustering levels built (excludes the virtual root).
  [[nodiscard]] std::size_t levels() const { return levels_; }
  [[nodiscard]] const HierarchyGroup& group(std::size_t index) const;
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  /// Index of the virtual root group.
  [[nodiscard]] std::size_t root() const { return root_; }
  /// Groups of a given level (1..levels()).
  [[nodiscard]] const std::vector<std::size_t>& groups_at(
      std::size_t level) const;
  /// The leaf cluster (level-1 group index) containing a node.
  [[nodiscard]] std::size_t leaf_of(NodeId node) const;
  /// The ancestor of `node`'s leaf at the given level (1..levels()+1 where
  /// levels()+1 is the root).
  [[nodiscard]] std::size_t ancestor_of(NodeId node, std::size_t level) const;

  /// Border node inside sibling group `from` facing sibling group
  /// `toward` (both must share a parent and differ).
  [[nodiscard]] NodeId border(std::size_t from, std::size_t toward) const;
  /// Length of the external link between the border pair of two siblings
  /// under the distance the hierarchy was built with.
  [[nodiscard]] double external_length(std::size_t a, std::size_t b) const;
  /// The link from `from` toward `toward` in one lookup: `exit` =
  /// border(from, toward), `entry` = border(toward, from). Not found
  /// unless the two groups are distinct siblings.
  [[nodiscard]] CspLink link(std::size_t from, std::size_t toward) const;

  /// A group's proxies, ascending (the live-link view's closest-pair side).
  [[nodiscard]] const std::vector<NodeId>& members(std::size_t group) const {
    return this->group(group).nodes;
  }

  /// The hop sequence (with border relays at every level) between two
  /// nodes, and its total length under `distance`.
  [[nodiscard]] std::vector<NodeId> hop_path(NodeId a, NodeId b) const;
  [[nodiscard]] double path_distance(NodeId a, NodeId b,
                                     const OverlayDistance& distance) const;

  /// Figure-9-style state accounting under multi-level visibility.
  [[nodiscard]] std::size_t coordinate_state_count(NodeId node) const;
  [[nodiscard]] std::size_t service_state_count(NodeId node) const;

  /// Bytes of hierarchy state resident (group membership lists plus the
  /// sibling-link map) — the bench memory-ceiling assertions bound
  /// this alongside the coordinate tier.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  void build_fixed_levels(const PointSet& coords,
                          const MultiLevelParams& params);
  void build_bounded_fanout(const PointSet& coords,
                            const MultiLevelParams& params);
  /// Append the virtual root over level_groups_.back().
  void finish_root();
  void select_borders(const PointSet& coords);

  /// The border pair of two siblings `lo` < `hi` and its length.
  struct SiblingLink {
    NodeId in_lo, in_hi;
    double length = 0;
  };

  std::vector<HierarchyGroup> groups_;
  std::vector<std::vector<std::size_t>> level_groups_;  ///< [level-1] -> ids
  std::vector<std::size_t> node_leaf_;                  ///< node -> leaf group
  std::size_t levels_ = 0;
  std::size_t root_ = HierarchyGroup::kNoGroup;
  /// (min group, max group) -> their link; only sibling pairs present.
  std::unordered_map<std::uint64_t, SiblingLink> links_;
};

}  // namespace hfc
