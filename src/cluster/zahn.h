// Zahn's MST clustering ("Graph-Theoretical Methods for Detecting and
// Describing Gestalt Clusters", IEEE ToC 1971) — the clustering mechanism
// of paper §3.2.
//
// An MST edge is *inconsistent* when its length is significantly larger
// (factor k) than the average length of nearby edges in the two subtrees
// it joins. Removing all inconsistent edges splits the tree into connected
// components, which are the clusters.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/mst.h"
#include "util/ids.h"

namespace hfc {

class CoordDistanceService;

/// How the "typical nearby edge length" is computed in the inconsistency
/// test. kMean is Zahn's (and the paper's) formulation; kMedian is robust
/// to multi-scale data, where one enormous nearby edge can mask a
/// moderately long one (needed when clustering hierarchically laid-out
/// points, see HfcTopology's multi-level construction).
enum class ZahnStatistic { kMean, kMedian };

struct ZahnParams {
  /// An edge is inconsistent when length > factor * (typical length of
  /// nearby edges). The paper suggests "a selected number, e.g. 2, 3, ...";
  /// 3 is the default here — 2 over-segments uniform point clouds.
  double inconsistency_factor = 3.0;
  /// How many hops from each endpoint count as "nearby" when averaging.
  std::size_t neighborhood_depth = 2;
  ZahnStatistic statistic = ZahnStatistic::kMean;
  /// Clusters smaller than this are merged into the cluster of their
  /// nearest foreign node (1 disables merging). Not part of the paper's
  /// algorithm; exposed for the ablation study.
  std::size_t min_cluster_size = 1;
};

/// Result of clustering n nodes.
struct Clustering {
  /// assignment[i] = cluster of node i; cluster ids are dense from 0.
  std::vector<ClusterId> assignment;
  /// members[c] = nodes of cluster c, ascending.
  std::vector<std::vector<NodeId>> members;

  [[nodiscard]] std::size_t cluster_count() const { return members.size(); }
  [[nodiscard]] std::size_t node_count() const { return assignment.size(); }
  [[nodiscard]] ClusterId cluster_of(NodeId node) const {
    return assignment.at(node.idx());
  }
};

/// Cluster n nodes from their MST. `distance` is needed only when
/// min_cluster_size > 1 (for merging); pass the same function used to
/// build the MST. Throws on inconsistent inputs.
[[nodiscard]] Clustering zahn_cluster(std::size_t n,
                                      const std::vector<MstEdge>& mst,
                                      const ZahnParams& params,
                                      const DistanceFn& distance);

/// Convenience: MST (`euclidean_mst`) + clustering of points under
/// Euclidean distance.
[[nodiscard]] Clustering cluster_points(const PointSet& points,
                                        const ZahnParams& params = {});

/// The pipeline form over the coordinate tier: `cluster_points` of its
/// coordinates, whose euclidean() doubles are the tier's own.
[[nodiscard]] Clustering cluster_nodes(const CoordDistanceService& distance,
                                       const ZahnParams& params = {});

/// Indices (into `mst`) of the edges Zahn's test marks inconsistent,
/// ascending. Each edge's verdict is a pure function of the MST
/// adjacency, so the sweep evaluates fixed-size edge blocks in parallel
/// (per-block epoch-stamped BFS scratch, a fixed traversal and
/// floating-point summation order) and returns a byte-identical list for
/// any HFC_THREADS — the one serial edge-by-edge sweep in
/// tests/oracle/zahn_cut.h.
[[nodiscard]] std::vector<std::size_t> find_inconsistent_edges(
    std::size_t n, const std::vector<MstEdge>& mst, const ZahnParams& params);

}  // namespace hfc
