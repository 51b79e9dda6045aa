#include "multilevel/multilevel_hierarchy.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "spatial/closest_pair.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

/// Accumulate elapsed wall-clock into a construct.* phase counter, so
/// bench_topology_scaling can attribute the build (counters are
/// cumulative; benches read deltas around the build).
void add_phase_us(const char* counter,
                  std::chrono::steady_clock::time_point since) {
  obs::MetricsRegistry::global().counter(counter).add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - since)
              .count()));
}

/// Recursive widest-axis median split of ids[begin, end) — indices into
/// `pts` — under the (coordinate, id) total order, the same
/// deterministic partition rule as the k-d tree build, into consecutive
/// ranges of at most `limit` ids appended to `out` left-to-right.
void median_partition(const PointSet& pts,
                      std::vector<std::size_t>& ids, std::size_t begin,
                      std::size_t end, std::size_t limit,
                      std::vector<std::pair<std::size_t, std::size_t>>& out) {
  if (end - begin <= limit) {
    out.emplace_back(begin, end);
    return;
  }
  std::size_t axis = 0;
  double widest = -1.0;
  for (std::size_t d = 0; d < pts.dim(); ++d) {
    double lo = pts[ids[begin]][d];
    double hi = lo;
    for (std::size_t p = begin + 1; p < end; ++p) {
      lo = std::min(lo, pts[ids[p]][d]);
      hi = std::max(hi, pts[ids[p]][d]);
    }
    if (hi - lo > widest) {
      widest = hi - lo;
      axis = d;
    }
  }
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(ids.begin() + static_cast<std::ptrdiff_t>(begin),
                   ids.begin() + static_cast<std::ptrdiff_t>(mid),
                   ids.begin() + static_cast<std::ptrdiff_t>(end),
                   [&pts, axis](std::size_t a, std::size_t b) {
                     const double va = pts[a][axis];
                     const double vb = pts[b][axis];
                     if (va != vb) return va < vb;
                     return a < b;
                   });
  median_partition(pts, ids, begin, mid, limit, out);
  median_partition(pts, ids, mid, end, limit, out);
}

/// Key of the unordered group pair {a, b}.
constexpr std::uint64_t pair_key(std::size_t a, std::size_t b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
         static_cast<std::uint32_t>(std::max(a, b));
}

/// Mean of a group's member coordinates.
[[nodiscard]] Point centroid_of(const PointSet& coords,
                                const std::vector<NodeId>& nodes) {
  const std::size_t dim = coords.dim();
  Point centroid(dim, 0.0);
  for (const NodeId n : nodes) {
    for (std::size_t d = 0; d < dim; ++d) centroid[d] += coords[n.idx()][d];
  }
  for (double& c : centroid) c /= static_cast<double>(nodes.size());
  return centroid;
}

}  // namespace

MultiLevelHierarchy::MultiLevelHierarchy(const PointSet& coords,
                                         const MultiLevelParams& params) {
  require(!coords.empty(), "MultiLevelHierarchy: empty coordinate set");
  require(params.factor_growth >= 1.0,
          "MultiLevelHierarchy: factor growth must be >= 1");
  node_leaf_.assign(coords.size(), HierarchyGroup::kNoGroup);
  if (params.group_fanout > 0) {
    require(params.group_fanout >= 2,
            "MultiLevelHierarchy: bounded fanout must be >= 2");
    require(params.leaf_limit >= 1,
            "MultiLevelHierarchy: leaf limit must be >= 1");
    build_bounded_fanout(coords, params);
  } else {
    require(params.levels >= 1, "MultiLevelHierarchy: need >= 1 level");
    build_fixed_levels(coords, params);
  }
  finish_root();
  const auto t_borders = std::chrono::steady_clock::now();
  select_borders(coords);
  add_phase_us("construct.borders_us", t_borders);
}

void MultiLevelHierarchy::build_fixed_levels(const PointSet& coords,
                                             const MultiLevelParams& params) {
  // Level 1: Zahn clusters of the proxies.
  const auto t_leaf = std::chrono::steady_clock::now();
  const Clustering leaves = cluster_points(coords, params.leaf_zahn);
  add_phase_us("construct.leaf_cluster_us", t_leaf);
  const auto t_levels = std::chrono::steady_clock::now();
  level_groups_.emplace_back();
  for (std::size_t c = 0; c < leaves.cluster_count(); ++c) {
    HierarchyGroup g;
    g.level = 1;
    g.nodes = leaves.members[c];
    for (NodeId n : g.nodes) node_leaf_[n.idx()] = groups_.size();
    level_groups_[0].push_back(groups_.size());
    groups_.push_back(std::move(g));
  }
  levels_ = 1;

  // Higher levels: cluster the centroids of the previous level's groups.
  ZahnParams zahn = params.leaf_zahn;
  for (std::size_t level = 2; level <= params.levels; ++level) {
    // Copy: the emplace_back below would invalidate a reference.
    const std::vector<std::size_t> below = level_groups_.back();
    if (below.size() <= 1) break;  // nothing left to group
    zahn.inconsistency_factor *= params.factor_growth;

    PointSet centroids(coords.dim());
    centroids.reserve(below.size());
    for (std::size_t gid : below) {
      centroids.push_back(centroid_of(coords, groups_[gid].nodes));
    }
    const Clustering grouped = cluster_points(centroids, zahn);
    if (grouped.cluster_count() == below.size()) {
      // No coarsening happened; a further level would be pure overhead.
      break;
    }
    level_groups_.emplace_back();
    for (std::size_t c = 0; c < grouped.cluster_count(); ++c) {
      HierarchyGroup g;
      g.level = level;
      for (NodeId member : grouped.members[c]) {
        const std::size_t child = below[member.idx()];
        g.children.push_back(child);
        groups_[child].parent = groups_.size();
        g.nodes.insert(g.nodes.end(), groups_[child].nodes.begin(),
                       groups_[child].nodes.end());
      }
      std::sort(g.nodes.begin(), g.nodes.end());
      level_groups_.back().push_back(groups_.size());
      groups_.push_back(std::move(g));
    }
    levels_ = level;
  }
  add_phase_us("construct.levels_us", t_levels);
}

void MultiLevelHierarchy::build_bounded_fanout(
    const PointSet& coords, const MultiLevelParams& params) {
  // Level 1: Zahn clusters of the proxies, with oversized clusters split
  // by median partition so no leaf exceeds leaf_limit nodes. The split is
  // geometric (widest axis, deterministic (coordinate, id) median), so
  // the pieces stay spatially coherent — the property border selection
  // and routing locality rest on.
  const auto t_leaf = std::chrono::steady_clock::now();
  const Clustering leaves = cluster_points(coords, params.leaf_zahn);
  add_phase_us("construct.leaf_cluster_us", t_leaf);
  const auto t_levels = std::chrono::steady_clock::now();
  level_groups_.emplace_back();
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  for (std::size_t c = 0; c < leaves.cluster_count(); ++c) {
    const std::vector<NodeId>& members = leaves.members[c];
    std::vector<std::vector<NodeId>> pieces;
    if (members.size() <= params.leaf_limit) {
      pieces.push_back(members);
    } else {
      std::vector<std::size_t> ids;
      ids.reserve(members.size());
      for (const NodeId n : members) ids.push_back(n.idx());
      parts.clear();
      median_partition(coords, ids, 0, ids.size(), params.leaf_limit, parts);
      for (const auto& [b, e] : parts) {
        std::vector<NodeId> piece;
        piece.reserve(e - b);
        for (std::size_t p = b; p < e; ++p) {
          piece.emplace_back(static_cast<std::int32_t>(ids[p]));
        }
        std::sort(piece.begin(), piece.end());
        pieces.push_back(std::move(piece));
      }
    }
    for (std::vector<NodeId>& piece : pieces) {
      HierarchyGroup g;
      g.level = 1;
      g.nodes = std::move(piece);
      for (NodeId n : g.nodes) node_leaf_[n.idx()] = groups_.size();
      level_groups_[0].push_back(groups_.size());
      groups_.push_back(std::move(g));
    }
  }
  levels_ = 1;

  // Higher levels: median-partition the previous level's centroids into
  // parent groups of at most group_fanout children, until the virtual
  // root itself can hold the whole top level. Depth therefore derives
  // from n instead of a caller guess: ~log_fanout(#leaves) levels.
  while (level_groups_.back().size() > params.group_fanout) {
    const std::vector<std::size_t> below = level_groups_.back();
    PointSet centroids(coords.dim());
    centroids.reserve(below.size());
    for (std::size_t gid : below) {
      centroids.push_back(centroid_of(coords, groups_[gid].nodes));
    }
    std::vector<std::size_t> ids(below.size());
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    parts.clear();
    median_partition(centroids, ids, 0, ids.size(), params.group_fanout,
                     parts);
    ensure(parts.size() < below.size(),
           "MultiLevelHierarchy: bounded-fanout level failed to coarsen");
    const std::size_t level = levels_ + 1;
    level_groups_.emplace_back();
    for (const auto& [b, e] : parts) {
      HierarchyGroup g;
      g.level = level;
      for (std::size_t p = b; p < e; ++p) g.children.push_back(below[ids[p]]);
      std::sort(g.children.begin(), g.children.end());
      for (const std::size_t child : g.children) {
        groups_[child].parent = groups_.size();
        g.nodes.insert(g.nodes.end(), groups_[child].nodes.begin(),
                       groups_[child].nodes.end());
      }
      std::sort(g.nodes.begin(), g.nodes.end());
      level_groups_.back().push_back(groups_.size());
      groups_.push_back(std::move(g));
    }
    levels_ = level;
  }
  add_phase_us("construct.levels_us", t_levels);
}

void MultiLevelHierarchy::finish_root() {
  // Virtual root holding the top level's groups.
  HierarchyGroup root;
  root.level = levels_ + 1;
  for (std::size_t gid : level_groups_.back()) {
    root.children.push_back(gid);
    groups_[gid].parent = groups_.size();
    root.nodes.insert(root.nodes.end(), groups_[gid].nodes.begin(),
                      groups_[gid].nodes.end());
  }
  std::sort(root.nodes.begin(), root.nodes.end());
  root_ = groups_.size();
  groups_.push_back(std::move(root));
}

void MultiLevelHierarchy::select_borders(const PointSet& coords) {
  // For every parent, connect its children pairwise by the closest
  // cross-group node pair (§3.3 applied at every level), through the one
  // closest_pair routine HfcTopology uses. Group node lists are sorted
  // ascending, so both of its paths pick the lex-min (d, x, y) pair.
  //
  // The child indexes are transient per parent: each child's set is
  // built when its parent is processed and dropped right after, so peak
  // index memory is one parent's worth (one hierarchy level in total
  // would be the old eager layout — prohibitive at 1M nodes times the
  // depth). Sibling pairs solve in parallel into disjoint result slots;
  // the map writes and counter sums stay serial, so borders and counters
  // are bit-identical for any thread count.
  static obs::Counter& candidates =
      obs::MetricsRegistry::global().counter("multilevel.candidate_links");
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");
  const bool use_spatial = spatial_enabled(coords.size());
  const auto distance = [&coords](NodeId x, NodeId y) {
    return euclidean(coords[x.idx()], coords[y.idx()]);
  };
  QueryStats qs;

  struct PairTask {
    std::size_t ia = 0;  ///< positions within parent.children
    std::size_t ib = 0;
    BcpResult result;
    QueryStats stats;
  };
  std::vector<DynamicSpatialSet> sets;
  std::vector<PairTask> pairs;
  for (std::size_t pg = 0; pg < groups_.size(); ++pg) {
    const HierarchyGroup& parent = groups_[pg];
    if (parent.children.size() < 2) continue;
    if (use_spatial) {
      sets.clear();
      sets.resize(parent.children.size());
      for (std::size_t i = 0; i < parent.children.size(); ++i) {
        std::vector<std::int32_t> ids;
        ids.reserve(groups_[parent.children[i]].nodes.size());
        for (const NodeId n : groups_[parent.children[i]].nodes) {
          ids.push_back(n.value());
        }
        sets[i].bulk_load(coords, std::move(ids));
      }
    }
    const auto side = [&](std::size_t i) {
      return PairSide{groups_[parent.children[i]].nodes,
                      use_spatial ? &sets[i] : nullptr};
    };
    pairs.clear();
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        pairs.push_back(PairTask{i, j, {}, {}});
      }
    }
    parallel_for(pairs.size(), 4, [&](std::size_t k) {
      PairTask& t = pairs[k];
      t.result = closest_pair(side(t.ia), side(t.ib), distance, t.stats);
    });
    for (const PairTask& t : pairs) {
      ensure(t.result.found(), "MultiLevelHierarchy: empty group in BCP");
      const std::size_t a = parent.children[t.ia];
      const std::size_t b = parent.children[t.ib];
      const bool a_lo = a < b;
      links_[pair_key(a, b)] = SiblingLink{
          NodeId(a_lo ? t.result.x : t.result.y),
          NodeId(a_lo ? t.result.y : t.result.x), t.result.dist};
      qs += t.stats;
    }
  }
  candidates.add(qs.point_evals);
  visited.add(qs.nodes_visited);
}

const HierarchyGroup& MultiLevelHierarchy::group(std::size_t index) const {
  require(index < groups_.size(), "MultiLevelHierarchy::group: bad index");
  return groups_[index];
}

const std::vector<std::size_t>& MultiLevelHierarchy::groups_at(
    std::size_t level) const {
  require(level >= 1 && level <= level_groups_.size(),
          "MultiLevelHierarchy::groups_at: bad level");
  return level_groups_[level - 1];
}

std::size_t MultiLevelHierarchy::leaf_of(NodeId node) const {
  require(node.valid() && node.idx() < node_leaf_.size(),
          "MultiLevelHierarchy::leaf_of: bad node");
  return node_leaf_[node.idx()];
}

std::size_t MultiLevelHierarchy::ancestor_of(NodeId node,
                                             std::size_t level) const {
  std::size_t g = leaf_of(node);
  while (groups_[g].level < level) {
    g = groups_[g].parent;
    ensure(g != HierarchyGroup::kNoGroup,
           "MultiLevelHierarchy::ancestor_of: level above root");
  }
  require(groups_[g].level == level,
          "MultiLevelHierarchy::ancestor_of: no ancestor at that level");
  return g;
}

NodeId MultiLevelHierarchy::border(std::size_t from,
                                   std::size_t toward) const {
  const CspLink l = link(from, toward);
  require(l.found, "MultiLevelHierarchy::border: groups are not siblings");
  return l.exit;
}

double MultiLevelHierarchy::external_length(std::size_t a,
                                            std::size_t b) const {
  const CspLink l = link(a, b);
  require(l.found,
          "MultiLevelHierarchy::external_length: groups are not siblings");
  return l.length;
}

CspLink MultiLevelHierarchy::link(std::size_t from, std::size_t toward) const {
  const auto it = links_.find(pair_key(from, toward));
  if (it == links_.end()) return CspLink{};
  const SiblingLink& l = it->second;
  return from < toward ? CspLink{l.in_lo, l.in_hi, l.length, true}
                       : CspLink{l.in_hi, l.in_lo, l.length, true};
}

std::vector<NodeId> MultiLevelHierarchy::hop_path(NodeId a, NodeId b) const {
  if (a == b) return {a};
  // Lowest common group: walk ancestries up from the leaves.
  std::size_t ga = leaf_of(a);
  std::size_t gb = leaf_of(b);
  if (ga == gb) return {a, b};  // same leaf cluster: direct link
  // Raise both to the same level, then together until the parents match.
  while (groups_[ga].parent != groups_[gb].parent) {
    if (groups_[ga].level < groups_[gb].level) {
      ga = groups_[ga].parent;
    } else if (groups_[gb].level < groups_[ga].level) {
      gb = groups_[gb].parent;
    } else {
      ga = groups_[ga].parent;
      gb = groups_[gb].parent;
    }
    ensure(ga != HierarchyGroup::kNoGroup && gb != HierarchyGroup::kNoGroup,
           "MultiLevelHierarchy::hop_path: ran past the root");
  }
  // a -> border(ga, gb), external crossing, border(gb, ga) -> b, each
  // segment resolved recursively one level below.
  const NodeId ba = border(ga, gb);
  const NodeId bb = border(gb, ga);
  std::vector<NodeId> path = hop_path(a, ba);
  const std::vector<NodeId> tail = hop_path(bb, b);
  path.insert(path.end(), tail.begin(), tail.end());
  // Adjacent duplicates appear when a == ba etc.; collapse them.
  std::vector<NodeId> cleaned;
  for (NodeId n : path) {
    if (cleaned.empty() || cleaned.back() != n) cleaned.push_back(n);
  }
  return cleaned;
}

double MultiLevelHierarchy::path_distance(
    NodeId a, NodeId b, const OverlayDistance& distance) const {
  const std::vector<NodeId> path = hop_path(a, b);
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    total += distance(path[i], path[i + 1]);
  }
  return total;
}

std::size_t MultiLevelHierarchy::coordinate_state_count(NodeId node) const {
  // Own leaf members plus, at each ancestry level, the border nodes among
  // the siblings of the node's group (all pairs, Figure 4 generalised).
  std::vector<NodeId> visible = groups_[leaf_of(node)].nodes;
  for (std::size_t g = leaf_of(node); groups_[g].parent != HierarchyGroup::kNoGroup;
       g = groups_[g].parent) {
    const HierarchyGroup& parent = groups_[groups_[g].parent];
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        visible.push_back(
            border(parent.children[i], parent.children[j]));
        visible.push_back(
            border(parent.children[j], parent.children[i]));
      }
    }
  }
  std::sort(visible.begin(), visible.end());
  visible.erase(std::unique(visible.begin(), visible.end()), visible.end());
  return visible.size();
}

std::size_t MultiLevelHierarchy::service_state_count(NodeId node) const {
  // Own leaf members (SCT_P) plus one aggregate entry per sibling group at
  // every ancestry level (the node's own group is covered by SCT_P /
  // lower-level aggregates, but counting it matches the bi-level SCT_C
  // convention of one entry per cluster including one's own).
  std::size_t count = groups_[leaf_of(node)].nodes.size();
  for (std::size_t g = leaf_of(node); groups_[g].parent != HierarchyGroup::kNoGroup;
       g = groups_[g].parent) {
    count += groups_[groups_[g].parent].children.size();
  }
  return count;
}

std::size_t MultiLevelHierarchy::resident_bytes() const {
  std::size_t bytes = node_leaf_.capacity() * sizeof(std::size_t);
  for (const HierarchyGroup& g : groups_) {
    bytes += sizeof(HierarchyGroup) +
             g.nodes.capacity() * sizeof(NodeId) +
             g.children.capacity() * sizeof(std::size_t);
  }
  for (const std::vector<std::size_t>& lvl : level_groups_) {
    bytes += lvl.capacity() * sizeof(std::size_t);
  }
  // Hash map: key + value + bucket/next pointers per entry.
  bytes += links_.size() *
           (sizeof(std::uint64_t) + sizeof(SiblingLink) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace hfc
