#include "overlay/hfc_topology.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>

#include "cluster/median_partition.h"
#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spatial/spatial_index.h"
#include "util/require.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

ClusterId group_id(std::size_t g) {
  return ClusterId(static_cast<std::int32_t>(g));
}

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

/// The mean of each group's member coordinates.
[[nodiscard]] PointSet centroids_of(const PointSet& coords,
                                    const HfcTopology& topo,
                                    const std::vector<ClusterId>& groups) {
  const std::size_t dim = coords.dim();
  PointSet centroids(dim);
  centroids.reserve(groups.size());
  for (const ClusterId g : groups) {
    const std::vector<NodeId>& nodes = topo.members(g);
    Point centroid(dim, 0.0);
    for (const NodeId n : nodes) {
      for (std::size_t d = 0; d < dim; ++d) centroid[d] += coords[n.idx()][d];
    }
    for (double& c : centroid) c /= static_cast<double>(nodes.size());
    centroids.push_back(centroid);
  }
  return centroids;
}

}  // namespace

HfcTopology::HfcTopology(Clustering clustering,
                         const DistanceService& distance,
                         BorderSelection selection)
    : clustering_(std::move(clustering)),
      distance_(distance.fn()),
      selection_(selection) {
  build_flat_tree();
  // Spatial acceleration only applies to the closest-pair rule (the
  // other strategies never scan candidate pairs) and only when the
  // service's distances *are* euclidean() over an exposed coordinate
  // array — index pruning is unsound for any other metric.
  const PointSet* coords = distance.coord_view();
  if (selection == BorderSelection::kClosestPair && coords != nullptr) {
    coords_ = coords;
    cluster_sets_.resize(clustering_.cluster_count());
    for (std::size_t ci = 0; ci < clustering_.cluster_count(); ++ci) {
      std::vector<std::int32_t> ids;
      ids.reserve(clustering_.members[ci].size());
      for (const NodeId m : clustering_.members[ci]) ids.push_back(m.value());
      cluster_sets_[ci].bulk_load(*coords_, std::move(ids));
    }
  }
  build_borders(distance_, nullptr, "topology.candidate_links");
}

HfcTopology::HfcTopology(Clustering clustering,
                         const OverlayDistance& distance,
                         BorderSelection selection)
    : clustering_(std::move(clustering)),
      distance_(distance),
      selection_(selection) {
  require(static_cast<bool>(distance), "HfcTopology: null distance");
  build_flat_tree();
  build_borders(distance_, nullptr, "topology.candidate_links");
}

HfcTopology::HfcTopology(const PointSet& coords,
                         const MultiLevelParams& params) {
  require(!coords.empty(), "HfcTopology: empty coordinate set");
  require(params.factor_growth >= 1.0,
          "HfcTopology: factor growth must be >= 1");
  if (params.group_fanout > 0) {
    require(params.group_fanout >= 2,
            "HfcTopology: bounded fanout must be >= 2");
    require(params.leaf_limit >= 1,
            "HfcTopology: leaf limit must be >= 1");
    build_bounded_fanout(coords, params);
  } else {
    require(params.levels >= 1, "HfcTopology: need >= 1 level");
    build_fixed_levels(coords, params);
  }
  add_group(levels() + 1, level_groups_.back(), /*is_root=*/true);
  finish_tree();
  const auto t_borders = std::chrono::steady_clock::now();
  build_borders(
      [&coords](NodeId x, NodeId y) {
        return euclidean(coords[x.idx()], coords[y.idx()]);
      },
      &coords, "multilevel.candidate_links");
  add_phase_us("construct.borders_us", t_borders);
}

// ---------------------------------------------------------------------
// The tree.

void HfcTopology::build_flat_tree() {
  require(clustering_.cluster_count() >= 1, "HfcTopology: empty clustering");
  add_leaf_level();
  add_group(2, level_groups_[0], /*is_root=*/true);
  finish_tree();
}

void HfcTopology::add_leaf_level() {
  groups_.resize(clustering_.cluster_count());
  level_groups_.assign(1, {});
  for (std::size_t c = 0; c < clustering_.cluster_count(); ++c) {
    level_groups_[0].push_back(group_id(c));
  }
}

void HfcTopology::build_fixed_levels(const PointSet& coords,
                                     const MultiLevelParams& params) {
  // Level 1: Zahn clusters of the proxies.
  const auto t_leaf = std::chrono::steady_clock::now();
  clustering_ = cluster_points(coords, params.leaf_zahn);
  add_phase_us("construct.leaf_cluster_us", t_leaf);
  const auto t_levels = std::chrono::steady_clock::now();
  add_leaf_level();

  // Higher levels: cluster the centroids of the previous level's groups.
  ZahnParams zahn = params.leaf_zahn;
  for (std::size_t level = 2; level <= params.levels; ++level) {
    // Copy: the emplace_back below would invalidate a reference.
    const std::vector<ClusterId> below = level_groups_.back();
    if (below.size() <= 1) break;  // nothing left to group
    zahn.inconsistency_factor *= params.factor_growth;
    const Clustering grouped =
        cluster_points(centroids_of(coords, *this, below), zahn);
    if (grouped.cluster_count() == below.size()) {
      // No coarsening happened; a further level would be pure overhead.
      break;
    }
    level_groups_.emplace_back();
    for (const std::vector<NodeId>& part : grouped.members) {
      std::vector<ClusterId> children;
      for (const NodeId member : part) children.push_back(below[member.idx()]);
      add_group(level, std::move(children), /*is_root=*/false);
    }
  }
  add_phase_us("construct.levels_us", t_levels);
}

void HfcTopology::build_bounded_fanout(const PointSet& coords,
                                       const MultiLevelParams& params) {
  // Level 1: Zahn clusters of the proxies, with oversized clusters split
  // by median partition so no leaf exceeds leaf_limit nodes. The split is
  // geometric (widest axis, deterministic (coordinate, id) median), so
  // the pieces stay spatially coherent — the property border selection
  // and routing locality rest on.
  const auto t_leaf = std::chrono::steady_clock::now();
  const Clustering zahn = cluster_points(coords, params.leaf_zahn);
  add_phase_us("construct.leaf_cluster_us", t_leaf);
  const auto t_levels = std::chrono::steady_clock::now();
  clustering_.assignment.assign(coords.size(), ClusterId{});
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  for (const std::vector<NodeId>& members : zahn.members) {
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
      const ClusterId leaf = group_id(clustering_.members.size());
      for (const NodeId n : piece) clustering_.assignment[n.idx()] = leaf;
      clustering_.members.push_back(std::move(piece));
    }
  }
  add_leaf_level();

  // Higher levels: median-partition the previous level's centroids into
  // parent groups of at most group_fanout children, until the virtual
  // root itself can hold the whole top level. Depth therefore derives
  // from n instead of a caller guess: ~log_fanout(#leaves) levels.
  while (level_groups_.back().size() > params.group_fanout) {
    const std::vector<ClusterId> below = level_groups_.back();
    const PointSet centroids = centroids_of(coords, *this, below);
    std::vector<std::size_t> ids(below.size());
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    parts.clear();
    median_partition(centroids, ids, 0, ids.size(), params.group_fanout,
                     parts);
    ensure(parts.size() < below.size(),
           "HfcTopology: bounded-fanout level failed to coarsen");
    const std::size_t level = levels() + 1;
    level_groups_.emplace_back();
    for (const auto& [b, e] : parts) {
      std::vector<ClusterId> children;
      for (std::size_t p = b; p < e; ++p) children.push_back(below[ids[p]]);
      std::sort(children.begin(), children.end());
      add_group(level, std::move(children), /*is_root=*/false);
    }
  }
  add_phase_us("construct.levels_us", t_levels);
}

void HfcTopology::add_group(std::size_t level, std::vector<ClusterId> children,
                            bool is_root) {
  const ClusterId id = group_id(groups_.size());
  std::vector<NodeId> nodes;
  for (const ClusterId child : children) {
    groups_[child.idx()].parent = id;
    if (is_root) continue;
    const std::vector<NodeId>& below = members(child);
    nodes.insert(nodes.end(), below.begin(), below.end());
  }
  if (is_root) {
    root_ = id;
  } else {
    std::sort(nodes.begin(), nodes.end());
    inner_members_.push_back(std::move(nodes));
    level_groups_[level - 1].push_back(id);
  }
  groups_.push_back(HierarchyGroup{level, ClusterId{}, std::move(children)});
}

void HfcTopology::finish_tree() {
  rank_.assign(groups_.size(), 0);
  row_.assign(groups_.size(), 0);
  triangle_.assign(groups_.size(), 0);
  std::size_t table = 0;
  std::size_t triangle = 0;
  for (std::size_t p = 0; p < groups_.size(); ++p) {
    const std::size_t k = groups_[p].children.size();
    for (std::size_t i = 0; i < k; ++i) {
      rank_[groups_[p].children[i].idx()] = i;
      row_[groups_[p].children[i].idx()] = table + i * k;
    }
    triangle_[p] = triangle;
    table += k * k;
    triangle += k * (k - 1) / 2;
  }
  border_.assign(table, NodeId{});
  length_.assign(triangle, 0.0);
  const std::size_t c = clustering_.cluster_count();
  live_.assign(c, true);
  live_count_ = c;
  generation_.assign(c, 0);
  border_epoch_.assign(c, 0);
}

void HfcTopology::build_borders(const OverlayDistance& distance,
                                const PointSet* coords,
                                const char* candidate_counter) {
  HFC_TRACE_SPAN("topology.select_borders");
  // Every parent's sibling pairs are independent: pair (a, b) scans
  // |a| * |b| candidate links and writes only its own two border slots,
  // so the selection sweep — the O(n^2)-ish hot spot of the topology
  // build — runs as one parallel task per pair, straight into border_.
  // The shared `border_refs_` counts are applied in a serial pass
  // afterwards (two pairs can pick the same node, so concurrent
  // increments race). Counter sums are order-free, so borders and
  // counters are bit-identical for any thread count.
  static obs::Counter& pairs =
      obs::MetricsRegistry::global().counter("topology.border_pairs");
  obs::Counter& candidates =
      obs::MetricsRegistry::global().counter(candidate_counter);
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");
  // Transient child indexes are built when their parent is processed and
  // dropped right after, so peak index memory is one parent's worth.
  const bool transient = coords != nullptr;
  std::vector<DynamicSpatialSet> sets;
  for (const HierarchyGroup& parent : groups_) {
    const std::vector<ClusterId>& kids = parent.children;
    const std::size_t k = kids.size();
    if (k < 2) continue;
    if (transient) {
      sets.clear();
      sets.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        std::vector<std::int32_t> ids;
        ids.reserve(members(kids[i]).size());
        for (const NodeId n : members(kids[i])) ids.push_back(n.value());
        sets[i].bulk_load(*coords, std::move(ids));
      }
    }
    const auto side_of = [&](std::size_t i) {
      return transient ? PairSide{members(kids[i]), &sets[i]}
                       : side(kids[i].idx());
    };
    parallel_for(k * (k - 1) / 2, 4, [&](std::size_t pair) {
      // Invert pair = i * k - i * (i + 1) / 2 + (j - i - 1) by scanning
      // rows; k is at most a few hundred, so this is negligible next to
      // the member scan.
      std::size_t i = 0;
      std::size_t row_start = 0;
      while (row_start + (k - i - 1) <= pair) {
        row_start += k - i - 1;
        ++i;
      }
      const std::size_t j = i + 1 + (pair - row_start);
      const std::size_t a = kids[i].idx();
      const std::size_t b = kids[j].idx();
      pairs.add(1);
      // Both counters report *actual* work: the candidate-pair reduction
      // vs the brute |a|·|b| count is the headline number of
      // BENCH_topology_scaling.json.
      QueryStats qs;
      const PairChoice pick = choose_border_pair(
          kids[i], kids[j], side_of(i), side_of(j), distance, true, qs);
      candidates.add(qs.point_evals);
      visited.add(qs.nodes_visited);
      border_[slot(a, b)] = pick.in_a;
      border_[slot(b, a)] = pick.in_b;
      length_[length_slot(a, b)] = pick.dist;
    });
  }

  border_refs_.assign(clustering_.node_count(), 0);
  for (const NodeId b : border_) {
    if (b.valid()) ++border_refs_[b.idx()];
  }
  for (std::size_t v = 0; v < border_refs_.size(); ++v) {
    if (border_refs_[v] > 0) {
      all_borders_.push_back(NodeId(static_cast<std::int32_t>(v)));
    }
  }
}

const HierarchyGroup& HfcTopology::group(ClusterId id) const {
  require(id.valid() && id.idx() < groups_.size(),
          "HfcTopology::group: bad group");
  return groups_[id.idx()];
}

const std::vector<ClusterId>& HfcTopology::groups_at(std::size_t level) const {
  require(level >= 1 && level <= levels(), "HfcTopology::groups_at: bad level");
  return level_groups_[level - 1];
}

ClusterId HfcTopology::ancestor_of(NodeId node, std::size_t level) const {
  require(node.valid() && node.idx() < node_count(),
          "HfcTopology::ancestor_of: bad node");
  ClusterId g = cluster_of(node);
  while (groups_[g.idx()].level < level) {
    g = groups_[g.idx()].parent;
    require(g.valid(), "HfcTopology::ancestor_of: level above root");
  }
  require(groups_[g.idx()].level == level,
          "HfcTopology::ancestor_of: no ancestor at that level");
  return g;
}

const std::vector<NodeId>& HfcTopology::members(ClusterId group) const {
  require(group.valid() && group.idx() < groups_.size() && group != root_,
          "HfcTopology::members: bad group");
  const std::size_t c = clustering_.cluster_count();
  return group.idx() < c ? clustering_.members[group.idx()]
                         : inner_members_[group.idx() - c];
}

NodeId HfcTopology::border(ClusterId from, ClusterId toward) const {
  require(from.valid() && from.idx() < groups_.size(),
          "HfcTopology::border: bad 'from'");
  require(toward.valid() && toward.idx() < groups_.size(),
          "HfcTopology::border: bad 'toward'");
  require(from != toward, "HfcTopology::border: same cluster");
  require(groups_[from.idx()].parent == groups_[toward.idx()].parent,
          "HfcTopology::border: groups are not siblings");
  return border_[slot(from.idx(), toward.idx())];
}

double HfcTopology::external_length(ClusterId a, ClusterId b) const {
  (void)border(a, b);  // validates a distinct sibling pair
  return length_[length_slot(a.idx(), b.idx())];
}

CspLink HfcTopology::link(ClusterId from, ClusterId toward) const {
  require(from.valid() && from.idx() < groups_.size() && toward.valid() &&
              toward.idx() < groups_.size(),
          "HfcTopology::link: bad group");
  const std::size_t f = from.idx();
  const std::size_t t = toward.idx();
  if (f == t || groups_[f].parent != groups_[t].parent) return {};
  // A dead side's pairs, and disconnected ones, hold +inf.
  const double length = length_[length_slot(f, t)];
  if (length == std::numeric_limits<double>::infinity()) return {};
  return {border_[slot(f, t)], border_[slot(t, f)], length, true};
}

bool HfcTopology::is_border(NodeId node) const {
  require(node.valid() && node.idx() < border_refs_.size(),
          "HfcTopology::is_border: bad node");
  return border_refs_[node.idx()] > 0;
}

const std::vector<NodeId>& HfcTopology::all_borders() const {
  if (borders_dirty_) {
    all_borders_.clear();
    for (std::size_t v = 0; v < border_refs_.size(); ++v) {
      if (border_refs_[v] > 0) {
        all_borders_.push_back(NodeId(static_cast<std::int32_t>(v)));
      }
    }
    borders_dirty_ = false;
  }
  return all_borders_;
}

bool HfcTopology::live(ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < live_.size(),
          "HfcTopology::live: bad cluster");
  return live_[cluster.idx()];
}

std::uint64_t HfcTopology::generation(ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < generation_.size(),
          "HfcTopology::generation: bad cluster");
  return generation_[cluster.idx()];
}

std::uint64_t HfcTopology::border_epoch(ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < border_epoch_.size(),
          "HfcTopology::border_epoch: bad cluster");
  return border_epoch_[cluster.idx()];
}

template <typename Visit>
void HfcTopology::walk(NodeId a, NodeId b, const Visit& visit) const {
  if (a == b) return;
  std::size_t ga = cluster_of(a).idx();
  std::size_t gb = cluster_of(b).idx();
  if (ga == gb) {  // same leaf cluster: direct link
    visit(b);
    return;
  }
  // Raise both to the same level, then together until the parents match.
  while (groups_[ga].parent != groups_[gb].parent) {
    const std::size_t la = groups_[ga].level;
    const std::size_t lb = groups_[gb].level;
    if (la <= lb) ga = groups_[ga].parent.idx();
    if (lb <= la) gb = groups_[gb].parent.idx();
  }
  // a -> border(ga, gb), external crossing, border(gb, ga) -> b, each
  // segment resolved one level below.
  const NodeId ba = border_[slot(ga, gb)];
  const NodeId bb = border_[slot(gb, ga)];
  walk(a, ba, visit);
  visit(bb);
  walk(bb, b, visit);
}

double HfcTopology::path_distance(NodeId u, NodeId v,
                                  const OverlayDistance& distance) const {
  double total = 0.0;
  NodeId at = u;
  walk(u, v, [&](NodeId next) {
    total += distance(at, next);
    at = next;
  });
  return total;
}

std::vector<NodeId> HfcTopology::hop_path(NodeId u, NodeId v) const {
  std::vector<NodeId> path{u};
  walk(u, v, [&path](NodeId next) { path.push_back(next); });
  return path;
}

NodeKnowledge HfcTopology::knowledge_of(NodeId node) const {
  NodeKnowledge k;
  k.own_cluster = cluster_of(node);
  k.cluster_members = members(k.own_cluster);
  // Every border of each sibling table on the ancestry (Figure 4,
  // generalised): the slots of dead clusters hold no node.
  for (ClusterId g = k.own_cluster; groups_[g.idx()].parent.valid();
       g = groups_[g.idx()].parent) {
    const std::vector<ClusterId>& siblings =
        groups_[groups_[g.idx()].parent.idx()].children;
    for (const ClusterId from : siblings) {
      for (const ClusterId toward : siblings) {
        const NodeId b = border_[slot(from.idx(), toward.idx())];
        if (b.valid()) k.visible_borders.push_back(b);
      }
    }
  }
  std::sort(k.visible_borders.begin(), k.visible_borders.end());
  k.visible_borders.erase(
      std::unique(k.visible_borders.begin(), k.visible_borders.end()),
      k.visible_borders.end());
  std::set_union(k.cluster_members.begin(), k.cluster_members.end(),
                 k.visible_borders.begin(), k.visible_borders.end(),
                 std::back_inserter(k.coordinate_set));
  return k;
}

std::size_t HfcTopology::coordinate_state_count(NodeId node) const {
  // Borders inside the node's own cluster are stored once, not twice.
  return knowledge_of(node).coordinate_set.size();
}

std::size_t HfcTopology::service_state_count(NodeId node) const {
  const ClusterId leaf = cluster_of(node);
  std::size_t count = members(leaf).size();
  for (ClusterId g = leaf; groups_[g.idx()].parent.valid();
       g = groups_[g.idx()].parent) {
    for (const ClusterId s : groups_[groups_[g.idx()].parent.idx()].children) {
      if (s.idx() >= live_.size() || live_[s.idx()]) ++count;
    }
  }
  return count;
}

std::size_t HfcTopology::spatial_resident_bytes() const {
  std::size_t bytes = boxes_.capacity() * sizeof(double);
  for (const DynamicSpatialSet& s : cluster_sets_) {
    bytes += s.resident_bytes();
  }
  return bytes;
}

std::size_t HfcTopology::resident_bytes() const {
  std::size_t bytes = clustering_.assignment.capacity() * sizeof(ClusterId);
  for (const std::vector<NodeId>& m : clustering_.members) {
    bytes += sizeof(m) + m.capacity() * sizeof(NodeId);
  }
  for (const std::vector<NodeId>& m : inner_members_) {
    bytes += sizeof(m) + m.capacity() * sizeof(NodeId);
  }
  for (const HierarchyGroup& g : groups_) {
    bytes += sizeof(HierarchyGroup) + g.children.capacity() * sizeof(ClusterId);
  }
  for (const std::vector<ClusterId>& lvl : level_groups_) {
    bytes += lvl.capacity() * sizeof(ClusterId);
  }
  bytes += (rank_.capacity() + row_.capacity() + triangle_.capacity()) *
               sizeof(std::size_t) +
           border_.capacity() * sizeof(NodeId) +
           length_.capacity() * sizeof(double) +
           border_refs_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

std::unique_ptr<HfcTopology> HfcTopology::clone_frozen(
    const OverlayDistance& distance) const {
  require(!in_batch_, "HfcTopology::clone_frozen: open mutation batch");
  require(static_cast<bool>(distance),
          "HfcTopology::clone_frozen: null distance");
  std::unique_ptr<HfcTopology> copy(new HfcTopology());
  copy->clustering_ = clustering_;
  copy->distance_ = distance;
  copy->selection_ = selection_;
  copy->groups_ = groups_;
  copy->level_groups_ = level_groups_;
  copy->root_ = root_;
  copy->inner_members_ = inner_members_;
  copy->rank_ = rank_;
  copy->row_ = row_;
  copy->triangle_ = triangle_;
  copy->border_ = border_;
  copy->length_ = length_;
  copy->border_refs_ = border_refs_;
  copy->all_borders_ = all_borders();  // refresh the lazy list eagerly
  copy->borders_dirty_ = false;
  copy->live_ = live_;
  copy->live_count_ = live_count_;
  copy->generation_ = generation_;
  copy->structure_generation_ = structure_generation_;
  copy->border_epoch_ = border_epoch_;
  return copy;
}

void HfcTopology::override_border_pair(ClusterId a, ClusterId b, NodeId in_a,
                                       NodeId in_b) {
  require_mutable("HfcTopology::override_border_pair");
  const std::size_t c = clustering_.cluster_count();
  require(a.valid() && a.idx() < c && b.valid() && b.idx() < c && a != b,
          "HfcTopology::override_border_pair: bad cluster pair");
  require(live_[a.idx()] && live_[b.idx()],
          "HfcTopology::override_border_pair: dead cluster");
  require(in_a.valid() && in_a.idx() < clustering_.assignment.size() &&
              clustering_.assignment[in_a.idx()] == a,
          "HfcTopology::override_border_pair: in_a not a member of a");
  require(in_b.valid() && in_b.idx() < clustering_.assignment.size() &&
              clustering_.assignment[in_b.idx()] == b,
          "HfcTopology::override_border_pair: in_b not a member of b");
  set_border(a.idx(), b.idx(), in_a);
  set_border(b.idx(), a.idx(), in_b);
  length_[length_slot(a.idx(), b.idx())] =
      a < b ? distance_(in_a, in_b) : distance_(in_b, in_a);
}

void HfcTopology::disconnect_pair(ClusterId a, ClusterId b) {
  require_mutable("HfcTopology::disconnect_pair");
  const std::size_t c = clustering_.cluster_count();
  require(a.valid() && a.idx() < c && b.valid() && b.idx() < c && a != b,
          "HfcTopology::disconnect_pair: bad cluster pair");
  length_[length_slot(a.idx(), b.idx())] =
      std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------
// Incremental membership maintenance (DESIGN.md §9).

void HfcTopology::require_mutable(const char* what) const {
  // A topology built from coordinates holds no distance to repair pairs
  // under.
  if (levels() != 1 || !distance_) {
    throw std::invalid_argument(
        std::string(what) + ": needs a one-level topology built over a "
        "distance");
  }
}

void HfcTopology::set_border(std::size_t from, std::size_t toward,
                             NodeId node) {
  const std::size_t s = slot(from, toward);
  const NodeId old = border_[s];
  if (old == node) return;
  if (old.valid()) --border_refs_[old.idx()];
  if (node.valid()) ++border_refs_[node.idx()];
  border_[s] = node;
  borders_dirty_ = true;
  // The pair's external view changed for both sides: entering through
  // either cluster now crosses a different node / link length.
  ++border_epoch_[from];
  ++border_epoch_[toward];
}

void HfcTopology::kill_cluster(std::size_t cluster) {
  const std::size_t c = clustering_.cluster_count();
  live_[cluster] = false;
  --live_count_;
  if (spatial_active()) cluster_sets_[cluster] = DynamicSpatialSet{};
  for (std::size_t o = 0; o < c; ++o) {
    if (o == cluster || !live_[o]) continue;
    set_border(cluster, o, NodeId{});
    set_border(o, cluster, NodeId{});
    length_[length_slot(cluster, o)] = std::numeric_limits<double>::infinity();
  }
  if (cluster < staged_.size()) {
    staged_[cluster].adds.clear();
    staged_[cluster].rescans.clear();
  }
}

void HfcTopology::append_node() {
  require_mutable("HfcTopology::append_node");
  clustering_.assignment.push_back(ClusterId{});
  border_refs_.push_back(0);
}

void HfcTopology::on_member_added(NodeId node, ClusterId cluster) {
  require_mutable("HfcTopology::on_member_added");
  require(node.valid() && node.idx() < clustering_.assignment.size(),
          "HfcTopology::on_member_added: bad node");
  require(!clustering_.assignment[node.idx()].valid(),
          "HfcTopology::on_member_added: node already clustered");
  require(cluster.valid() && cluster.idx() < clustering_.cluster_count() &&
              live_[cluster.idx()],
          "HfcTopology::on_member_added: cluster not live");
  std::vector<NodeId>& ms = clustering_.members[cluster.idx()];
  ms.insert(std::lower_bound(ms.begin(), ms.end(), node), node);
  clustering_.assignment[node.idx()] = cluster;
  if (spatial_active()) {
    cluster_sets_[cluster.idx()].insert(node.value());
    if (!boxes_.empty()) {
      double* box = &boxes_[cluster.idx() * 2 * coords_->dim()];
      widen_box(box, box + coords_->dim(), (*coords_)[node.idx()]);
    }
  }
  ++generation_[cluster.idx()];
  ++structure_generation_;
  stage(cluster.idx()).adds.push_back(node);
  if (!in_batch_) repair_staged();
}

void HfcTopology::on_member_removed(NodeId node) {
  require_mutable("HfcTopology::on_member_removed");
  require(node.valid() && node.idx() < clustering_.assignment.size(),
          "HfcTopology::on_member_removed: bad node");
  const ClusterId cluster = clustering_.assignment[node.idx()];
  require(cluster.valid(), "HfcTopology::on_member_removed: not a member");
  const std::size_t ci = cluster.idx();
  std::vector<NodeId>& ms = clustering_.members[ci];
  ms.erase(std::lower_bound(ms.begin(), ms.end(), node));
  clustering_.assignment[node.idx()] = ClusterId{};
  if (spatial_active()) cluster_sets_[ci].erase(node.value());
  ++generation_[ci];
  ++structure_generation_;
  Staged& staged = stage(ci);
  // If the node joined earlier in this batch it is no longer an add.
  std::erase(staged.adds, node);
  if (ms.empty()) {
    kill_cluster(ci);
  } else if (border_refs_[node.idx()] > 0) {
    // A removed border node invalidates its pair's stored closest pair;
    // removing any other member leaves the pair's argmin intact.
    for (const ClusterId sibling : groups_[root_.idx()].children) {
      const std::size_t o = sibling.idx();
      if (o != ci && live_[o] && border_[slot(ci, o)] == node) {
        staged.rescans.push_back(o);
      }
    }
  }
  if (!in_batch_) repair_staged();
}

void HfcTopology::begin_mutation_batch() {
  require_mutable("HfcTopology::begin_mutation_batch");
  require(!in_batch_, "HfcTopology::begin_mutation_batch: already open");
  in_batch_ = true;
}

void HfcTopology::end_mutation_batch() {
  require(in_batch_, "HfcTopology::end_mutation_batch: no open batch");
  in_batch_ = false;
  repair_staged();
}

HfcTopology::Staged& HfcTopology::stage(std::size_t cluster) {
  if (staged_.empty()) staged_.resize(clustering_.cluster_count());
  Staged& staged = staged_[cluster];
  if (!staged.touched) {
    staged.touched = true;
    touched_.push_back(cluster);
  }
  return staged;
}

std::vector<HfcTopology::PairWork> HfcTopology::staged_pairs() const {
  // Pairs whose stored border node left: few, so a sorted list.
  std::vector<std::pair<std::size_t, std::size_t>> rescans;
  for (const std::size_t t : touched_) {
    if (!live_[t]) continue;
    for (const std::size_t o : staged_[t].rescans) {
      if (live_[o]) rescans.emplace_back(std::min(t, o), std::max(t, o));
    }
  }
  std::sort(rescans.begin(), rescans.end());
  rescans.erase(std::unique(rescans.begin(), rescans.end()), rescans.end());

  const auto gained = [this](std::size_t g) {
    return !staged_[g].adds.empty();
  };
  std::vector<PairWork> work;
  for (const std::size_t t : touched_) {
    if (!live_[t] || !gained(t)) continue;
    const HierarchyGroup& parent = groups_[groups_[t].parent.idx()];
    for (const ClusterId sibling : parent.children) {
      const std::size_t o = sibling.idx();
      // A pair of two gaining clusters is the lower one's.
      if (o == t || !live_[o] || (gained(o) && o < t)) continue;
      const std::size_t a = std::min(t, o);
      const std::size_t b = std::max(t, o);
      work.push_back(PairWork{
          a, b, std::binary_search(rescans.begin(), rescans.end(),
                                   std::make_pair(a, b))});
    }
  }
  for (const auto& [a, b] : rescans) {
    if (!gained(a) && !gained(b)) work.push_back(PairWork{a, b, true});
  }
  return work;
}

void HfcTopology::build_boxes() {
  const std::size_t dim = coords_->dim();
  boxes_.resize(clustering_.cluster_count() * 2 * dim);
  for (std::size_t c = 0; c < clustering_.cluster_count(); ++c) {
    double* box = &boxes_[c * 2 * dim];
    std::fill(box, box + dim, std::numeric_limits<double>::infinity());
    std::fill(box + dim, box + 2 * dim,
              -std::numeric_limits<double>::infinity());
    for (const NodeId m : clustering_.members[c]) {
      widen_box(box, box + dim, (*coords_)[m.idx()]);
    }
  }
}

bool HfcTopology::beyond_box(NodeId node, std::size_t cluster,
                             double bound) const {
  const double* box = &boxes_[cluster * 2 * coords_->dim()];
  return box_distance(box, box + coords_->dim(), (*coords_)[node.idx()]) >
         bound;
}

bool HfcTopology::adds_beyond_boxes(const PairWork& work,
                                    std::uint64_t& rejects) const {
  if (!border_[slot(work.a, work.b)].valid()) return false;  // no incumbent
  const double length = length_[length_slot(work.a, work.b)];
  const auto beyond = [&](std::size_t from, std::size_t toward) {
    for (const NodeId x : staged_[from].adds) {
      if (!beyond_box(x, toward, length)) return false;
    }
    return true;
  };
  if (!beyond(work.a, work.b) || !beyond(work.b, work.a)) return false;
  rejects += staged_[work.a].adds.size() + staged_[work.b].adds.size();
  return true;
}

void HfcTopology::repair_staged() {
  if (touched_.empty()) return;
  HFC_TRACE_SPAN("churn.repair_borders");

  // Fold each touched cluster's mutation buffers into its index once,
  // before the parallel fan-out below — queries are const and never
  // rebuild, so this serial point is the only place set structure may
  // change. An untouched set was folded in the batch that last touched it.
  if (spatial_active()) {
    for (const std::size_t t : touched_) {
      if (live_[t]) cluster_sets_[t].maybe_rebuild();
    }
    if (boxes_.empty()) build_boxes();
  }

  static obs::Counter& rescans =
      obs::MetricsRegistry::global().counter("churn.border_rescans");
  static obs::Counter& add_scans =
      obs::MetricsRegistry::global().counter("churn.border_add_scans");
  static obs::Counter& box_rejects =
      obs::MetricsRegistry::global().counter("churn.border_box_rejects");
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");

  // An add-only pair whose additions all lie beyond the other side's box
  // keeps its incumbent without a query; only the rest fan out. Without
  // spatial sets there are no boxes.
  std::vector<PairWork> work = staged_pairs();
  std::uint64_t rejected = 0;
  if (spatial_active()) {
    std::erase_if(work, [&](const PairWork& w) {
      return !w.rescan && adds_beyond_boxes(w, rejected);
    });
  }

  // Each task owns one cluster pair and writes only its own output slot;
  // the shared border table and reference counts are applied serially
  // afterwards.
  std::vector<PairChoice> out(work.size());
  parallel_for(work.size(), 1, [&](std::size_t i) {
    const std::size_t a = work[i].a;
    const std::size_t b = work[i].b;
    QueryStats qs;
    out[i] = choose_border_pair(group_id(a), group_id(b), side(a), side(b),
                                distance_, work[i].rescan, qs);
    visited.add(qs.nodes_visited);
  });

  for (std::size_t i = 0; i < work.size(); ++i) {
    const std::size_t a = work[i].a;
    const std::size_t b = work[i].b;
    if (out[i].scan == PairScan::kFull) rescans.add(1);
    if (out[i].scan == PairScan::kAdds) add_scans.add(1);
    rejected += out[i].box_rejects;
    set_border(a, b, out[i].in_a);
    set_border(b, a, out[i].in_b);
    length_[length_slot(a, b)] = out[i].dist;
  }
  box_rejects.add(rejected);
  for (const std::size_t t : touched_) {
    staged_[t].adds.clear();
    staged_[t].rescans.clear();
    staged_[t].touched = false;
  }
  touched_.clear();
}

PairSide HfcTopology::side(std::size_t group) const {
  return PairSide{members(group_id(group)),
                  spatial_active() ? &cluster_sets_[group] : nullptr};
}

HfcTopology::PairChoice HfcTopology::choose_border_pair(
    ClusterId a, ClusterId b, PairSide side_a, PairSide side_b,
    const OverlayDistance& distance, bool rescan, QueryStats& stats) const {
  const std::vector<NodeId>& xs = side_a.members;
  const std::vector<NodeId>& ys = side_b.members;
  switch (selection_) {
    case BorderSelection::kClosestPair:
      break;
    case BorderSelection::kRandomPair: {
      // Deterministic pseudo-random pick keyed on the cluster pair, so
      // the ablation does not need to thread an Rng through here.
      const std::uint64_t h = splitmix64((a.idx() << 20) ^ b.idx());
      const NodeId x = xs[h % xs.size()];
      const NodeId y = ys[(h >> 20) % ys.size()];
      return PairChoice{x, y, PairScan::kNone, distance(x, y)};
    }
    case BorderSelection::kSingleHub:
      // Each cluster's lowest node id is its hub for every external link
      // — the classic "one logical node" aggregation the paper argues
      // against.
      return PairChoice{xs.front(), ys.front(), PairScan::kNone,
                        distance(xs.front(), ys.front())};
  }
  const NodeId cur_x = border_[slot(a.idx(), b.idx())];
  const NodeId cur_y = border_[slot(b.idx(), a.idx())];
  if (rescan || !cur_x.valid()) {
    // An end of the stored pair that is still a member, with its nearest
    // member across, is a real pair: it seeds the index search's bound.
    // (A scan visits every pair whatever its bound.)
    BcpResult seed;
    const auto still_in = [&](NodeId end, ClusterId cluster) {
      return side_a.set != nullptr && side_b.set != nullptr && end.valid() &&
             clustering_.assignment[end.idx()] == cluster;
    };
    if (still_in(cur_x, a)) {
      const SpatialHit hit = nearest_member(
          cur_x, side_b, std::numeric_limits<double>::infinity(), distance,
          stats);
      if (hit.found()) seed = BcpResult{cur_x.value(), hit.id, hit.dist};
    }
    if (still_in(cur_y, b)) {
      const auto to_b = [&distance](NodeId y, NodeId x) {
        return distance(x, y);
      };
      const SpatialHit hit = nearest_member(
          cur_y, side_a, std::numeric_limits<double>::infinity(), to_b, stats);
      if (hit.found() &&
          std::tuple(hit.dist, hit.id, cur_y.value()) <
              std::tuple(seed.dist, seed.x, seed.y)) {
        seed = BcpResult{hit.id, cur_y.value(), hit.dist};
      }
    }
    const BcpResult r =
        closest_pair(side_a, side_b, distance, stats, AcceptAll{}, seed);
    ensure(r.found(), "HfcTopology: border selection failed");
    return PairChoice{NodeId(r.x), NodeId(r.y), PairScan::kFull, r.dist};
  }
  // The incumbent pair is still the argmin over the surviving old
  // members; only the additions can beat it, one nearest-member query
  // per added node in staged order. Each query keeps only a strictly
  // closer member, so a tie never displaces the incumbent, and an
  // addition beyond the other side's box cannot beat it.
  PairChoice best{cur_x, cur_y, PairScan::kAdds,
                  length_[length_slot(a.idx(), b.idx())]};
  for (const NodeId x : staged_[a.idx()].adds) {
    if (spatial_active() && beyond_box(x, b.idx(), best.dist)) {
      ++best.box_rejects;
      continue;
    }
    const SpatialHit hit =
        nearest_member(x, side_b, best.dist, distance, stats);
    if (hit.found()) {
      best.in_a = x;
      best.in_b = NodeId(hit.id);
      best.dist = hit.dist;
    }
  }
  // Added nodes of b are the scan's `q`; keep distance's (a, b) order.
  const auto to_b = [&distance](NodeId y, NodeId x) { return distance(x, y); };
  for (const NodeId y : staged_[b.idx()].adds) {
    if (spatial_active() && beyond_box(y, a.idx(), best.dist)) {
      ++best.box_rejects;
      continue;
    }
    const SpatialHit hit = nearest_member(y, side_a, best.dist, to_b, stats);
    if (hit.found()) {
      best.in_a = NodeId(hit.id);
      best.in_b = y;
      best.dist = hit.dist;
    }
  }
  return best;
}

}  // namespace hfc
