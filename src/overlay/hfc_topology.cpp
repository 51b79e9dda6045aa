#include "overlay/hfc_topology.h"

#include <algorithm>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/require.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {

HfcTopology::HfcTopology(Clustering clustering,
                         const DistanceService& distance,
                         BorderSelection selection)
    : clustering_(std::move(clustering)),
      distance_(distance.fn()),
      selection_(selection) {
  // Spatial acceleration only applies to the closest-pair rule (the
  // other strategies never scan candidate pairs) and only when the
  // service's distances *are* euclidean() over an exposed coordinate
  // array — index pruning is unsound for any other metric.
  const PointSet* coords = distance.coord_view();
  if (selection == BorderSelection::kClosestPair && coords != nullptr &&
      spatial_enabled(clustering_.node_count())) {
    coords_ = coords;
    cluster_sets_.resize(clustering_.cluster_count());
    for (std::size_t ci = 0; ci < clustering_.cluster_count(); ++ci) {
      std::vector<std::int32_t> ids;
      ids.reserve(clustering_.members[ci].size());
      for (const NodeId m : clustering_.members[ci]) ids.push_back(m.value());
      cluster_sets_[ci].bulk_load(*coords_, std::move(ids));
    }
  }
  build_borders();
}

HfcTopology::HfcTopology(Clustering clustering,
                         const OverlayDistance& distance,
                         BorderSelection selection)
    : clustering_(std::move(clustering)),
      distance_(distance),
      selection_(selection) {
  require(static_cast<bool>(distance), "HfcTopology: null distance");
  build_borders();
}

void HfcTopology::build_borders() {
  HFC_TRACE_SPAN("topology.select_borders");
  require(clustering_.cluster_count() >= 1, "HfcTopology: empty clustering");
  const std::size_t c = clustering_.cluster_count();
  border_.assign(c * c, NodeId{});
  border_refs_.assign(clustering_.node_count(), 0);
  live_.assign(c, true);
  live_count_ = c;
  generation_.assign(c, 0);
  border_epoch_.assign(c, 0);

  // The O(C^2) cluster pairs are independent: pair (a, b) scans
  // |a| * |b| candidate links and writes only its own two border slots,
  // so the selection sweep — the O(n^2)-ish hot spot of the topology
  // build — runs as one parallel task per pair, straight into border_.
  // Flattened pair index -> (a, b) keeps the task space dense. The
  // shared `border_refs_` counts are applied in a serial pass afterwards
  // (two pairs can pick the same node, so concurrent increments race).
  const std::size_t pair_count = c * (c - 1) / 2;
  static obs::Counter& pairs =
      obs::MetricsRegistry::global().counter("topology.border_pairs");
  static obs::Counter& candidates =
      obs::MetricsRegistry::global().counter("topology.candidate_links");
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");
  parallel_for(pair_count, 4, [&](std::size_t pair) {
    // Invert pair = a * c - a * (a + 1) / 2 + (b - a - 1) by scanning
    // rows; c is at most a few hundred, so this is negligible next to
    // the member scan.
    std::size_t a = 0;
    std::size_t row_start = 0;
    while (row_start + (c - a - 1) <= pair) {
      row_start += c - a - 1;
      ++a;
    }
    const std::size_t b = a + 1 + (pair - row_start);
    pairs.add(1);
    // Both counters report *actual* work: the candidate-pair reduction
    // vs the brute |a|·|b| count is the headline number of
    // BENCH_topology_scaling.json.
    QueryStats qs;
    const PairChoice pick = choose_border_pair(a, b, /*rescan=*/true, qs);
    candidates.add(qs.point_evals);
    visited.add(qs.nodes_visited);
    border_[a * c + b] = pick.in_a;
    border_[b * c + a] = pick.in_b;
  });

  for (std::size_t a = 0; a + 1 < c; ++a) {
    for (std::size_t b = a + 1; b < c; ++b) {
      ++border_refs_[border_[a * c + b].idx()];
      ++border_refs_[border_[b * c + a].idx()];
    }
  }

  for (std::size_t v = 0; v < border_refs_.size(); ++v) {
    if (border_refs_[v] > 0) {
      all_borders_.push_back(NodeId(static_cast<std::int32_t>(v)));
    }
  }
}

const std::vector<NodeId>& HfcTopology::members(ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < clustering_.cluster_count(),
          "HfcTopology::members: bad cluster");
  return clustering_.members[cluster.idx()];
}

NodeId HfcTopology::border(ClusterId from, ClusterId toward) const {
  const std::size_t c = clustering_.cluster_count();
  require(from.valid() && from.idx() < c, "HfcTopology::border: bad 'from'");
  require(toward.valid() && toward.idx() < c,
          "HfcTopology::border: bad 'toward'");
  require(from != toward, "HfcTopology::border: same cluster");
  return border_[from.idx() * c + toward.idx()];
}

double HfcTopology::external_length(ClusterId a, ClusterId b) const {
  const std::size_t c = clustering_.cluster_count();
  require(a.valid() && a.idx() < c && b.valid() && b.idx() < c,
          "HfcTopology::external_length: bad cluster");
  require(a != b, "HfcTopology::external_length: same cluster");
  // Derived on demand: same functor, same border pair as at build time,
  // so the value is bit-equal to the matrix entry this used to store.
  return distance_(border_[a.idx() * c + b.idx()],
                   border_[b.idx() * c + a.idx()]);
}

CspLink HfcTopology::link(ClusterId from, ClusterId toward) const {
  const std::size_t c = clustering_.cluster_count();
  require(from.valid() && from.idx() < c && toward.valid() && toward.idx() < c,
          "HfcTopology::link: bad cluster");
  if (from == toward || !live_[from.idx()] || !live_[toward.idx()]) return {};
  const NodeId exit = border_[from.idx() * c + toward.idx()];
  const NodeId entry = border_[toward.idx() * c + from.idx()];
  return {exit, entry,
          from < toward ? distance_(exit, entry) : distance_(entry, exit),
          true};
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

double HfcTopology::path_distance(NodeId u, NodeId v,
                                  const OverlayDistance& distance) const {
  const ClusterId cu = cluster_of(u);
  const ClusterId cv = cluster_of(v);
  if (cu == cv) return distance(u, v);
  const NodeId bu = border(cu, cv);
  const NodeId bv = border(cv, cu);
  double total = distance(bu, bv);
  if (u != bu) total += distance(u, bu);
  if (v != bv) total += distance(bv, v);
  return total;
}

std::vector<NodeId> HfcTopology::hop_path(NodeId u, NodeId v) const {
  const ClusterId cu = cluster_of(u);
  const ClusterId cv = cluster_of(v);
  std::vector<NodeId> path{u};
  if (cu != cv) {
    const NodeId bu = border(cu, cv);
    const NodeId bv = border(cv, cu);
    if (bu != u) path.push_back(bu);
    if (bv != v) path.push_back(bv);
  }
  if (path.back() != v) path.push_back(v);
  return path;
}

NodeKnowledge HfcTopology::knowledge_of(NodeId node) const {
  NodeKnowledge k;
  k.own_cluster = cluster_of(node);
  k.cluster_members = members(k.own_cluster);
  const std::vector<NodeId>& borders = all_borders();
  k.visible_borders = borders;
  k.coordinate_set = k.cluster_members;
  k.coordinate_set.insert(k.coordinate_set.end(), borders.begin(),
                          borders.end());
  std::sort(k.coordinate_set.begin(), k.coordinate_set.end());
  k.coordinate_set.erase(
      std::unique(k.coordinate_set.begin(), k.coordinate_set.end()),
      k.coordinate_set.end());
  return k;
}

std::size_t HfcTopology::coordinate_state_count(NodeId node) const {
  // |own cluster ∪ all borders|: borders inside the node's own cluster are
  // stored once, not twice.
  const std::vector<NodeId>& own = members(cluster_of(node));
  std::size_t overlap = 0;
  for (NodeId m : own) {
    if (border_refs_[m.idx()] > 0) ++overlap;
  }
  return own.size() + all_borders().size() - overlap;
}

std::size_t HfcTopology::service_state_count(NodeId node) const {
  return members(cluster_of(node)).size() + live_cluster_count();
}

std::size_t HfcTopology::spatial_resident_bytes() const {
  std::size_t bytes = 0;
  for (const DynamicSpatialSet& s : cluster_sets_) {
    bytes += s.resident_bytes();
  }
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
  copy->border_ = border_;
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
  set_border(a.idx() * c + b.idx(), in_a);
  set_border(b.idx() * c + a.idx(), in_b);
}

// ---------------------------------------------------------------------
// Incremental membership maintenance (DESIGN.md §9).

std::size_t HfcTopology::pair_key(std::size_t a, std::size_t b) const {
  const std::size_t c = clustering_.cluster_count();
  return a < b ? a * c + b : b * c + a;
}

void HfcTopology::set_border(std::size_t slot, NodeId node) {
  const NodeId old = border_[slot];
  if (old == node) return;
  if (old.valid()) --border_refs_[old.idx()];
  if (node.valid()) ++border_refs_[node.idx()];
  border_[slot] = node;
  borders_dirty_ = true;
  // The pair's external view changed for both sides: entering through
  // either cluster now crosses a different node / link length.
  const std::size_t c = clustering_.cluster_count();
  ++border_epoch_[slot / c];
  ++border_epoch_[slot % c];
}

void HfcTopology::kill_cluster(std::size_t cluster) {
  const std::size_t c = clustering_.cluster_count();
  live_[cluster] = false;
  --live_count_;
  if (spatial_active()) cluster_sets_[cluster] = DynamicSpatialSet{};
  for (std::size_t o = 0; o < c; ++o) {
    if (o == cluster || !live_[o]) continue;
    set_border(cluster * c + o, NodeId{});
    set_border(o * c + cluster, NodeId{});
  }
  touched_.erase(cluster);
  staged_adds_.erase(cluster);
}

void HfcTopology::append_node() {
  clustering_.assignment.push_back(ClusterId{});
  border_refs_.push_back(0);
}

void HfcTopology::on_member_added(NodeId node, ClusterId cluster) {
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
  if (spatial_active()) cluster_sets_[cluster.idx()].insert(node.value());
  ++generation_[cluster.idx()];
  ++structure_generation_;
  touched_.insert(cluster.idx());
  staged_adds_[cluster.idx()].push_back(node);
  if (!in_batch_) repair_staged();
}

void HfcTopology::on_member_removed(NodeId node) {
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
  // If the node joined earlier in this batch it is no longer an add.
  if (const auto it = staged_adds_.find(ci); it != staged_adds_.end()) {
    std::vector<NodeId>& adds = it->second;
    adds.erase(std::remove(adds.begin(), adds.end(), node), adds.end());
  }
  if (ms.empty()) {
    kill_cluster(ci);
  } else {
    touched_.insert(ci);
    // A removed border node invalidates its pair's stored closest pair;
    // removing any other member leaves the pair's argmin intact.
    const std::size_t c = clustering_.cluster_count();
    for (std::size_t o = 0; o < c; ++o) {
      if (o == ci || !live_[o]) continue;
      if (border_[ci * c + o] == node) full_pairs_.insert(pair_key(ci, o));
    }
  }
  if (!in_batch_) repair_staged();
}

void HfcTopology::begin_mutation_batch() {
  require(!in_batch_, "HfcTopology::begin_mutation_batch: already open");
  in_batch_ = true;
}

void HfcTopology::end_mutation_batch() {
  require(in_batch_, "HfcTopology::end_mutation_batch: no open batch");
  in_batch_ = false;
  repair_staged();
}

void HfcTopology::repair_staged() {
  if (touched_.empty() && full_pairs_.empty()) {
    staged_adds_.clear();
    return;
  }
  HFC_TRACE_SPAN("churn.repair_borders");
  const std::size_t c = clustering_.cluster_count();

  // Distinct live cluster pairs needing work: a pair repairs when either
  // side gained members or its stored border was removed.
  const auto has_adds = [this](std::size_t slot) {
    const auto it = staged_adds_.find(slot);
    return it != staged_adds_.end() && !it->second.empty();
  };
  std::vector<std::size_t> pairs;
  std::unordered_set<std::size_t> seen;
  for (const std::size_t t : touched_) {
    if (!live_[t]) continue;
    for (std::size_t o = 0; o < c; ++o) {
      if (o == t || !live_[o]) continue;
      const std::size_t key = pair_key(t, o);
      if (!full_pairs_.contains(key) && !has_adds(t) && !has_adds(o)) {
        continue;  // O(1): a non-border leave does not move the pair
      }
      if (seen.insert(key).second) pairs.push_back(key);
    }
  }
  std::sort(pairs.begin(), pairs.end());

  // Fold mutation buffers into the per-cluster indexes *before* the
  // parallel fan-out below — queries are const and never rebuild, so
  // this serial point is the only place set structure may change.
  if (spatial_active()) {
    for (const std::size_t key : pairs) {
      cluster_sets_[key / c].maybe_rebuild();
      cluster_sets_[key % c].maybe_rebuild();
    }
  }

  static obs::Counter& rescans =
      obs::MetricsRegistry::global().counter("churn.border_rescans");
  static obs::Counter& add_scans =
      obs::MetricsRegistry::global().counter("churn.border_add_scans");
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");

  // Each task owns one cluster pair and writes only its own output slot;
  // the shared border table and reference counts are applied serially
  // afterwards.
  struct Repair {
    std::size_t a = 0;
    std::size_t b = 0;
    NodeId border_a;
    NodeId border_b;
  };
  std::vector<Repair> out(pairs.size());
  parallel_for(pairs.size(), 1, [&](std::size_t i) {
    const std::size_t a = pairs[i] / c;
    const std::size_t b = pairs[i] % c;
    QueryStats qs;
    const PairChoice pick =
        choose_border_pair(a, b, full_pairs_.contains(pairs[i]), qs);
    if (pick.scan == PairScan::kFull) rescans.add(1);
    if (pick.scan == PairScan::kAdds) add_scans.add(1);
    visited.add(qs.nodes_visited);
    out[i] = Repair{a, b, pick.in_a, pick.in_b};
  });

  for (const Repair& r : out) {
    set_border(r.a * c + r.b, r.border_a);
    set_border(r.b * c + r.a, r.border_b);
  }
  staged_adds_.clear();
  touched_.clear();
  full_pairs_.clear();
}

PairSide HfcTopology::side(std::size_t cluster) const {
  return PairSide{clustering_.members[cluster],
                  spatial_active() ? &cluster_sets_[cluster] : nullptr};
}

HfcTopology::PairChoice HfcTopology::choose_border_pair(
    std::size_t a, std::size_t b, bool rescan, QueryStats& stats) const {
  const std::vector<NodeId>& xs = clustering_.members[a];
  const std::vector<NodeId>& ys = clustering_.members[b];
  switch (selection_) {
    case BorderSelection::kClosestPair:
      break;
    case BorderSelection::kRandomPair: {
      // Deterministic pseudo-random pick keyed on the cluster pair, so
      // the ablation does not need to thread an Rng through here.
      const std::uint64_t h = splitmix64((a << 20) ^ b);
      return PairChoice{xs[h % xs.size()], ys[(h >> 20) % ys.size()]};
    }
    case BorderSelection::kSingleHub:
      // Each cluster's lowest node id is its hub for every external link
      // — the classic "one logical node" aggregation the paper argues
      // against.
      return PairChoice{xs.front(), ys.front()};
  }
  const std::size_t c = clustering_.cluster_count();
  const NodeId cur_x = border_[a * c + b];
  const NodeId cur_y = border_[b * c + a];
  if (rescan || !cur_x.valid()) {
    const BcpResult r = closest_pair(side(a), side(b), distance_, stats);
    ensure(r.found(), "HfcTopology: border selection failed");
    return PairChoice{NodeId(r.x), NodeId(r.y), PairScan::kFull};
  }
  // The incumbent pair is still the argmin over the surviving old
  // members; only the additions can beat it, one nearest-member query
  // per added node in staged order. Each query keeps only a strictly
  // closer member, so a tie never displaces the incumbent.
  BcpResult best{cur_x.value(), cur_y.value(), distance_(cur_x, cur_y)};
  if (const auto it = staged_adds_.find(a); it != staged_adds_.end()) {
    for (const NodeId x : it->second) {
      const SpatialHit hit =
          nearest_member(x, side(b), best.dist, distance_, stats);
      if (hit.found()) best = BcpResult{x.value(), hit.id, hit.dist};
    }
  }
  if (const auto it = staged_adds_.find(b); it != staged_adds_.end()) {
    // Added nodes of b are the scan's `q`; keep distance_'s (a, b) order.
    const auto to_b = [this](NodeId y, NodeId x) { return distance_(x, y); };
    for (const NodeId y : it->second) {
      const SpatialHit hit =
          nearest_member(y, side(a), best.dist, to_b, stats);
      if (hit.found()) best = BcpResult{hit.id, y.value(), hit.dist};
    }
  }
  return PairChoice{NodeId(best.x), NodeId(best.y), PairScan::kAdds};
}

}  // namespace hfc
