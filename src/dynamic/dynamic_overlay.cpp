#include "dynamic/dynamic_overlay.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/require.h"

namespace hfc {

namespace {

obs::Counter& churn_events_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("churn.events");
  return c;
}

obs::Counter& full_rebuilds_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("churn.full_rebuilds");
  return c;
}

/// Mean intra-cluster pairwise coordinate distance over active nodes with
/// the given labels (label < 0 = inactive). 0 when no intra pair exists.
double intra_cluster_cost(const std::vector<Point>& coords,
                          const std::vector<std::int32_t>& labels) {
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (labels[i] < 0) continue;
    for (std::size_t j = i + 1; j < coords.size(); ++j) {
      if (labels[j] != labels[i]) continue;
      sum += euclidean(coords[i], coords[j]);
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

}  // namespace

DynamicHfcOverlay::DynamicHfcOverlay(std::vector<Point> coords,
                                     ServicePlacement placement,
                                     ZahnParams zahn,
                                     BorderSelection selection,
                                     ChurnMode /*mode*/)
    : coords_(std::move(coords)),
      placement_(std::move(placement)),
      zahn_(zahn),
      selection_(selection) {
  require(coords_.size() == placement_.size(),
          "DynamicHfcOverlay: coords/placement size mismatch");
  require(!coords_.empty(), "DynamicHfcOverlay: empty universe");
  active_.assign(coords_.size(), true);
  active_count_ = coords_.size();
  labels_.assign(coords_.size(), -1);
  dist_ = std::make_unique<CoordDistanceService>(coords_);
  restructure();
}

bool DynamicHfcOverlay::is_active(NodeId node) const {
  require(node.valid() && node.idx() < active_.size(),
          "DynamicHfcOverlay::is_active: bad node");
  return active_[node.idx()];
}

void DynamicHfcOverlay::do_deactivate(NodeId node) {
  require(is_active(node), "DynamicHfcOverlay::deactivate: node not active");
  require(active_count_ > 1,
          "DynamicHfcOverlay::deactivate: cannot empty the overlay");
  inc_topo_->on_member_removed(node);
  if (spatial_join_) {
    active_set_.erase(node.value());
    active_set_.maybe_rebuild();
  }
  active_[node.idx()] = false;
  labels_[node.idx()] = -1;
  --active_count_;
  ++mutations_since_restructure_;
  ++active_generation_;
  dirty_ = true;
}

void DynamicHfcOverlay::do_activate(NodeId node) {
  require(node.valid() && node.idx() < active_.size(),
          "DynamicHfcOverlay::activate: bad node");
  require(!active_[node.idx()],
          "DynamicHfcOverlay::activate: node already active");
  // Paper's join rule: enter the cluster of the nearest active proxy. The
  // brute scan goes through the coordinate distance tier (bit-equal to
  // the raw euclidean); the spatial path queries the active set, whose
  // (distance, id) tie-break matches the ascending strict-`<` scan
  // exactly.
  static obs::Counter& join_candidates =
      obs::MetricsRegistry::global().counter("churn.join_candidates");
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");
  std::int32_t label = -1;
  if (spatial_join_) {
    QueryStats qs;
    const SpatialHit hit = active_set_.nearest(
        coords_[node.idx()], std::numeric_limits<double>::infinity(), qs);
    ensure(hit.found(), "DynamicHfcOverlay::activate: no active neighbour");
    label = labels_[static_cast<std::size_t>(hit.id)];
    join_candidates.add(qs.point_evals);
    visited.add(qs.nodes_visited);
  } else {
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t evals = 0;
    for (std::size_t v = 0; v < coords_.size(); ++v) {
      if (!active_[v]) continue;
      const double d = dist_->at(node.idx(), v);
      ++evals;
      if (d < best) {
        best = d;
        label = labels_[v];
      }
    }
    join_candidates.add(evals);
  }
  ensure(label >= 0, "DynamicHfcOverlay::activate: no active neighbour");
  active_[node.idx()] = true;
  labels_[node.idx()] = label;
  ++active_count_;
  ++mutations_since_restructure_;
  ++active_generation_;
  if (spatial_join_) {
    active_set_.insert(node.value());
    active_set_.maybe_rebuild();
  }
  inc_topo_->on_member_added(node, ClusterId(label));
  dirty_ = true;
}

NodeId DynamicHfcOverlay::do_add(Point coords,
                                 std::vector<ServiceId> services) {
  require(coords.size() == coords_.front().size(),
          "DynamicHfcOverlay::add_proxy: dimension mismatch");
  require(std::is_sorted(services.begin(), services.end()),
          "DynamicHfcOverlay::add_proxy: services must be sorted");
  inc_net_->add_node(coords, services);
  inc_topo_->append_node();
  dist_->append(coords);
  coords_.push_back(std::move(coords));
  placement_.push_back(std::move(services));
  active_.push_back(false);
  labels_.push_back(-1);
  const NodeId node(static_cast<std::int32_t>(coords_.size() - 1));
  do_activate(node);
  return node;
}

void DynamicHfcOverlay::deactivate(NodeId node) {
  churn_events_counter().add(1);
  do_deactivate(node);
}

void DynamicHfcOverlay::activate(NodeId node) {
  churn_events_counter().add(1);
  do_activate(node);
}

NodeId DynamicHfcOverlay::add_proxy(Point coords,
                                    std::vector<ServiceId> services) {
  churn_events_counter().add(1);
  return do_add(std::move(coords), std::move(services));
}

std::vector<NodeId> DynamicHfcOverlay::apply(
    std::span<const ChurnEvent> events) {
  churn_events_counter().add(events.size());
  std::vector<NodeId> added;
  const bool batch = events.size() > 1;
  if (batch) inc_topo_->begin_mutation_batch();
  try {
    for (const ChurnEvent& event : events) {
      switch (event.kind) {
        case ChurnEvent::Kind::kActivate:
          do_activate(event.node);
          break;
        case ChurnEvent::Kind::kDeactivate:
          do_deactivate(event.node);
          break;
        case ChurnEvent::Kind::kAdd:
          added.push_back(do_add(event.coords, event.services));
          break;
      }
    }
  } catch (...) {
    // Keep the already-applied prefix consistent: run its repairs.
    if (batch) inc_topo_->end_mutation_batch();
    throw;
  }
  if (batch) inc_topo_->end_mutation_batch();
  return added;
}

double DynamicHfcOverlay::clustering_quality() const {
  if (quality_valid_ && quality_gen_ == active_generation_) {
    return quality_cache_;
  }
  static obs::Counter& computes =
      obs::MetricsRegistry::global().counter("churn.quality_computes");
  computes.add(1);
  // Fresh Zahn over the active set.
  std::vector<Point> active_coords;
  std::vector<std::size_t> dense_to_universe;
  for (std::size_t v = 0; v < coords_.size(); ++v) {
    if (active_[v]) {
      active_coords.push_back(coords_[v]);
      dense_to_universe.push_back(v);
    }
  }
  const Clustering fresh = cluster_points(active_coords, zahn_);
  std::vector<std::int32_t> fresh_labels(coords_.size(), -1);
  for (std::size_t d = 0; d < dense_to_universe.size(); ++d) {
    fresh_labels[dense_to_universe[d]] = fresh.assignment[d].value();
  }
  const double fresh_cost = intra_cluster_cost(coords_, fresh_labels);
  const double current_cost = intra_cluster_cost(coords_, labels_);
  quality_cache_ =
      current_cost == 0.0 ? 1.0 : fresh_cost / current_cost;
  quality_gen_ = active_generation_;
  quality_valid_ = true;
  return quality_cache_;
}

void DynamicHfcOverlay::restructure() {
  std::vector<Point> active_coords;
  std::vector<std::size_t> dense_to_universe;
  for (std::size_t v = 0; v < coords_.size(); ++v) {
    if (active_[v]) {
      active_coords.push_back(coords_[v]);
      dense_to_universe.push_back(v);
    }
  }
  const Clustering fresh = cluster_points(active_coords, zahn_);
  for (std::size_t d = 0; d < dense_to_universe.size(); ++d) {
    labels_[dense_to_universe[d]] = fresh.assignment[d].value();
  }
  mutations_since_restructure_ = 0;
  ++active_generation_;
  spatial_join_ = spatial_enabled(coords_.size());
  if (spatial_join_) {
    std::vector<std::int32_t> active_ids;
    active_ids.reserve(active_count_);
    for (std::size_t v = 0; v < coords_.size(); ++v) {
      if (active_[v]) active_ids.push_back(static_cast<std::int32_t>(v));
    }
    active_set_.bulk_load(coords_, std::move(active_ids));
  } else {
    active_set_ = DynamicSpatialSet{};
  }
  dirty_ = true;
  build_universe_state();
}

void DynamicHfcOverlay::build_universe_state() {
  HFC_TRACE_SPAN("churn.full_rebuild");
  full_rebuilds_counter().add(1);
  // Universe-level clustering: fresh Zahn labels are dense 0..C-1, so a
  // label IS the topology cluster slot id; inactive nodes stay unassigned.
  Clustering clustering;
  clustering.assignment.assign(coords_.size(), ClusterId{});
  std::int32_t max_label = -1;
  for (std::size_t v = 0; v < coords_.size(); ++v) {
    max_label = std::max(max_label, labels_[v]);
  }
  clustering.members.resize(static_cast<std::size_t>(max_label + 1));
  for (std::size_t v = 0; v < coords_.size(); ++v) {
    if (labels_[v] < 0) continue;
    clustering.assignment[v] = ClusterId(labels_[v]);
    clustering.members[static_cast<std::size_t>(labels_[v])].push_back(
        NodeId(static_cast<std::int32_t>(v)));
  }
  inc_router_.reset();
  inc_topo_.reset();
  inc_net_.reset();
  inc_net_ = std::make_unique<OverlayNetwork>(coords_, placement_);
  inc_topo_ =
      std::make_unique<HfcTopology>(std::move(clustering), *dist_, selection_);
  inc_router_ =
      std::make_unique<HierarchicalServiceRouter>(*inc_net_, *inc_topo_,
                                                  *dist_);
}

void DynamicHfcOverlay::rebuild_if_dirty() {
  if (!dirty_) return;
  HFC_TRACE_SPAN("churn.view_rebuild");
  full_rebuilds_counter().add(1);
  // Dense view of the active set, in ascending universe order.
  std::vector<std::int32_t> view_labels;
  std::vector<Point> view_coords;
  ServicePlacement view_placement;
  for (std::size_t v = 0; v < coords_.size(); ++v) {
    if (!active_[v]) continue;
    view_labels.push_back(labels_[v]);
    view_coords.push_back(coords_[v]);
    view_placement.push_back(placement_[v]);
  }

  // Densify the maintained cluster labels (universe labels can have holes
  // after leaves empty a cluster). Compaction is by ascending label value,
  // so the dense cluster ids keep the same relative order as the
  // universe topology's live slot ids — together with the router's
  // canonical state-key tie-breaking this makes a router over the view
  // resolve exact-cost CSP ties to the same route as the universe router.
  std::vector<std::int32_t> distinct_labels = view_labels;
  std::sort(distinct_labels.begin(), distinct_labels.end());
  distinct_labels.erase(
      std::unique(distinct_labels.begin(), distinct_labels.end()),
      distinct_labels.end());
  Clustering clustering;
  clustering.assignment.resize(view_labels.size());
  for (std::size_t d = 0; d < view_labels.size(); ++d) {
    const std::int32_t label = view_labels[d];
    const auto it = std::lower_bound(distinct_labels.begin(),
                                     distinct_labels.end(), label);
    clustering.assignment[d] = ClusterId(
        static_cast<std::int32_t>(it - distinct_labels.begin()));
  }
  clustering.members.resize(distinct_labels.size());
  for (std::size_t d = 0; d < clustering.assignment.size(); ++d) {
    clustering.members[clustering.assignment[d].idx()].push_back(
        NodeId(static_cast<std::int32_t>(d)));
  }

  view_topo_.reset();
  view_net_.reset();
  view_dist_ = std::make_unique<CoordDistanceService>(view_coords);
  view_net_ = std::make_unique<OverlayNetwork>(std::move(view_coords),
                                               std::move(view_placement));
  view_topo_ = std::make_unique<HfcTopology>(std::move(clustering),
                                             *view_dist_, selection_);
  dirty_ = false;
}

ServicePath DynamicHfcOverlay::route(const ServiceRequest& request) {
  require(is_active(request.source) && is_active(request.destination),
          "DynamicHfcOverlay::route: endpoints must be active");
  // Universe-level routing: no id remapping, no rebuild. Only SCT_C
  // entries of clusters whose generation moved are re-derived.
  inc_router_->sync_with_topology();
  return inc_router_->route(request);
}

ServicePath DynamicHfcOverlay::route_degraded(const ServiceRequest& request,
                                              std::function<bool(NodeId)> up) {
  require(is_active(request.source) && is_active(request.destination),
          "DynamicHfcOverlay::route_degraded: endpoints must be active");
  require(static_cast<bool>(up),
          "DynamicHfcOverlay::route_degraded: null predicate");
  require(up(request.source) && up(request.destination),
          "DynamicHfcOverlay::route_degraded: endpoints must be up");
  inc_router_->sync_with_topology();
  return inc_router_->route_degraded(request, std::move(up)).path;
}

std::size_t DynamicHfcOverlay::cluster_count() {
  return inc_topo_->live_cluster_count();
}

std::vector<std::vector<NodeId>> DynamicHfcOverlay::active_partition() {
  std::vector<std::vector<NodeId>> out;
  for (std::size_t c = 0; c < inc_topo_->cluster_count(); ++c) {
    const ClusterId id(static_cast<std::int32_t>(c));
    if (!inc_topo_->live(id)) continue;
    out.push_back(inc_topo_->members(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<NodeId, NodeId>> DynamicHfcOverlay::border_pairs() {
  std::vector<std::pair<NodeId, NodeId>> out;
  const std::size_t count = inc_topo_->cluster_count();
  for (std::size_t a = 0; a < count; ++a) {
    const ClusterId ca(static_cast<std::int32_t>(a));
    if (!inc_topo_->live(ca)) continue;
    for (std::size_t b = a + 1; b < count; ++b) {
      const ClusterId cb(static_cast<std::int32_t>(b));
      if (!inc_topo_->live(cb)) continue;
      const NodeId u = inc_topo_->border(ca, cb);
      const NodeId v = inc_topo_->border(cb, ca);
      out.push_back(u < v ? std::make_pair(u, v) : std::make_pair(v, u));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

const OverlayNetwork& DynamicHfcOverlay::universe_network() const {
  return *inc_net_;
}

const HfcTopology& DynamicHfcOverlay::universe_topology() const {
  return *inc_topo_;
}

const CoordDistanceService& DynamicHfcOverlay::universe_distance() const {
  return *dist_;
}

HierarchicalServiceRouter& DynamicHfcOverlay::universe_router() {
  inc_router_->sync_with_topology();
  return *inc_router_;
}

const HfcTopology& DynamicHfcOverlay::view_topology() {
  rebuild_if_dirty();
  return *view_topo_;
}

const OverlayNetwork& DynamicHfcOverlay::view_network() {
  rebuild_if_dirty();
  return *view_net_;
}

}  // namespace hfc
