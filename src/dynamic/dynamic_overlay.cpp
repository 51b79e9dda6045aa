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

/// Mean intra-cluster pairwise coordinate distance over the nodes with a
/// valid cluster in `labels` (inactive nodes have none). 0 when no intra
/// pair exists.
double intra_cluster_cost(const PointSet& coords,
                          const std::vector<ClusterId>& labels) {
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!labels[i].valid()) continue;
    for (std::size_t j = i + 1; j < coords.size(); ++j) {
      if (labels[j] != labels[i]) continue;
      sum += euclidean(coords[i], coords[j]);
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

}  // namespace

DynamicHfcOverlay::DynamicHfcOverlay(PointSet coords,
                                     ServicePlacement placement,
                                     ZahnParams zahn,
                                     BorderSelection selection,
                                     ChurnMode /*mode*/)
    : zahn_(zahn), selection_(selection) {
  require(coords.size() == placement.size(),
          "DynamicHfcOverlay: coords/placement size mismatch");
  require(!coords.empty(), "DynamicHfcOverlay: empty universe");
  active_.assign(coords.size(), true);
  active_count_ = coords.size();
  inc_net_ = std::make_unique<OverlayNetwork>(coords, placement);
  dist_ = std::make_unique<CoordDistanceService>(std::move(coords));
  restructure();
}

const PointSet& DynamicHfcOverlay::coords() const { return dist_->coords(); }

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
  active_set_.erase(node.value());
  active_set_.maybe_rebuild();
  active_[node.idx()] = false;
  --active_count_;
  ++mutations_since_restructure_;
  ++active_generation_;
}

void DynamicHfcOverlay::do_activate(NodeId node) {
  require(node.valid() && node.idx() < active_.size(),
          "DynamicHfcOverlay::activate: bad node");
  require(!active_[node.idx()],
          "DynamicHfcOverlay::activate: node already active");
  // Paper's join rule: enter the cluster of the nearest active proxy.
  // The active set's (distance, id) tie-break is the smallest-id
  // nearest, exactly what an ascending strict-`<` scan would keep.
  static obs::Counter& join_candidates =
      obs::MetricsRegistry::global().counter("churn.join_candidates");
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");
  QueryStats qs;
  const SpatialHit hit = active_set_.nearest(
      coords()[node.idx()], std::numeric_limits<double>::infinity(), qs);
  ensure(hit.found(), "DynamicHfcOverlay::activate: no active neighbour");
  const ClusterId cluster = inc_topo_->cluster_of(NodeId(hit.id));
  join_candidates.add(qs.point_evals);
  visited.add(qs.nodes_visited);
  ensure(cluster.valid(), "DynamicHfcOverlay::activate: no active neighbour");
  active_[node.idx()] = true;
  ++active_count_;
  ++mutations_since_restructure_;
  ++active_generation_;
  active_set_.insert(node.value());
  active_set_.maybe_rebuild();
  inc_topo_->on_member_added(node, cluster);
}

NodeId DynamicHfcOverlay::do_add(const Point& coords,
                                 std::span<const ServiceId> services) {
  // The network checks the dimension and the order before any change.
  inc_net_->add_node(coords, services);
  inc_topo_->append_node();
  dist_->append(coords);
  active_.push_back(false);
  const NodeId node(static_cast<std::int32_t>(active_.size() - 1));
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
  return do_add(coords, services);
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
  const std::vector<std::size_t> dense_to_universe = active_ids();
  const Clustering fresh =
      cluster_points(coords().subset(dense_to_universe), zahn_);
  std::vector<ClusterId> fresh_labels(active_.size(), ClusterId{});
  for (std::size_t d = 0; d < dense_to_universe.size(); ++d) {
    fresh_labels[dense_to_universe[d]] = fresh.assignment[d];
  }
  const double fresh_cost = intra_cluster_cost(coords(), fresh_labels);
  const double current_cost =
      intra_cluster_cost(coords(), inc_topo_->clustering().assignment);
  quality_cache_ =
      current_cost == 0.0 ? 1.0 : fresh_cost / current_cost;
  quality_gen_ = active_generation_;
  quality_valid_ = true;
  return quality_cache_;
}

std::vector<std::size_t> DynamicHfcOverlay::active_ids() const {
  std::vector<std::size_t> ids;
  ids.reserve(active_count_);
  for (std::size_t v = 0; v < active_.size(); ++v) {
    if (active_[v]) ids.push_back(v);
  }
  return ids;
}

void DynamicHfcOverlay::restructure() {
  const std::vector<std::size_t> dense_to_universe = active_ids();
  const Clustering fresh =
      cluster_points(coords().subset(dense_to_universe), zahn_);
  // Universe-level clustering: fresh Zahn ids are dense 0..C-1 and become
  // the topology's cluster slot ids; inactive nodes stay unassigned. The
  // ascending dense-to-universe map keeps every member list ascending.
  Clustering clustering;
  clustering.assignment.assign(active_.size(), ClusterId{});
  clustering.members.resize(fresh.cluster_count());
  for (std::size_t d = 0; d < dense_to_universe.size(); ++d) {
    const NodeId node(static_cast<std::int32_t>(dense_to_universe[d]));
    clustering.assignment[node.idx()] = fresh.assignment[d];
    clustering.members[fresh.assignment[d].idx()].push_back(node);
  }
  mutations_since_restructure_ = 0;
  ++active_generation_;
  active_set_.bulk_load(coords(), std::vector<std::int32_t>(
                                      dense_to_universe.begin(),
                                      dense_to_universe.end()));
  build_universe_state(std::move(clustering));
}

void DynamicHfcOverlay::build_universe_state(Clustering clustering) {
  HFC_TRACE_SPAN("churn.full_rebuild");
  full_rebuilds_counter().add(1);
  inc_router_.reset();
  inc_topo_.reset();
  inc_topo_ =
      std::make_unique<HfcTopology>(std::move(clustering), *dist_, selection_);
  inc_router_ =
      std::make_unique<HierarchicalServiceRouter>(*inc_net_, *inc_topo_,
                                                  *dist_);
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

HierarchicalServiceRouter& DynamicHfcOverlay::universe_router() {
  inc_router_->sync_with_topology();
  return *inc_router_;
}

}  // namespace hfc
