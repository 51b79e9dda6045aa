#include "overlay/mesh_topology.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "spatial/kd_tree.h"
#include "util/require.h"

namespace hfc {

namespace {

/// Label connected components of an adjacency list; returns their count.
std::int32_t label_components(const std::vector<std::vector<NodeId>>& adj,
                              std::vector<std::int32_t>& component) {
  const std::size_t n = adj.size();
  component.assign(n, -1);
  std::int32_t comps = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (component[s] >= 0) continue;
    component[s] = comps;
    std::vector<std::size_t> stack{s};
    while (!stack.empty()) {
      const std::size_t x = stack.back();
      stack.pop_back();
      for (NodeId y : adj[x]) {
        if (component[y.idx()] < 0) {
          component[y.idx()] = comps;
          stack.push_back(y.idx());
        }
      }
    }
    ++comps;
  }
  return comps;
}

/// SpatialFilter excluding the query node itself; ctx is its id.
bool not_self(std::int32_t id, const void* ctx) {
  return id != *static_cast<const std::int32_t*>(ctx);
}

}  // namespace

MeshRouting::MeshRouting(std::vector<std::vector<NodeId>> adjacency,
                         OverlayDistance edge_distance,
                         std::size_t cache_rows)
    : adjacency_(std::move(adjacency)),
      edge_distance_(std::move(edge_distance)) {
  require(!adjacency_.empty(), "MeshRouting: empty mesh");
  require(static_cast<bool>(edge_distance_), "MeshRouting: null distance");
  auto& registry = obs::MetricsRegistry::global();
  const RowCache<SourceTree>::Counters counters{
      &registry.counter("distance.mesh_row_hits"),
      &registry.counter("distance.mesh_row_computes"),
      &registry.counter("distance.mesh_row_evictions")};
  // One source tree holds a delay and a predecessor per node.
  const std::size_t bytes_per_tree =
      adjacency_.size() * (sizeof(double) + sizeof(NodeId));
  cache_ = std::make_unique<RowCache<SourceTree>>(
      resolve_cache_rows(cache_rows, adjacency_.size()), bytes_per_tree,
      counters);
}

std::shared_ptr<const MeshRouting::SourceTree> MeshRouting::tree(
    std::size_t src) const {
  return cache_->get_or_compute(src, [this](std::size_t source) {
    const std::size_t n = adjacency_.size();
    SourceTree out;
    out.dist.assign(n, std::numeric_limits<double>::infinity());
    out.pred.assign(n, NodeId{});
    out.dist[source] = 0.0;
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > out.dist[u]) continue;
      const NodeId nu(static_cast<std::int32_t>(u));
      for (NodeId v : adjacency_[u]) {
        const double nd = d + edge_distance_(nu, v);
        if (nd < out.dist[v.idx()]) {
          out.dist[v.idx()] = nd;
          out.pred[v.idx()] = nu;
          heap.emplace(nd, v.idx());
        }
      }
    }
    return out;
  });
}

double MeshRouting::distance(NodeId src, NodeId dst) const {
  require(src.valid() && src.idx() < adjacency_.size(),
          "MeshRouting::distance: bad src");
  require(dst.valid() && dst.idx() < adjacency_.size(),
          "MeshRouting::distance: bad dst");
  // Canonical orientation: read from the higher-indexed endpoint, the
  // entry the old packed SymMatrix held for this pair — keeps lazy
  // results bit-equal to the eager all-pairs computation.
  const std::size_t hi = std::max(src.idx(), dst.idx());
  const std::size_t lo = std::min(src.idx(), dst.idx());
  return tree(hi)->dist[lo];
}

std::vector<NodeId> MeshRouting::walk(NodeId src, NodeId dst) const {
  require(src.valid() && src.idx() < adjacency_.size(),
          "MeshRouting::walk: bad src");
  require(dst.valid() && dst.idx() < adjacency_.size(),
          "MeshRouting::walk: bad dst");
  if (src == dst) return {src};
  const std::shared_ptr<const SourceTree> t = tree(src.idx());
  if (!t->pred[dst.idx()].valid()) return {};
  std::vector<NodeId> path;
  for (NodeId v = dst; v != src; v = t->pred[v.idx()]) {
    path.push_back(v);
  }
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

std::size_t MeshRouting::resident_bytes() const {
  return cache_->resident_bytes();
}

MeshTopology::MeshTopology(std::size_t n, const OverlayDistance& distance,
                           const MeshParams& params, Rng& rng) {
  require(n > 0, "MeshTopology: empty network");
  require(params.nearest_min >= 1 &&
              params.nearest_min <= params.nearest_max,
          "MeshTopology: bad nearest-neighbor range");
  require(params.random_min <= params.random_max,
          "MeshTopology: bad random-link range");
  adjacency_.resize(n);
  static obs::Counter& candidates =
      obs::MetricsRegistry::global().counter("mesh.candidate_links");
  std::uint64_t evals = 0;

  // Per-node links: k nearest plus a few random far nodes.
  for (std::size_t u = 0; u < n; ++u) {
    const NodeId nu(static_cast<std::int32_t>(u));
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(
            rng.uniform_int(static_cast<int>(params.nearest_min),
                            static_cast<int>(params.nearest_max))),
        n - 1);
    // Partial sort of the other nodes by distance from u.
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(n - 1);
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u) continue;
      ranked.emplace_back(distance(nu, NodeId(static_cast<std::int32_t>(v))),
                          v);
      ++evals;
    }
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(k),
                      ranked.end());
    for (std::size_t i = 0; i < k; ++i) {
      add_edge(nu, NodeId(static_cast<std::int32_t>(ranked[i].second)));
    }
    // Random farther links.
    const std::size_t extras = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(params.random_min),
                        static_cast<int>(params.random_max)));
    for (std::size_t e = 0; e < extras && n > k + 1; ++e) {
      // Pick uniformly among the nodes beyond the k nearest.
      const std::size_t pick =
          k + rng.pick_index(ranked.size() - k);
      add_edge(nu, NodeId(static_cast<std::int32_t>(ranked[pick].second)));
    }
  }

  // Connectivity repair: link closest pairs across components until one
  // component remains.
  std::vector<std::int32_t> component;
  while (label_components(adjacency_, component) > 1) {
    // Closest pair between component 0 and any other component.
    double best = std::numeric_limits<double>::infinity();
    std::size_t ba = 0;
    std::size_t bb = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (component[a] != 0) continue;
      for (std::size_t b = 0; b < n; ++b) {
        if (component[b] == 0) continue;
        const double d = distance(NodeId(static_cast<std::int32_t>(a)),
                                  NodeId(static_cast<std::int32_t>(b)));
        ++evals;
        if (d < best) {
          best = d;
          ba = a;
          bb = b;
        }
      }
    }
    add_edge(NodeId(static_cast<std::int32_t>(ba)),
             NodeId(static_cast<std::int32_t>(bb)));
  }
  candidates.add(evals);
}

void MeshTopology::add_edge(NodeId a, NodeId b) {
  if (a == b || has_edge(a, b)) return;
  adjacency_[a.idx()].push_back(b);
  adjacency_[b.idx()].push_back(a);
  ++edge_count_;
}

const std::vector<NodeId>& MeshTopology::neighbors(NodeId node) const {
  require(node.valid() && node.idx() < adjacency_.size(),
          "MeshTopology::neighbors: bad node");
  return adjacency_[node.idx()];
}

bool MeshTopology::has_edge(NodeId a, NodeId b) const {
  require(a.valid() && a.idx() < adjacency_.size() && b.valid() &&
              b.idx() < adjacency_.size(),
          "MeshTopology::has_edge: bad node");
  const auto& adj = adjacency_[a.idx()];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

bool MeshTopology::connected() const {
  if (adjacency_.empty()) return true;
  std::vector<bool> seen(adjacency_.size(), false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (NodeId v : adjacency_[u]) {
      if (!seen[v.idx()]) {
        seen[v.idx()] = true;
        ++visited;
        stack.push_back(v.idx());
      }
    }
  }
  return visited == adjacency_.size();
}

MeshTopology::MeshTopology(const DistanceService& distance,
                           const MeshParams& params, Rng& rng) {
  const std::vector<Point>* coords = distance.coord_view();
  if (coords != nullptr && spatial_enabled(coords->size())) {
    require(coords->size() > 0, "MeshTopology: empty network");
    require(params.nearest_min >= 1 &&
                params.nearest_min <= params.nearest_max,
            "MeshTopology: bad nearest-neighbor range");
    require(params.random_min <= params.random_max,
            "MeshTopology: bad random-link range");
    adjacency_.resize(coords->size());
    build_spatial(*coords, params, rng);
    return;
  }
  *this = MeshTopology(distance.size(), OverlayDistance(distance.fn()),
                       params, rng);
}

void MeshTopology::build_spatial(const std::vector<Point>& coords,
                                 const MeshParams& params, Rng& rng) {
  const std::size_t n = coords.size();
  static obs::Counter& candidates =
      obs::MetricsRegistry::global().counter("mesh.candidate_links");
  static obs::Counter& visited =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");
  KdTree index(coords);
  QueryStats qs;

  for (std::size_t u = 0; u < n; ++u) {
    const NodeId nu(static_cast<std::int32_t>(u));
    const std::int32_t self = static_cast<std::int32_t>(u);
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(
            rng.uniform_int(static_cast<int>(params.nearest_min),
                            static_cast<int>(params.nearest_max))),
        n - 1);
    // Same (distance, id)-ranked prefix the brute partial_sort keeps.
    const std::vector<SpatialHit> hits =
        index.k_nearest(coords[u], k, qs, &not_self, &self);
    for (const SpatialHit& hit : hits) add_edge(nu, NodeId(hit.id));

    const std::size_t extras = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(params.random_min),
                        static_cast<int>(params.random_max)));
    // Exclusion list for the far links: self plus the k nearest.
    std::vector<std::int32_t> excluded{self};
    for (const SpatialHit& hit : hits) excluded.push_back(hit.id);
    std::sort(excluded.begin(), excluded.end());
    for (std::size_t e = 0; e < extras && n > k + 1; ++e) {
      // Same Rng draw as the brute path; the draw indexes the remaining
      // ids ascending instead of the unsorted tail of a partial_sort.
      std::size_t target = rng.pick_index(n - 1 - k);
      for (const std::int32_t ex : excluded) {
        if (static_cast<std::size_t>(ex) <= target) ++target;
      }
      add_edge(nu, NodeId(static_cast<std::int32_t>(target)));
    }
  }

  // Connectivity repair: nearest-foreign queries against the components.
  std::vector<std::int32_t> component;
  while (label_components(adjacency_, component) > 1) {
    index.retag(component);
    double best = std::numeric_limits<double>::infinity();
    std::size_t ba = 0;
    std::size_t bb = 0;
    bool found = false;
    for (std::size_t a = 0; a < n; ++a) {
      if (component[a] != 0) continue;
      const SpatialHit hit = index.nearest_foreign(coords[a], 0, best, qs);
      if (hit.found() && hit.dist < best) {
        best = hit.dist;
        ba = a;
        bb = static_cast<std::size_t>(hit.id);
        found = true;
      }
    }
    ensure(found, "MeshTopology: connectivity repair found no pair");
    add_edge(NodeId(static_cast<std::int32_t>(ba)),
             NodeId(static_cast<std::int32_t>(bb)));
  }
  candidates.add(qs.point_evals);
  visited.add(qs.nodes_visited);
}

MeshRouting MeshTopology::compute_routing(const OverlayDistance& distance,
                                          std::size_t cache_rows) const {
  return MeshRouting(adjacency_, distance, cache_rows);
}

MeshRouting MeshTopology::compute_routing(const DistanceService& distance,
                                          std::size_t cache_rows) const {
  return MeshRouting(adjacency_, OverlayDistance(distance.fn()), cache_rows);
}

}  // namespace hfc
