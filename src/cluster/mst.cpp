#include "cluster/mst.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "spatial/kd_tree.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Disjoint-set over node indices (path-halving, no ranks — union order
/// below is deterministic anyway).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// False when a and b were already connected.
  bool unite(std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// True when candidate (d, a, b) improves on the incumbent under the
/// canonical lexicographic edge order.
[[nodiscard]] bool edge_improves(double d, std::size_t a, std::size_t b,
                                 double bd, std::size_t ba, std::size_t bb) {
  if (d != bd) return d < bd;
  if (a != ba) return a < ba;
  return b < bb;
}

}  // namespace

std::vector<MstEdge> mst_dense(std::size_t n, const DistanceFn& distance) {
  HFC_TRACE_SPAN("cluster.mst");
  obs::MetricsRegistry::global().counter("cluster.mst_builds").add(1);
  std::vector<MstEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);

  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, kInf);     // cheapest edge into the tree
  std::vector<std::size_t> parent(n, 0);
  std::uint64_t evals = 0;

  in_tree[0] = true;
  for (std::size_t v = 1; v < n; ++v) {
    best[v] = distance(0, v);
    ++evals;
    parent[v] = 0;
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t next = n;
    double next_cost = kInf;
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v] && best[v] < next_cost) {
        next = v;
        next_cost = best[v];
      }
    }
    ensure(next < n, "mst_dense: graph distance returned infinity");
    in_tree[next] = true;
    edges.push_back(MstEdge{parent[next], next, next_cost});
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v]) {
        const double d = distance(next, v);
        ++evals;
        if (d < best[v]) {
          best[v] = d;
          parent[v] = next;
        }
      }
    }
  }
  obs::MetricsRegistry::global()
      .counter("cluster.mst_candidate_pairs")
      .add(evals);
  return edges;
}

std::vector<MstEdge> mst_dense(const DistanceService& distance) {
  const std::vector<Point>* coords = distance.coord_view();
  if (coords != nullptr && spatial_enabled(coords->size())) {
    return euclidean_mst(*coords);
  }

  HFC_TRACE_SPAN("cluster.mst");
  obs::MetricsRegistry::global().counter("cluster.mst_builds").add(1);
  const std::size_t n = distance.size();
  std::vector<MstEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);

  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, kInf);
  std::vector<std::size_t> parent(n, 0);
  std::uint64_t evals = 0;

  // One whole-row fetch per added node keeps the truth tier's bounded
  // row cache on a sequential access pattern (n fetches total) instead
  // of the per-pair at() canonicalization, which revisits every row
  // O(n) times and evicts it in between.
  in_tree[0] = true;
  {
    const auto row = distance.row(0);
    for (std::size_t v = 1; v < n; ++v) {
      best[v] = (*row)[v];
      ++evals;
      parent[v] = 0;
    }
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t next = n;
    double next_cost = kInf;
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v] && best[v] < next_cost) {
        next = v;
        next_cost = best[v];
      }
    }
    ensure(next < n, "mst_dense: graph distance returned infinity");
    in_tree[next] = true;
    edges.push_back(MstEdge{parent[next], next, next_cost});
    const auto row = distance.row(next);
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v]) {
        const double d = (*row)[v];
        ++evals;
        if (d < best[v]) {
          best[v] = d;
          parent[v] = next;
        }
      }
    }
  }
  obs::MetricsRegistry::global()
      .counter("cluster.mst_candidate_pairs")
      .add(evals);
  return edges;
}

std::vector<MstEdge> euclidean_mst(const std::vector<Point>& points) {
  if (spatial_enabled(points.size())) {
    if (group_pipeline_enabled(points.size())) {
      return euclidean_mst_grouped(points);
    }
    return euclidean_mst_spatial(points);
  }
  return mst_dense(points.size(), [&points](std::size_t i, std::size_t j) {
    return euclidean(points[i], points[j]);
  });
}

std::vector<MstEdge> euclidean_mst_spatial(const std::vector<Point>& points) {
  HFC_TRACE_SPAN("cluster.mst");
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("cluster.mst_builds").add(1);
  const std::size_t n = points.size();
  std::vector<MstEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);

  KdTree index(points);
  UnionFind uf(n);
  std::vector<std::int32_t> labels(n, 0);

  // Candidate light edge per component root, canonical (d, a, b)-minimal.
  std::vector<double> cand_d(n, kInf);
  std::vector<std::size_t> cand_a(n, 0);
  std::vector<std::size_t> cand_b(n, 0);

  // CSR member lists grouped by component, rebuilt every round:
  // `root_slot` maps a root id to its compact component index,
  // `comp_roots` lists roots in order of smallest member.
  std::vector<std::int32_t> root_slot(n, -1);
  std::vector<std::size_t> comp_roots;
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> members(n);
  std::vector<QueryStats> comp_stats;
  QueryStats total;

  // Borůvka: every round each component selects its cheapest outgoing
  // edge and the selected edges are applied serially. The (d, a, b)
  // total order on edges makes the selection — and with it the final
  // tree — deterministic even under exact distance ties.
  while (edges.size() + 1 < n) {
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<std::int32_t>(uf.find(v));
    }
    index.retag(labels);

    // Group members by component (a stable counting sort, so each
    // component's member list is ascending), then scan each component
    // sequentially with a shrinking inclusive bound: once a candidate
    // edge is held, later members only need to beat its distance, so
    // their k-d descents cut off almost immediately. Components scan
    // in parallel; each writes only its own cand_* slot, so the sweep
    // is deterministic for any thread count.
    std::size_t num_comps = 0;
    comp_roots.clear();
    for (std::size_t v = 0; v < n; ++v) {
      const auto root = static_cast<std::size_t>(labels[v]);
      if (root_slot[root] < 0) {
        root_slot[root] = static_cast<std::int32_t>(num_comps++);
        comp_roots.push_back(root);
      }
    }
    offsets.assign(num_comps + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
      const auto slot =
          static_cast<std::size_t>(root_slot[static_cast<std::size_t>(
              labels[v])]);
      ++offsets[slot + 1];
    }
    for (std::size_t c = 0; c < num_comps; ++c) {
      offsets[c + 1] += offsets[c];
    }
    {
      std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
      for (std::size_t v = 0; v < n; ++v) {
        const auto slot =
            static_cast<std::size_t>(root_slot[static_cast<std::size_t>(
                labels[v])]);
        members[cursor[slot]++] = v;
      }
    }
    comp_stats.assign(num_comps, QueryStats{});
    parallel_for(num_comps, 16, [&](std::size_t c) {
      const std::size_t root = comp_roots[c];
      const auto label = static_cast<std::int32_t>(root);
      double best_d = kInf;
      std::size_t best_a = 0;
      std::size_t best_b = 0;
      QueryStats& st = comp_stats[c];
      for (std::size_t m = offsets[c]; m < offsets[c + 1]; ++m) {
        const std::size_t v = members[m];
        const SpatialHit hit =
            index.nearest_foreign(points[v], label, best_d, st);
        if (!hit.found()) continue;
        const std::size_t u = static_cast<std::size_t>(hit.id);
        const std::size_t a = std::min(v, u);
        const std::size_t b = std::max(v, u);
        if (edge_improves(hit.dist, a, b, best_d, best_a, best_b)) {
          best_d = hit.dist;
          best_a = a;
          best_b = b;
        }
      }
      cand_d[root] = best_d;
      cand_a[root] = best_a;
      cand_b[root] = best_b;
    });
    for (std::size_t c = 0; c < num_comps; ++c) {
      ensure(cand_d[comp_roots[c]] != kInf,
             "euclidean_mst_spatial: disconnected point set");
      total += comp_stats[c];
      root_slot[comp_roots[c]] = -1;
    }

    const std::size_t before = edges.size();
    for (std::size_t root = 0; root < n; ++root) {
      if (cand_d[root] == kInf) continue;
      if (uf.unite(cand_a[root], cand_b[root])) {
        edges.push_back(MstEdge{cand_a[root], cand_b[root], cand_d[root]});
      }
      cand_d[root] = kInf;
    }
    ensure(edges.size() > before, "euclidean_mst_spatial: no progress");
  }

  registry.counter("cluster.mst_candidate_pairs").add(total.point_evals);
  registry.counter("spatial.nodes_visited").add(total.nodes_visited);

  std::sort(edges.begin(), edges.end(), [](const MstEdge& x, const MstEdge& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return edges;
}

double total_length(const std::vector<MstEdge>& edges) {
  double sum = 0.0;
  for (const MstEdge& e : edges) sum += e.length;
  return sum;
}

}  // namespace hfc
