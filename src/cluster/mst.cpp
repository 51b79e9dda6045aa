#include "cluster/mst.h"

#include <algorithm>
#include <limits>
#include <string>

#include "cluster/boruvka.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spatial/kd_tree.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<MstEdge> euclidean_mst(const PointSet& points) {
  if (group_pipeline_enabled(points.size())) {
    return euclidean_mst_grouped(points);
  }
  return euclidean_mst_spatial(points);
}

std::vector<MstEdge> euclidean_mst_spatial(const PointSet& points) {
  HFC_TRACE_SPAN("cluster.mst");
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("cluster.mst_builds").add(1);
  const std::size_t n = points.size();
  std::vector<MstEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);

  boruvka::UnionFind uf(n);
  boruvka::SweepStats stats;
  boruvka::global_sweep(points, uf, nullptr, edges, stats,
                        "euclidean_mst_spatial");
  registry.counter("cluster.mst_candidate_pairs")
      .add(stats.queries.point_evals);
  registry.counter("spatial.nodes_visited").add(stats.queries.nodes_visited);

  std::sort(edges.begin(), edges.end(), [](const MstEdge& x, const MstEdge& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return edges;
}

void boruvka::global_sweep(const PointSet& points, UnionFind& uf, double* lb,
                           std::vector<MstEdge>& edges, SweepStats& stats,
                           const char* caller) {
  const std::size_t n = points.size();
  KdTree index(points);
  std::vector<std::int32_t> labels(n, 0);
  std::vector<Candidate> cand(n);  // by component root
  ComponentGroups comps(n);
  std::vector<QueryStats> comp_stats;
  std::vector<std::uint64_t> comp_skips;

  // Borůvka: every round each component selects its cheapest outgoing
  // edge and the selected edges are applied serially. The (d, a, b)
  // total order on edges makes the selection — and with it the final
  // tree — deterministic even under exact distance ties. Components scan
  // in parallel, each writing only its own cand slot, so the sweep is
  // deterministic for any thread count.
  while (edges.size() + 1 < n) {
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<std::int32_t>(uf.find(v));
    }
    index.retag(labels);
    comps.group(n, [&labels](std::size_t v) {
      return static_cast<std::size_t>(labels[v]);
    });
    const std::size_t num_comps = comps.count();
    comp_stats.assign(num_comps, QueryStats{});
    comp_skips.assign(num_comps, 0);
    parallel_for(num_comps, 16, [&](std::size_t c) {
      const std::size_t root = comps.key(c);
      cand[root] = cheapest_outgoing(
          index, points, static_cast<std::int32_t>(root), comps.members(c),
          [](std::size_t v) { return v; }, lb, comp_stats[c], comp_skips[c]);
    });
    bool connected = true;
    for (std::size_t c = 0; c < num_comps; ++c) {
      connected = connected && cand[comps.key(c)].d != kInf;
      stats.queries += comp_stats[c];
      stats.lb_skips += comp_skips[c];
    }
    ensure(connected, std::string(caller) + ": disconnected point set");

    const std::size_t before = edges.size();
    for (Candidate& e : cand) {
      if (e.d == kInf) continue;
      if (uf.unite(e.a, e.b)) edges.push_back(MstEdge{e.a, e.b, e.d});
      e.d = kInf;
    }
    ensure(edges.size() > before, std::string(caller) + ": no progress");
  }
}

double total_length(const std::vector<MstEdge>& edges) {
  double sum = 0.0;
  for (const MstEdge& e : edges) sum += e.length;
  return sum;
}

}  // namespace hfc
