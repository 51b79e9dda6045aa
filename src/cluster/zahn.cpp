#include "cluster/zahn.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "cluster/boruvka.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

double typical_length(std::vector<double>& lengths, ZahnStatistic statistic) {
  if (statistic == ZahnStatistic::kMedian) {
    const std::size_t mid = lengths.size() / 2;
    std::nth_element(lengths.begin(), lengths.begin() + mid, lengths.end());
    return lengths[mid];
  }
  double sum = 0.0;
  for (double l : lengths) sum += l;
  return sum / static_cast<double>(lengths.size());
}

using boruvka::UnionFind;

Clustering components_to_clustering(std::size_t n, UnionFind& uf) {
  Clustering out;
  out.assignment.assign(n, ClusterId{});
  std::vector<std::int32_t> root_to_cluster(n, -1);
  std::int32_t next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = uf.find(v);
    if (root_to_cluster[root] < 0) root_to_cluster[root] = next++;
    out.assignment[v] = ClusterId(root_to_cluster[root]);
  }
  out.members.resize(static_cast<std::size_t>(next));
  for (std::size_t v = 0; v < n; ++v) {
    out.members[out.assignment[v].idx()].push_back(
        NodeId(static_cast<std::int32_t>(v)));
  }
  return out;
}

/// Merge every cluster smaller than `min_size` into the cluster of its
/// nearest foreign node, smallest clusters first.
Clustering merge_small_clusters(Clustering clustering, std::size_t min_size,
                                const DistanceFn& distance) {
  require(static_cast<bool>(distance),
          "zahn: min_cluster_size > 1 requires a distance function");
  const std::size_t n = clustering.node_count();
  while (clustering.cluster_count() > 1) {
    // Find the smallest under-sized cluster.
    std::size_t victim = clustering.cluster_count();
    std::size_t victim_size = min_size;
    for (std::size_t c = 0; c < clustering.cluster_count(); ++c) {
      if (clustering.members[c].size() < victim_size) {
        victim = c;
        victim_size = clustering.members[c].size();
      }
    }
    if (victim == clustering.cluster_count()) break;  // all big enough

    // Nearest foreign node to any member of the victim cluster.
    double best = std::numeric_limits<double>::infinity();
    ClusterId target;
    for (NodeId member : clustering.members[victim]) {
      for (std::size_t v = 0; v < n; ++v) {
        const ClusterId cv = clustering.assignment[v];
        if (cv.idx() == victim) continue;
        const double d = distance(member.idx(), v);
        if (d < best) {
          best = d;
          target = cv;
        }
      }
    }
    ensure(target.valid(), "zahn: no merge target found");

    // Re-label and re-densify.
    UnionFind uf(n);
    for (std::size_t c = 0; c < clustering.cluster_count(); ++c) {
      const std::size_t rep = clustering.members[c].front().idx();
      for (NodeId m : clustering.members[c]) uf.unite(m.idx(), rep);
    }
    uf.unite(clustering.members[victim].front().idx(),
             clustering.members[target.idx()].front().idx());
    clustering = components_to_clustering(n, uf);
  }
  return clustering;
}

}  // namespace

std::vector<std::size_t> find_inconsistent_edges(
    std::size_t n, const std::vector<MstEdge>& mst, const ZahnParams& params) {
  require(params.inconsistency_factor > 0.0,
          "zahn: inconsistency factor must be positive");
  require(params.neighborhood_depth >= 1, "zahn: neighborhood depth >= 1");
  const auto t0 = std::chrono::steady_clock::now();

  // CSR adjacency: each node's arcs in ascending edge order (a stable
  // counting sort over the edge list), so every BFS visits neighbours in
  // the same order for any thread count.
  struct Arc {
    std::size_t edge;  ///< index into the MST edge list
    std::size_t to;
  };
  const std::size_t m = mst.size();
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const MstEdge& e : mst) {
    require(e.a < n && e.b < n, "zahn: edge endpoint out of range");
    ++offsets[e.a + 1];
    ++offsets[e.b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<Arc> arcs(2 * m);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t e = 0; e < m; ++e) {
      arcs[cursor[mst[e].a]++] = {e, mst[e].b};
      arcs[cursor[mst[e].b]++] = {e, mst[e].a};
    }
  }

  // Every edge's verdict is a pure function of the adjacency, so edges
  // evaluate independently in fixed-size blocks (independent of thread
  // count), each with its own epoch-stamped visited array and FIFO. The
  // nearby lengths are those of edges reachable from either endpoint
  // within `neighborhood_depth` hops without crossing the edge itself,
  // gathered in BFS order — which fixes the kMean summation order. The
  // per-edge flags are collected serially ascending, so the result is
  // byte-identical for any HFC_THREADS.
  std::vector<std::uint8_t> flagged(m, 0);
  constexpr std::size_t kBlock = 2048;
  const std::size_t blocks = (m + kBlock - 1) / kBlock;
  parallel_for(blocks, 1, [&](std::size_t blk) {
    std::vector<std::uint32_t> stamp(n, 0);
    std::uint32_t epoch = 0;
    std::vector<std::pair<std::size_t, std::size_t>> fifo;  // (node, depth)
    std::vector<double> lengths;
    const std::size_t lo = blk * kBlock;
    const std::size_t hi = std::min(m, lo + kBlock);
    for (std::size_t e = lo; e < hi; ++e) {
      lengths.clear();
      for (const std::size_t start : {mst[e].a, mst[e].b}) {
        ++epoch;  // fresh visited set per endpoint
        fifo.clear();
        fifo.emplace_back(start, 0);
        stamp[start] = epoch;
        for (std::size_t head = 0; head < fifo.size(); ++head) {
          const auto [u, d] = fifo[head];
          if (d >= params.neighborhood_depth) continue;
          for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
            const Arc& arc = arcs[k];
            if (arc.edge == e || stamp[arc.to] == epoch) continue;
            stamp[arc.to] = epoch;
            lengths.push_back(mst[arc.edge].length);
            fifo.emplace_back(arc.to, d + 1);
          }
        }
      }
      if (lengths.empty()) continue;  // nothing to compare against: keep
      const double typical = typical_length(lengths, params.statistic);
      if (typical <= 0.0) continue;  // degenerate (co-located neighbourhood)
      if (mst[e].length / typical > params.inconsistency_factor) {
        flagged[e] = 1;
      }
    }
  });

  std::vector<std::size_t> inconsistent;
  for (std::size_t e = 0; e < m; ++e) {
    if (flagged[e] != 0) inconsistent.push_back(e);
  }
  obs::MetricsRegistry::global()
      .counter("construct.zahn_cut_us")
      .add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
  return inconsistent;
}

Clustering zahn_cluster(std::size_t n, const std::vector<MstEdge>& mst,
                        const ZahnParams& params, const DistanceFn& distance) {
  HFC_TRACE_SPAN("cluster.zahn");
  require(mst.size() + 1 == n || (n <= 1 && mst.empty()),
          "zahn: edge list is not a spanning tree of n nodes");
  const std::vector<std::size_t> inconsistent =
      find_inconsistent_edges(n, mst, params);

  std::vector<bool> removed(mst.size(), false);
  for (std::size_t e : inconsistent) removed[e] = true;

  UnionFind uf(n);
  for (std::size_t e = 0; e < mst.size(); ++e) {
    if (!removed[e]) uf.unite(mst[e].a, mst[e].b);
  }
  Clustering clustering = components_to_clustering(n, uf);
  const std::size_t before_merge = clustering.cluster_count();
  if (params.min_cluster_size > 1) {
    clustering = merge_small_clusters(std::move(clustering),
                                      params.min_cluster_size, distance);
  }
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("cluster.inconsistent_edges").add(inconsistent.size());
  registry.counter("cluster.small_cluster_merges")
      .add(before_merge - clustering.cluster_count());
  registry.gauge("cluster.clusters")
      .set(static_cast<double>(clustering.cluster_count()));
  return clustering;
}

Clustering cluster_points(const PointSet& points, const ZahnParams& params) {
  const DistanceFn distance = [&points](std::size_t i, std::size_t j) {
    return euclidean(points[i], points[j]);
  };
  return zahn_cluster(points.size(), euclidean_mst(points), params, distance);
}

Clustering cluster_nodes(const DistanceService& distance,
                         const ZahnParams& params) {
  const DistanceFn fn = [&distance](std::size_t i, std::size_t j) {
    return distance.at(i, j);
  };
  return zahn_cluster(distance.size(), mst_dense(distance), params, fn);
}

}  // namespace hfc
