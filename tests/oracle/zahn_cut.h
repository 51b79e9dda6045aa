// Reference Zahn cut: the plain serial sweep, one edge at a time.
//
// For every MST edge, gather the lengths of the edges reachable from
// each endpoint within `neighborhood_depth` hops without crossing the
// edge itself (a fresh BFS per endpoint over an adjacency list built by
// push_back in edge order), and flag the edge when its length exceeds
// `inconsistency_factor` times the mean or median of those lengths.
// The BFS order fixes the kMean summation order, so the block-parallel
// `find_inconsistent_edges` must return exactly this list — same
// indices, ascending — for any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

#include "cluster/zahn.h"

namespace hfc::oracle {

inline std::vector<std::size_t> zahn_cut(std::size_t n,
                                         const std::vector<MstEdge>& mst,
                                         const ZahnParams& params) {
  struct Arc {
    std::size_t edge;
    std::size_t to;
  };
  std::vector<std::vector<Arc>> adj(n);
  for (std::size_t e = 0; e < mst.size(); ++e) {
    adj[mst[e].a].push_back({e, mst[e].b});
    adj[mst[e].b].push_back({e, mst[e].a});
  }
  const auto nearby_lengths = [&](std::size_t start, std::size_t banned,
                                  std::vector<double>& lengths) {
    std::queue<std::pair<std::size_t, std::size_t>> frontier;  // node, depth
    std::vector<bool> visited(n, false);
    frontier.emplace(start, 0);
    visited[start] = true;
    while (!frontier.empty()) {
      const auto [u, d] = frontier.front();
      frontier.pop();
      if (d >= params.neighborhood_depth) continue;
      for (const Arc& arc : adj[u]) {
        if (arc.edge == banned || visited[arc.to]) continue;
        visited[arc.to] = true;
        lengths.push_back(mst[arc.edge].length);
        frontier.emplace(arc.to, d + 1);
      }
    }
  };

  std::vector<std::size_t> inconsistent;
  std::vector<double> lengths;
  for (std::size_t e = 0; e < mst.size(); ++e) {
    lengths.clear();
    nearby_lengths(mst[e].a, e, lengths);
    nearby_lengths(mst[e].b, e, lengths);
    if (lengths.empty()) continue;
    double typical = 0.0;
    if (params.statistic == ZahnStatistic::kMedian) {
      const std::size_t mid = lengths.size() / 2;
      std::nth_element(lengths.begin(), lengths.begin() + mid, lengths.end());
      typical = lengths[mid];
    } else {
      for (const double l : lengths) typical += l;
      typical /= static_cast<double>(lengths.size());
    }
    if (typical <= 0.0) continue;
    if (mst[e].length / typical > params.inconsistency_factor) {
      inconsistent.push_back(e);
    }
  }
  return inconsistent;
}

}  // namespace hfc::oracle
