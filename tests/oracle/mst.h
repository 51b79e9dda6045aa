// Reference Euclidean MSTs over all n(n-1)/2 pairs: Kruskal, O(n^2 log n),
// and Prim, O(n^2).
//
// Pairs are weighed with the same `euclidean()` doubles the production
// paths evaluate and sorted by the total order (d, a, b) with a < b —
// the order the Borůvka sweeps break ties under. Under a strict total
// order the MST is unique, so the result matches `euclidean_mst_spatial`
// and `euclidean_mst_grouped` bit for bit — same edges, same lengths, and
// (after the final sort) the same canonical (a, b) order — including on
// inputs with exact distance ties.
//
// Prim grows the tree from node 0 and relaxes every outside node against
// each node it adds — one row of distances per added node, so exactly
// n(n-1)/2 evaluations. It is the brute arm of bench_topology_scaling's
// MST A/B and is checked against Kruskal in tests/test_distance.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "cluster/mst.h"
#include "coords/point_set.h"

namespace hfc::oracle {

inline std::vector<MstEdge> kruskal_mst(const PointSet& points) {
  const std::size_t n = points.size();
  std::vector<MstEdge> pairs;
  pairs.reserve(n * (n > 0 ? n - 1 : 0) / 2);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      pairs.push_back(MstEdge{a, b, euclidean(points[a], points[b])});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const MstEdge& x, const MstEdge& y) {
    if (x.length != y.length) return x.length < y.length;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });

  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<MstEdge> tree;
  for (const MstEdge& e : pairs) {
    if (tree.size() + 1 >= n) break;
    const std::size_t ra = find(e.a);
    const std::size_t rb = find(e.b);
    if (ra == rb) continue;
    parent[ra] = rb;
    tree.push_back(e);
  }
  std::sort(tree.begin(), tree.end(), [](const MstEdge& x, const MstEdge& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return tree;
}

/// Prim's MST over all pairs, edges (parent, added) in insertion order.
/// Ties pick the lowest index, so with distinct pairwise distances the
/// edge set is kruskal_mst's. `evals`, when given, grows by the number of
/// distances evaluated.
inline std::vector<MstEdge> prim_mst(const PointSet& points,
                                     std::uint64_t* evals = nullptr) {
  const std::size_t n = points.size();
  std::vector<MstEdge> tree;
  if (n <= 1) return tree;
  tree.reserve(n - 1);
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> parent(n, 0);
  std::uint64_t count = 0;
  std::size_t added = 0;
  in_tree[added] = true;
  while (true) {
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d = euclidean(points[added], points[v]);
      ++count;
      if (d < best[v]) {
        best[v] = d;
        parent[v] = added;
      }
    }
    if (tree.size() + 1 == n) break;
    added = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v] && (added == n || best[v] < best[added])) added = v;
    }
    in_tree[added] = true;
    tree.push_back(MstEdge{parent[added], added, best[added]});
  }
  if (evals != nullptr) *evals += count;
  return tree;
}

}  // namespace hfc::oracle
