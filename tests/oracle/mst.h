// Reference Euclidean MST: Kruskal over all n(n-1)/2 pairs, O(n^2 log n).
//
// Pairs are weighed with the same `euclidean()` doubles the production
// paths evaluate and sorted by the total order (d, a, b) with a < b —
// the order the Borůvka sweeps break ties under. Under a strict total
// order the MST is unique, so the result matches `euclidean_mst_spatial`
// and `euclidean_mst_grouped` bit for bit — same edges, same lengths, and
// (after the final sort) the same canonical (a, b) order — including on
// inputs with exact distance ties.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "cluster/mst.h"
#include "coords/point.h"

namespace hfc::oracle {

inline std::vector<MstEdge> kruskal_mst(const std::vector<Point>& points) {
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

}  // namespace hfc::oracle
