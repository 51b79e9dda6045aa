// Churn repair's box rule (DESIGN.md §9). Before any nearest query, a
// staged addition is tested against the other cluster's covering box —
// the index root's box widened by the unfolded pending points — and
// skipped when that box lies strictly beyond the incumbent pair's stored
// length (KdTree::search's inclusive `>` rule). At an equal distance the
// query still runs and the tie keeps the incumbent; a far addition costs
// no tree node at all; and a point still in the other side's pending
// buffer, outside its index root box, must still win.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "distance/coord_distance.h"
#include "obs/metrics.h"
#include "overlay/hfc_topology.h"

namespace hfc {
namespace {

using Pair = std::pair<NodeId, NodeId>;

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

ClusterId cluster(std::int32_t c) { return ClusterId(c); }

/// Clusters of 6 x 6 unit grids (36 points, above the brute threshold,
/// so every cluster carries a k-d index), one grid per origin, ids in
/// row-major order grid after grid; added nodes get the next ids.
struct Grids {
  std::vector<Point> coords;
  Clustering clustering;

  explicit Grids(const std::vector<Point>& origins) {
    for (std::size_t g = 0; g < origins.size(); ++g) {
      clustering.members.emplace_back();
      for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 6; ++x) {
          const NodeId id(static_cast<std::int32_t>(coords.size()));
          coords.push_back({origins[g][0] + x, origins[g][1] + y});
          clustering.assignment.push_back(
              ClusterId(static_cast<std::int32_t>(g)));
          clustering.members.back().push_back(id);
        }
      }
    }
  }
};

/// A topology over the grids with spatial repair on, and the additions
/// it can take.
struct Churn {
  explicit Churn(const Grids& grids)
      : coords(grids.coords),
        dist(coords),
        topo(grids.clustering, dist) {}

  /// Add a node at `p` to `c`, one single-event batch.
  NodeId add(Point p, ClusterId c) {
    const NodeId id(static_cast<std::int32_t>(coords.size()));
    coords.push_back(p);
    dist.append(coords.back());
    topo.append_node();
    topo.on_member_added(id, c);
    return id;
  }

  [[nodiscard]] Pair pair(ClusterId a, ClusterId b) const {
    return {topo.border(a, b), topo.border(b, a)};
  }

  /// Brute lex-min (d, x, y) over the two clusters' members.
  [[nodiscard]] Pair oracle(ClusterId a, ClusterId b) const {
    std::tuple<double, NodeId, NodeId> best{
        std::numeric_limits<double>::infinity(), NodeId{}, NodeId{}};
    for (const NodeId x : topo.members(a)) {
      for (const NodeId y : topo.members(b)) {
        best = std::min(best, std::make_tuple(euclidean(coords[x.idx()],
                                                        coords[y.idx()]),
                                              x, y));
      }
    }
    return {std::get<1>(best), std::get<2>(best)};
  }

  std::vector<Point> coords;
  CoordDistanceService dist;
  HfcTopology topo;
};

TEST(BorderRepairBox, AdditionAtTheIncumbentLengthStillQueriesAndKeepsIt) {
  // A spans [0,5]^2, B [13,18] x [0,5]: the incumbent is A's (5,0) = 5
  // and B's (13,0) = 36, 8 apart. A node added to A at (5,0) is exactly 8
  // from B's box and from (13,0): the box does not skip it, its query
  // ties, and the incumbent (smaller ids) stays.
  Churn churn(Grids({{0.0, 0.0}, {13.0, 0.0}}));
  ASSERT_TRUE(churn.topo.spatial_active());
  const Pair incumbent{NodeId(5), NodeId(36)};
  ASSERT_EQ(churn.pair(cluster(0), cluster(1)), incumbent);
  ASSERT_EQ(churn.topo.external_length(cluster(0), cluster(1)), 8.0);

  const std::uint64_t rejects = counter("churn.border_box_rejects");
  const std::uint64_t add_scans = counter("churn.border_add_scans");
  const std::uint64_t visited = counter("spatial.nodes_visited");
  const std::uint64_t epoch = churn.topo.border_epoch(cluster(0));
  churn.add({5.0, 0.0}, cluster(0));
  EXPECT_EQ(counter("churn.border_box_rejects"), rejects);
  EXPECT_EQ(counter("churn.border_add_scans"), add_scans + 1);
  EXPECT_GT(counter("spatial.nodes_visited"), visited);
  EXPECT_EQ(churn.pair(cluster(0), cluster(1)), incumbent);
  EXPECT_EQ(churn.oracle(cluster(0), cluster(1)), incumbent);
  EXPECT_EQ(churn.topo.external_length(cluster(0), cluster(1)), 8.0);
  EXPECT_EQ(churn.topo.border_epoch(cluster(0)), epoch);
}

TEST(BorderRepairBox, FarAdditionVisitsNoNodeAndMovesNoBorder) {
  // Three grids; a node joins A far from every other cluster. Both of A's
  // pairs are settled by the boxes: no query, no tree node, no border.
  Churn churn(Grids({{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}}));
  const std::vector<std::pair<int, int>> pairs{{0, 1}, {0, 2}, {1, 2}};
  std::vector<Pair> before;
  for (const auto& [a, b] : pairs) {
    before.push_back(churn.pair(cluster(a), cluster(b)));
  }
  const std::uint64_t rejects = counter("churn.border_box_rejects");
  const std::uint64_t add_scans = counter("churn.border_add_scans");
  const std::uint64_t visited = counter("spatial.nodes_visited");
  const std::uint64_t epoch = churn.topo.border_epoch(cluster(0));
  churn.add({-1000.0, -1000.0}, cluster(0));
  EXPECT_EQ(counter("churn.border_box_rejects"), rejects + 2);
  EXPECT_EQ(counter("churn.border_add_scans"), add_scans);
  EXPECT_EQ(counter("spatial.nodes_visited"), visited);
  EXPECT_EQ(churn.topo.border_epoch(cluster(0)), epoch);
  std::size_t i = 0;
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(churn.pair(cluster(a), cluster(b)), before[i++]);
    EXPECT_EQ(churn.pair(cluster(a), cluster(b)),
              churn.oracle(cluster(a), cluster(b)));
  }
}

TEST(BorderRepairBox, PendingPointOutsideTheRootBoxStillWins) {
  // A spans [0,5]^2, B [200,205] x [0,5]; the incumbent is 195 long. A
  // point p joins B at (100,300): too far from A to move the border, and
  // one addition stays within B's rebuild budget, so p waits in B's
  // pending buffer, outside its index root box. A node x then joins A at
  // (100,295): x is ~307 from B's root box but 5 from p, so only a box
  // that covers the pending points lets its query run — and p must win.
  Churn churn(Grids({{0.0, 0.0}, {200.0, 0.0}}));
  ASSERT_EQ(churn.topo.external_length(cluster(0), cluster(1)), 195.0);
  const NodeId p = churn.add({100.0, 300.0}, cluster(1));
  ASSERT_EQ(churn.pair(cluster(0), cluster(1)),
            churn.oracle(cluster(0), cluster(1)));
  ASSERT_NE(churn.topo.border(cluster(1), cluster(0)), p);

  const std::uint64_t rejects = counter("churn.border_box_rejects");
  const NodeId x = churn.add({100.0, 295.0}, cluster(0));
  EXPECT_EQ(counter("churn.border_box_rejects"), rejects);
  EXPECT_EQ(churn.pair(cluster(0), cluster(1)), Pair(x, p));
  EXPECT_EQ(churn.oracle(cluster(0), cluster(1)), Pair(x, p));
  EXPECT_EQ(churn.topo.external_length(cluster(0), cluster(1)), 5.0);
}

}  // namespace
}  // namespace hfc
