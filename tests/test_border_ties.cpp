// Exact-tie border selection. On the block lattice (block_lattice.h)
// adjacent blocks are exactly 8 apart across three node pairs, so every
// border choice is a tie break, and the §3.3 rule breaks it to the
// lex-min (x, y) pair. Every place that chooses a border pair must agree
// with a brute all-pairs oracle: HfcTopology's construction, its
// full-rescan and add-scan churn repairs, its crash fallback (the
// live-link view), and a levels = 1 HfcTopology built from the
// coordinates over the same clusters. Each runs with the spatial index
// (the coordinate-service constructor) and with the scan (the
// OverlayDistance constructor), over clusters of one block (9 proxies,
// below DynamicSpatialSet's brute threshold) and of four blocks (36
// proxies, above it). The crash
// fallback's accept-predicate scan is also checked on its own: one
// predicate call per member, the per-pair scan's pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "block_lattice.h"
#include "distance/coord_distance.h"
#include "obs/metrics.h"
#include "overlay/hfc_topology.h"
#include "routing/live_links.h"
#include "spatial/closest_pair.h"
#include "spatial/dynamic_set.h"

namespace hfc {
namespace {

using Pair = std::pair<NodeId, NodeId>;

/// The lattice, one cluster per block or per 2 x 2 quad of blocks. For
/// quads the blocks move apart by 20 per quad step, so blocks inside a
/// quad still tie at 8 while quads tie at 28 (six pairs each).
std::vector<Point> lattice_coords(bool quads) {
  std::vector<Point> coords = block_lattice().coords;
  if (quads) {
    for (Point& p : coords) {
      for (double& v : p) v += 20.0 * static_cast<int>(v / 20.0);
    }
  }
  return coords;
}

/// Leaf clustering that yields exactly the blocks or the quads.
MultiLevelParams bi_level(bool quads) {
  MultiLevelParams params;
  params.levels = 1;
  params.leaf_zahn = ZahnParams{};
  if (quads) params.leaf_zahn.inconsistency_factor = 10.0;
  return params;
}

/// The hierarchy's leaf groups as a flat clustering (cluster i is the
/// i-th level-1 group).
Clustering leaf_clustering(const HfcTopology& h) {
  Clustering clustering;
  clustering.assignment.resize(h.node_count());
  for (const ClusterId leaf : h.groups_at(1)) {
    const ClusterId id(static_cast<std::int32_t>(clustering.members.size()));
    for (const NodeId n : h.members(leaf)) {
      clustering.assignment[n.idx()] = id;
    }
    clustering.members.push_back(h.members(leaf));
  }
  return clustering;
}

/// Brute all-pairs oracle: the lex-min (d, x, y) over x ∈ xs, y ∈ ys
/// that `up` admits (null admits everyone).
Pair oracle_pair(const std::vector<Point>& coords,
                 const std::vector<NodeId>& xs, const std::vector<NodeId>& ys,
                 const std::function<bool(NodeId)>& up = nullptr) {
  std::tuple<double, NodeId, NodeId> best{
      std::numeric_limits<double>::infinity(), NodeId{}, NodeId{}};
  for (const NodeId x : xs) {
    for (const NodeId y : ys) {
      if (up && (!up(x) || !up(y))) continue;
      best = std::min(best, std::make_tuple(
                                euclidean(coords[x.idx()], coords[y.idx()]),
                                x, y));
    }
  }
  return {std::get<1>(best), std::get<2>(best)};
}

ClusterId cluster(std::size_t c) {
  return ClusterId(static_cast<std::int32_t>(c));
}

/// Every stored border pair of `topo` is the oracle's.
void expect_oracle_borders(const HfcTopology& topo,
                           const std::vector<Point>& coords) {
  for (std::size_t a = 0; a < topo.cluster_count(); ++a) {
    for (std::size_t b = a + 1; b < topo.cluster_count(); ++b) {
      const Pair want = oracle_pair(coords, topo.members(cluster(a)),
                                    topo.members(cluster(b)));
      EXPECT_EQ(Pair(topo.border(cluster(a), cluster(b)),
                     topo.border(cluster(b), cluster(a))),
                want)
          << "clusters " << a << " and " << b;
    }
  }
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

void check_lex_min_everywhere(bool quads, bool spatial) {
  SCOPED_TRACE(testing::Message() << (quads ? "quads" : "blocks")
                                  << (spatial ? ", spatial" : ", brute"));
  std::vector<Point> coords = lattice_coords(quads);
  const HfcTopology hierarchy(coords, bi_level(quads));
  const std::vector<ClusterId>& leaves = hierarchy.groups_at(1);
  const std::size_t size = quads ? 36 : 9;
  ASSERT_EQ(leaves.size(), coords.size() / size);
  ASSERT_EQ(size > DynamicSpatialSet::kBruteThreshold, quads);

  // A levels = 1 hierarchy: the root's children are the clusters.
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    ASSERT_EQ(hierarchy.members(leaves[i]).size(), size);
    for (std::size_t j = i + 1; j < leaves.size(); ++j) {
      EXPECT_EQ(Pair(hierarchy.border(leaves[i], leaves[j]),
                     hierarchy.border(leaves[j], leaves[i])),
                oracle_pair(coords, hierarchy.members(leaves[i]),
                            hierarchy.members(leaves[j])))
          << "sibling groups " << i << " and " << j;
    }
  }

  // Construction.
  CoordDistanceService dist(coords);
  const std::unique_ptr<HfcTopology> built =
      spatial ? std::make_unique<HfcTopology>(leaf_clustering(hierarchy), dist)
              : std::make_unique<HfcTopology>(leaf_clustering(hierarchy),
                                              dist.fn());
  HfcTopology& topo = *built;
  ASSERT_EQ(topo.spatial_active(), spatial);
  expect_oracle_borders(topo, coords);

  // Full-rescan repair: remove the end in cluster 0 of its border pair
  // with cluster 1. On the lattice the next pair ties it.
  const NodeId removed = topo.border(cluster(0), cluster(1));
  const std::uint64_t rescans = counter("churn.border_rescans");
  topo.on_member_removed(removed);
  EXPECT_GT(counter("churn.border_rescans"), rescans);
  expect_oracle_borders(topo, coords);

  // Add-scan repair: a new node at the removed node's place joins
  // cluster 0, tying every pair the removed node was part of. A tie
  // never displaces the incumbent, whose ids are all smaller.
  const NodeId added(static_cast<std::int32_t>(coords.size()));
  coords.push_back(coords[removed.idx()]);
  dist.append(coords.back());
  topo.append_node();
  const std::uint64_t add_scans = counter("churn.border_add_scans");
  const std::uint64_t rescans_before_add = counter("churn.border_rescans");
  topo.on_member_added(added, cluster(0));
  EXPECT_GT(counter("churn.border_add_scans"), add_scans);
  EXPECT_EQ(counter("churn.border_rescans"), rescans_before_add);
  expect_oracle_borders(topo, coords);

  // Crash fallback: crash either end of each stored pair.
  for (std::size_t a = 0; a < topo.cluster_count(); ++a) {
    for (std::size_t b = a + 1; b < topo.cluster_count(); ++b) {
      for (const NodeId crashed : {topo.border(cluster(a), cluster(b)),
                                   topo.border(cluster(b), cluster(a))}) {
        const auto up = [crashed](NodeId n) { return n != crashed; };
        const LiveLinkView<ClusterId, HfcTopology> view(topo, topo.distance(),
                                                        up);
        const CspLink got = view.link(cluster(a), cluster(b));
        ASSERT_TRUE(got.found);
        EXPECT_EQ(view.fallbacks(), 1u);
        EXPECT_EQ(Pair(got.exit, got.entry),
                  oracle_pair(coords, topo.members(cluster(a)),
                              topo.members(cluster(b)), up))
            << "clusters " << a << " and " << b << ", crashed " << crashed;
      }
    }
  }
}

TEST(BorderPairTies, LexMinPairWhereverBordersAreChosen) {
  for (const bool quads : {false, true}) {
    for (const bool spatial : {true, false}) {
      check_lex_min_everywhere(quads, spatial);
    }
  }
}

/// The live-link view falls back over sibling groups as over clusters:
/// on a two-level hierarchy of the quad lattice (blocks under quads),
/// crashing either end of a level-2 sibling link yields the oracle's
/// lex-min surviving pair.
TEST(BorderPairTies, LevelTwoSiblingFallbackIsLexMin) {
  const std::vector<Point> coords = lattice_coords(true);
  MultiLevelParams params = bi_level(false);
  params.levels = 2;
  // Blocks (gaps of 8) and quads (centroids 30 apart, blocks 10) split.
  params.leaf_zahn.inconsistency_factor = 2.0;
  params.factor_growth = 1.0;
  const HfcTopology hierarchy(coords, params);
  ASSERT_EQ(hierarchy.levels(), 2u);
  ASSERT_EQ(hierarchy.groups_at(1).size(), 16u);
  const std::vector<ClusterId>& groups = hierarchy.groups_at(2);
  ASSERT_EQ(groups.size(), 4u);
  const OverlayDistance distance = [&coords](NodeId x, NodeId y) {
    return euclidean(coords[x.idx()], coords[y.idx()]);
  };
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (std::size_t j = i + 1; j < groups.size(); ++j) {
      const CspLink stored = hierarchy.link(groups[i], groups[j]);
      ASSERT_TRUE(stored.found);
      for (const NodeId crashed : {stored.exit, stored.entry}) {
        const auto up = [crashed](NodeId n) { return n != crashed; };
        const LiveLinkView<ClusterId, HfcTopology> view(
            hierarchy, distance, up);
        const CspLink got = view.link(groups[i], groups[j]);
        ASSERT_TRUE(got.found);
        EXPECT_EQ(view.fallbacks(), 1u);
        EXPECT_EQ(Pair(got.exit, got.entry),
                  oracle_pair(coords, hierarchy.members(groups[i]),
                              hierarchy.members(groups[j]), up))
            << "groups " << i << " and " << j << ", crashed " << crashed;
      }
    }
  }
}

/// An accept predicate is asked once per member, not once per pair, and
/// the pair is still the per-pair scan's: every block pair of the
/// lattice, under a predicate that drops a pattern of members from both
/// sides (every pair ties at 8, so each answer is a tie break).
TEST(ClosestPairAccept, AsksEachMemberOnceAndKeepsThePerPairScansPair) {
  const std::vector<Point> coords = block_lattice().coords;
  std::vector<std::vector<NodeId>> blocks(coords.size() / 9);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    blocks[i / 9].push_back(NodeId(static_cast<std::int32_t>(i)));
  }
  const auto distance = [&coords](NodeId x, NodeId y) {
    return euclidean(coords[x.idx()], coords[y.idx()]);
  };
  for (const int drop : {0, 2, 3}) {
    std::uint64_t calls = 0;
    const std::function<bool(NodeId)> up = [&calls, drop](NodeId n) {
      ++calls;
      return drop == 0 || n.value() % drop != 0;
    };
    for (std::size_t a = 0; a < blocks.size(); ++a) {
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (a == b) continue;
        calls = 0;
        QueryStats stats;
        const BcpResult got = closest_pair(PairSide{blocks[a]},
                                           PairSide{blocks[b]}, distance,
                                           stats, up);
        EXPECT_LE(calls, blocks[a].size() + blocks[b].size());
        const std::uint64_t admitted_a = static_cast<std::uint64_t>(
            std::count_if(blocks[a].begin(), blocks[a].end(), up));
        const std::uint64_t admitted_b = static_cast<std::uint64_t>(
            std::count_if(blocks[b].begin(), blocks[b].end(), up));
        EXPECT_EQ(stats.point_evals, admitted_a * admitted_b);
        ASSERT_TRUE(got.found());
        EXPECT_EQ(Pair(NodeId(got.x), NodeId(got.y)),
                  oracle_pair(coords, blocks[a], blocks[b], up))
            << "blocks " << a << " and " << b << ", drop " << drop;
        EXPECT_EQ(got.dist, distance(NodeId(got.x), NodeId(got.y)));
      }
    }
  }
}

}  // namespace
}  // namespace hfc
