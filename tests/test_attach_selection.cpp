// The streaming attach shortlist (src/streaming/attach_select.h) against
// its full-pool oracle (tests/oracle/attach_candidates.h). A joiner's
// offers are built the way StreamingSession builds them in each mode —
// kLocating: its own cluster's members keyed by coordinate distance, every
// member as the fallback, cluster by cluster nearest box first and cut at
// the selection's reach; kClique: its own cluster's head, the other
// clusters' heads as the fallback — over worlds with blocked, crashed and
// excluded members. The bounded insertion must keep exactly the keys a
// sort of the whole pool keeps, ties to the smaller id.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "coords/point.h"
#include "spatial/spatial_index.h"
#include "oracle/attach_candidates.h"
#include "streaming/attach_select.h"
#include "streaming/streaming_session.h"
#include "util/rng.h"

namespace hfc {
namespace {

NodeId node(std::size_t id) { return NodeId(static_cast<std::int32_t>(id)); }

/// Subscribed members 0..n-1 and one joiner among them. A member is
/// eligible as an attach point unless blocked (a broken root path),
/// crashed or excluded (a leaver mid-withdrawal).
struct World {
  std::vector<Point> coords;
  std::vector<int> cluster;
  std::vector<bool> blocked;
  std::vector<bool> crashed;
  NodeId joiner;
  NodeId exclude;

  void add(Point p, int label, bool is_blocked = false,
           bool is_crashed = false) {
    coords.push_back(std::move(p));
    cluster.push_back(label);
    blocked.push_back(is_blocked);
    crashed.push_back(is_crashed);
  }
  [[nodiscard]] std::size_t size() const { return coords.size(); }
  [[nodiscard]] int labels() const {
    int n = 0;
    for (const int c : cluster) n = std::max(n, c + 1);
    return n;
  }
  [[nodiscard]] double distance(NodeId x) const {
    return euclidean(coords[x.idx()], coords[joiner.idx()]);
  }
  [[nodiscard]] bool up_and_unblocked(NodeId x) const {
    return !blocked[x.idx()] && !crashed[x.idx()];
  }
  /// kClique's election: the smallest eligible member of the cluster.
  [[nodiscard]] NodeId head(int label) const {
    for (std::size_t i = 0; i < size(); ++i) {
      if (cluster[i] == label && node(i) != joiner &&
          up_and_unblocked(node(i))) {
        return node(i);
      }
    }
    return NodeId{};
  }
};

/// The joiner's shortlist keys under `mode`, selected by `select`
/// (select_attach_keys or the oracle, same signature).
template <class Select>
std::vector<AttachKey> shortlist(const World& w, StreamMode mode,
                                 std::size_t budget, const Select& select) {
  const int own = w.cluster[w.joiner.idx()];
  const auto distance = [&w](NodeId x) { return w.distance(x); };
  std::vector<AttachKey> keys;
  if (mode == StreamMode::kLocating) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (w.cluster[i] == own && node(i) != w.joiner) {
        keys.emplace_back(w.distance(node(i)), node(i));
      }
    }
    return select(
        keys, budget,
        [&w](NodeId x) {
          return x != w.joiner && x != w.exclude && w.up_and_unblocked(x);
        },
        distance,
        [&w](const auto& offer, const auto& reach) {
          // As the session: clusters nearest member box first, stopping
          // at the first box beyond reach (the oracle's reach is
          // unbounded, so it offers every member).
          const Point& at = w.coords[w.joiner.idx()];
          std::vector<std::pair<double, int>> order;
          for (int c = 0; c < w.labels(); ++c) {
            Point lo(2, std::numeric_limits<double>::infinity());
            Point hi(2, -std::numeric_limits<double>::infinity());
            for (std::size_t i = 0; i < w.size(); ++i) {
              if (w.cluster[i] != c) continue;
              for (std::size_t d = 0; d < 2; ++d) {
                lo[d] = std::min(lo[d], w.coords[i][d]);
                hi[d] = std::max(hi[d], w.coords[i][d]);
              }
            }
            order.emplace_back(box_distance(lo.data(), hi.data(), at), c);
          }
          std::sort(order.begin(), order.end());
          for (const auto& [bound, c] : order) {
            if (bound > reach()) break;
            for (std::size_t i = 0; i < w.size(); ++i) {
              if (w.cluster[i] == c) offer(node(i));
            }
          }
        });
  }
  const NodeId head = w.head(own);
  if (head.valid()) keys.emplace_back(w.distance(head), head);
  return select(
      keys, budget,
      [&w](NodeId x) { return x != w.joiner && x != w.exclude; }, distance,
      [&w, own](const auto& offer, const auto& /*reach*/) {
        for (int c = 0; c < w.labels(); ++c) {
          if (c == own) continue;
          if (const NodeId other = w.head(c); other.valid()) offer(other);
        }
      });
}

std::vector<AttachKey> library(const World& w, StreamMode mode,
                               std::size_t budget) {
  return shortlist(w, mode, budget, [](const auto&... args) {
    return select_attach_keys(args...);
  });
}

std::vector<AttachKey> full_pool(const World& w, StreamMode mode,
                                 std::size_t budget) {
  return shortlist(w, mode, budget, [](const auto&... args) {
    return oracle::attach_keys(args...);
  });
}

std::vector<NodeId> ids(const std::vector<AttachKey>& keys) {
  std::vector<NodeId> out;
  for (const AttachKey& key : keys) out.push_back(key.second);
  return out;
}

TEST(StreamingCandidateSelection, EqualDistancesBreakTiesById) {
  // Members 1..9 share one point, 1 away from the joiner 0; 3 and 5 are
  // ineligible. The nearest four are the four smallest eligible ids.
  World w;
  w.add({0.0, 0.0}, 0);
  for (int i = 1; i <= 9; ++i) w.add({1.0, 0.0}, 0, i == 3, i == 5);
  w.joiner = node(0);
  EXPECT_EQ(ids(library(w, StreamMode::kLocating, 4)),
            (std::vector<NodeId>{node(1), node(2), node(4), node(6)}));
  EXPECT_EQ(library(w, StreamMode::kLocating, 4),
            full_pool(w, StreamMode::kLocating, 4));
}

TEST(StreamingCandidateSelection, BudgetsOfOneEightAndBeyondTheCluster) {
  // Ten members at distances 10, 9, ..., 1 (ids ascending), one more
  // cluster far away.
  World w;
  w.add({0.0, 0.0}, 0);
  for (int i = 1; i <= 10; ++i) w.add({static_cast<double>(11 - i), 0.0}, 0);
  for (int i = 0; i < 4; ++i) w.add({500.0, static_cast<double>(i)}, 1);
  w.joiner = node(0);
  for (const std::size_t budget : {1u, 8u, 11u, 64u}) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    const std::vector<AttachKey> got =
        library(w, StreamMode::kLocating, budget);
    EXPECT_EQ(got, full_pool(w, StreamMode::kLocating, budget));
    ASSERT_EQ(got.size(), std::min<std::size_t>(budget, 10));
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].second, node(10 - k));
      EXPECT_EQ(got[k].first, static_cast<double>(k + 1));
    }
  }
}

TEST(StreamingCandidateSelection, BlockedCrashedAndExcludedMembersNeverOffer) {
  World w;
  w.add({0.0, 0.0}, 0);
  w.add({1.0, 0.0}, 0, /*is_blocked=*/true);
  w.add({2.0, 0.0}, 0, false, /*is_crashed=*/true);
  w.add({3.0, 0.0}, 0);  // the leaver
  w.add({4.0, 0.0}, 0);
  w.add({5.0, 0.0}, 0);
  w.joiner = node(0);
  w.exclude = node(3);
  EXPECT_EQ(ids(library(w, StreamMode::kLocating, 8)),
            (std::vector<NodeId>{node(4), node(5)}));
  // kClique: the head is the smallest up, unblocked member, 3. Excluded,
  // it is not offered, and no other cluster's head stands in.
  EXPECT_EQ(ids(library(w, StreamMode::kClique, 8)), std::vector<NodeId>{});
  w.exclude = node(4);
  EXPECT_EQ(ids(library(w, StreamMode::kClique, 8)),
            (std::vector<NodeId>{node(3)}));
  for (const StreamMode mode : {StreamMode::kLocating, StreamMode::kClique}) {
    EXPECT_EQ(library(w, mode, 8), full_pool(w, mode, 8));
  }
}

TEST(StreamingCandidateSelection, FallsBackWhenOwnClusterOffersNothing) {
  // The joiner's cluster 0 offers only blocked or crashed members, so
  // every member anywhere is offered: the two nearest are in cluster 2,
  // then cluster 1's.
  World w;
  w.add({0.0, 0.0}, 0);
  w.add({0.5, 0.0}, 0, /*is_blocked=*/true);
  w.add({0.6, 0.0}, 0, false, /*is_crashed=*/true);
  w.add({30.0, 0.0}, 1);
  w.add({31.0, 0.0}, 1);
  w.add({20.0, 0.0}, 2);
  w.add({20.0, 0.0}, 2);
  w.joiner = node(0);
  EXPECT_EQ(ids(library(w, StreamMode::kLocating, 3)),
            (std::vector<NodeId>{node(5), node(6), node(3)}));
  // kClique: no own head, so the other clusters' heads.
  EXPECT_EQ(ids(library(w, StreamMode::kClique, 3)),
            (std::vector<NodeId>{node(5), node(3)}));
  for (const StreamMode mode : {StreamMode::kLocating, StreamMode::kClique}) {
    EXPECT_EQ(library(w, mode, 3), full_pool(w, mode, 3));
  }
}

TEST(StreamingCandidateSelection, MatchesFullPoolSortOnRandomWorlds) {
  // Small integer grids, so equal distances are common; every world is
  // checked in both modes at budgets 1, 8 and beyond the member count.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    World w;
    const int clusters = rng.uniform_int(1, 5);
    const int n = rng.uniform_int(1, 60);
    for (int i = 0; i < n; ++i) {
      w.add({static_cast<double>(rng.uniform_int(0, 4)),
             static_cast<double>(rng.uniform_int(0, 4))},
            rng.uniform_int(0, clusters - 1), rng.chance(0.2),
            rng.chance(0.1));
    }
    w.joiner = node(rng.pick_index(w.size()));
    if (rng.chance(0.5)) w.exclude = node(rng.pick_index(w.size()));
    for (const StreamMode mode : {StreamMode::kLocating, StreamMode::kClique}) {
      for (const std::size_t budget : {1u, 8u, 100u}) {
        EXPECT_EQ(library(w, mode, budget), full_pool(w, mode, budget))
            << "seed " << seed << " budget " << budget << " mode "
            << (mode == StreamMode::kLocating ? "locating" : "clique");
      }
    }
  }
}

}  // namespace
}  // namespace hfc
