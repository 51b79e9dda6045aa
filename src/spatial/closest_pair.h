// The §3.3 border-pair rule, written once: the border pair of two node
// sets is their closest cross-set pair, ties broken by the smallest
// (x, y). HfcTopology (sibling borders at every level, churn repair) and
// the live-link view (crash fallback) choose every pair here.
//
// With a DynamicSpatialSet on both sides the pair comes from
// bichromatic_closest_pair; otherwise from an ascending strict-`<` scan
// over the caller's distance. Both give the lex-min (d, x, y) pair, as
// long as the distance is euclidean() over the sets' coordinates
// (DESIGN.md §11) — callers attach sets only when it is.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "spatial/dynamic_set.h"
#include "util/ids.h"

namespace hfc {

/// One side of a pair query: members ascending, and the side's spatial
/// set over the same ids when it carries one.
struct PairSide {
  const std::vector<NodeId>& members;
  const DynamicSpatialSet* set = nullptr;
};

/// The default accept predicate: every member takes part.
struct AcceptAll {
  constexpr bool operator()(NodeId /*node*/) const { return true; }
};

/// Closest pair x ∈ a, y ∈ b: the lex-min (distance(x, y), x, y) among
/// the members `accept` admits; not found when a side admits none. An
/// accept predicate forces the scan, and asks it once per member: the
/// admitted members of each side are filtered first, then scanned.
/// `stats.point_evals` counts the distance evaluations on either path.
/// A `seed` — any admitted pair with its distance — bounds the search
/// from the start; the answer stays the lex-min pair.
template <class Distance, class Accept = AcceptAll>
[[nodiscard]] BcpResult closest_pair(PairSide a, PairSide b,
                                     const Distance& distance,
                                     QueryStats& stats,
                                     const Accept& accept = {},
                                     const BcpResult& seed = {}) {
  if constexpr (std::is_same_v<Accept, AcceptAll>) {
    if (a.set != nullptr && b.set != nullptr) {
      return bichromatic_closest_pair(*a.set, *b.set, *a.set->coords(),
                                      stats, seed);
    }
  } else {
    const auto admitted = [&accept](const std::vector<NodeId>& members) {
      std::vector<NodeId> out;
      for (const NodeId m : members) {
        if (accept(m)) out.push_back(m);
      }
      return out;
    };
    const std::vector<NodeId> xs = admitted(a.members);
    const std::vector<NodeId> ys = admitted(b.members);
    return closest_pair(PairSide{xs}, PairSide{ys}, distance, stats,
                        AcceptAll{}, seed);
  }
  BcpResult best = seed;
  std::uint64_t evals = 0;
  for (const NodeId x : a.members) {
    if (!accept(x)) continue;
    for (const NodeId y : b.members) {
      if (!accept(y)) continue;
      const double d = distance(x, y);
      ++evals;
      // Pairs come in ascending (x, y), so only a seed can be tied by a
      // lex-smaller pair.
      if (d < best.dist ||
          (d == best.dist && std::pair(x.value(), y.value()) <
                                 std::pair(best.x, best.y))) {
        best = BcpResult{x.value(), y.value(), d};
      }
    }
  }
  stats.point_evals += evals;
  return best;
}

/// The member of `side` nearest to `q` and strictly closer than `bound`,
/// smallest id on ties — what an ascending strict-`<` scan seeded with
/// `bound` keeps. The scan evaluates distance(q, m); a side with a set
/// queries it at q's coordinates.
template <class Distance>
[[nodiscard]] SpatialHit nearest_member(NodeId q, PairSide side, double bound,
                                        const Distance& distance,
                                        QueryStats& stats) {
  if (side.set != nullptr) {
    const SpatialHit hit =
        side.set->nearest((*side.set->coords())[q.idx()], bound, stats);
    return hit.found() && hit.dist < bound ? hit : SpatialHit{};
  }
  SpatialHit best{-1, bound};
  for (const NodeId m : side.members) {
    const double d = distance(q, m);
    ++stats.point_evals;
    if (d < best.dist) best = SpatialHit{m.value(), d};
  }
  return best;
}

}  // namespace hfc
