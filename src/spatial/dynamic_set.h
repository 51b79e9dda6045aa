// Churn-capable spatial set: a bulk-loaded immutable index plus small
// mutation buffers, rebuilt lazily on a budget (DESIGN.md §11).
//
// HfcTopology keeps one of these per live cluster and the dynamic overlay
// keeps one over the active set. Mutations (insert/erase) are O(log n)
// buffer updates; queries answer over (indexed − tombstoned) ∪ pending,
// so they are exact at every instant without rebuilding. `maybe_rebuild`
// replaces the index with a fresh KdTree over the live ids once the
// buffers exceed the rebuild budget, max(32, indexed/4) (DESIGN.md §13) —
// callers invoke it only from serial mutation points, never concurrently
// with queries, so the parallel repair sweeps can fan out over `nearest`
// safely.
//
// Sets smaller than 32 points skip the index entirely: a brute scan of
// the sorted live list is both exact and faster than tree traversal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "spatial/kd_tree.h"

namespace hfc {

class DynamicSpatialSet {
 public:
  /// Smallest set that carries an index at all.
  static constexpr std::size_t kBruteThreshold = 32;

  DynamicSpatialSet() = default;

  /// Reset to exactly `ids` over `coords` (which must outlive the set —
  /// a temporary is rejected at compile time; it may grow — rows are
  /// re-read through it on every access).
  void bulk_load(const PointSet& coords, std::vector<std::int32_t> ids);
  void bulk_load(PointSet&&, std::vector<std::int32_t>) = delete;

  void insert(std::int32_t id);
  void erase(std::int32_t id);
  [[nodiscard]] bool contains(std::int32_t id) const;

  /// Rebuild the index over the live ids when the mutation buffers
  /// exceed the rebuild budget. Serial mutation points only.
  void maybe_rebuild();

  /// The rebuild budget for a set of `indexed` points: max(32,
  /// indexed/4). Exact query results are independent of the budget — it
  /// only schedules when the index is rebuilt (each rebuild bumps the
  /// spatial.set_rebuilds counter).
  [[nodiscard]] static constexpr std::size_t rebuild_budget(
      std::size_t indexed) {
    return std::max<std::size_t>(32, indexed / 4);
  }

  /// Live ids, ascending.
  [[nodiscard]] const std::vector<std::int32_t>& live_ids() const {
    return live_;
  }
  [[nodiscard]] std::size_t live_size() const { return live_.size(); }
  /// The coordinate store the ids index (null before bulk_load).
  [[nodiscard]] const PointSet* coords() const { return coords_; }

  /// Nearest live point to `q` within `bound` (inclusive), smallest id
  /// on distance ties — the same answer a strict-`<` ascending scan of
  /// the live ids produces.
  [[nodiscard]] SpatialHit nearest(std::span<const double> q, double bound,
                                   QueryStats& stats) const;

  /// Attach component labels (indexed by point id, like
  /// KdTree::retag) for `nearest_foreign` queries. Call from serial
  /// points with empty mutation buffers; the labels vector must outlive
  /// the queries it serves.
  void retag(const std::vector<std::int32_t>& labels);

  /// Nearest live point whose label differs from `label`, within `bound`
  /// (inclusive), smallest id on ties. Requires a preceding `retag` and
  /// empty mutation buffers. Below the brute threshold this is an exact ascending
  /// scan — the tier the group-local construction pipeline leans on for
  /// small partition cells (DESIGN.md §14).
  [[nodiscard]] SpatialHit nearest_foreign(std::span<const double> q,
                                           std::int32_t label, double bound,
                                           QueryStats& stats) const;

  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  void rebuild();

  const PointSet* coords_ = nullptr;
  const std::vector<std::int32_t>* labels_ = nullptr;  ///< retag() target
  std::vector<std::int32_t> live_;     ///< sorted source of truth
  std::unique_ptr<KdTree> index_;
  std::vector<std::int32_t> pending_;  ///< live but not indexed (sorted)
  std::unordered_set<std::int32_t> dead_;  ///< indexed but not live
};

/// Closest cross-set pair: the exact minimum of euclidean(coords[x],
/// coords[y]) over x ∈ a, y ∈ b, ties broken by smallest (x, y). The
/// smaller side is enumerated against the larger side's index; the
/// result is independent of which side that is. A `seed` pair (x ∈ a,
/// y ∈ b, at its distance) starts the search bounded, which only prunes:
/// the answer is the same lex-min pair. `stats` accumulates the
/// traversal work (point_evals is the candidate-pair count the obs
/// counters report).
struct BcpResult {
  std::int32_t x = -1;
  std::int32_t y = -1;
  double dist = std::numeric_limits<double>::infinity();
  [[nodiscard]] bool found() const { return x >= 0; }
};

[[nodiscard]] BcpResult bichromatic_closest_pair(const DynamicSpatialSet& a,
                                                 const DynamicSpatialSet& b,
                                                 const PointSet& coords,
                                                 QueryStats& stats,
                                                 const BcpResult& seed = {});

}  // namespace hfc
