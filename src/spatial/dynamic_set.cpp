#include "spatial/dynamic_set.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/require.h"

namespace hfc {

namespace {

/// SpatialFilter rejecting tombstoned ids; ctx is the dead set.
bool not_dead(std::int32_t id, const void* ctx) {
  const auto* dead = static_cast<const std::unordered_set<std::int32_t>*>(ctx);
  return dead->find(id) == dead->end();
}

}  // namespace

void DynamicSpatialSet::bulk_load(const PointSet& coords,
                                  std::vector<std::int32_t> ids) {
  coords_ = &coords;
  labels_ = nullptr;
  std::sort(ids.begin(), ids.end());
  require(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
          "DynamicSpatialSet: duplicate ids");
  live_ = std::move(ids);
  rebuild();
}

void DynamicSpatialSet::rebuild() {
  index_.reset();
  pending_.clear();
  dead_.clear();
  if (live_.size() < kBruteThreshold) return;
  static obs::Counter& rebuilds =
      obs::MetricsRegistry::global().counter("spatial.set_rebuilds");
  rebuilds.add(1);
  index_ = std::make_unique<KdTree>(*coords_, live_);
}

void DynamicSpatialSet::insert(std::int32_t id) {
  const auto it = std::lower_bound(live_.begin(), live_.end(), id);
  require(it == live_.end() || *it != id, "DynamicSpatialSet: id already live");
  live_.insert(it, id);
  if (index_ == nullptr) return;
  if (dead_.erase(id) > 0) return;  // re-activation of an indexed point
  pending_.insert(std::lower_bound(pending_.begin(), pending_.end(), id), id);
}

void DynamicSpatialSet::erase(std::int32_t id) {
  const auto it = std::lower_bound(live_.begin(), live_.end(), id);
  require(it != live_.end() && *it == id, "DynamicSpatialSet: id not live");
  live_.erase(it);
  if (index_ == nullptr) return;
  const auto pit = std::lower_bound(pending_.begin(), pending_.end(), id);
  if (pit != pending_.end() && *pit == id) {
    pending_.erase(pit);
    return;
  }
  dead_.insert(id);
}

bool DynamicSpatialSet::contains(std::int32_t id) const {
  return std::binary_search(live_.begin(), live_.end(), id);
}

void DynamicSpatialSet::maybe_rebuild() {
  if (index_ == nullptr) {
    if (live_.size() >= kBruteThreshold) rebuild();
    return;
  }
  if (pending_.size() + dead_.size() <= rebuild_budget(index_->size())) return;
  // A fresh build over the live ids (or, below the brute threshold, no
  // index at all); the buffers empty, so queries are pure index hits.
  rebuild();
}

SpatialHit DynamicSpatialSet::nearest(std::span<const double> q,
                                      double bound, QueryStats& stats) const {
  SpatialHit best;
  best.dist = bound;
  best.id = std::numeric_limits<std::int32_t>::max();
  if (index_ != nullptr) {
    const SpatialHit hit =
        index_->nearest(q, bound, stats, &not_dead, &dead_);
    if (hit.found()) best = hit;
    // Pending points are outside the index; scan them with the same rule.
    for (const std::int32_t id : pending_) {
      ++stats.point_evals;
      const double d = euclidean(q, (*coords_)[static_cast<std::size_t>(id)]);
      if (d < best.dist || (d == best.dist && id < best.id)) {
        best.dist = d;
        best.id = id;
      }
    }
  } else {
    for (const std::int32_t id : live_) {
      ++stats.point_evals;
      const double d = euclidean(q, (*coords_)[static_cast<std::size_t>(id)]);
      if (d < best.dist || (d == best.dist && id < best.id)) {
        best.dist = d;
        best.id = id;
      }
    }
  }
  if (best.id == std::numeric_limits<std::int32_t>::max()) return SpatialHit{};
  return best;
}

void DynamicSpatialSet::retag(const std::vector<std::int32_t>& labels) {
  require(pending_.empty() && dead_.empty(),
          "DynamicSpatialSet::retag: mutation buffers not empty");
  labels_ = &labels;
  if (index_ != nullptr) index_->retag(labels);
}

SpatialHit DynamicSpatialSet::nearest_foreign(std::span<const double> q,
                                              std::int32_t label, double bound,
                                              QueryStats& stats) const {
  require(pending_.empty() && dead_.empty(),
          "DynamicSpatialSet::nearest_foreign: mutation buffers not empty");
  require(labels_ != nullptr, "DynamicSpatialSet::nearest_foreign: retag first");
  if (index_ != nullptr) return index_->nearest_foreign(q, label, bound, stats);
  SpatialHit best;
  best.dist = bound;
  best.id = std::numeric_limits<std::int32_t>::max();
  for (const std::int32_t id : live_) {
    if ((*labels_)[static_cast<std::size_t>(id)] == label) continue;
    ++stats.point_evals;
    const double d = euclidean(q, (*coords_)[static_cast<std::size_t>(id)]);
    if (d < best.dist || (d == best.dist && id < best.id)) {
      best.dist = d;
      best.id = id;
    }
  }
  if (best.id == std::numeric_limits<std::int32_t>::max()) return SpatialHit{};
  return best;
}

std::size_t DynamicSpatialSet::resident_bytes() const {
  std::size_t bytes = live_.capacity() * sizeof(std::int32_t) +
                      pending_.capacity() * sizeof(std::int32_t) +
                      dead_.size() * 2 * sizeof(std::int32_t*);
  if (index_ != nullptr) bytes += index_->resident_bytes();
  return bytes;
}

BcpResult bichromatic_closest_pair(const DynamicSpatialSet& a,
                                   const DynamicSpatialSet& b,
                                   const PointSet& coords,
                                   QueryStats& stats, const BcpResult& seed) {
  // Enumerate the smaller side against the larger side's index. The
  // per-query smallest-id tie-break plus the full (d, x, y) update below
  // make the answer independent of which side is enumerated.
  const bool enumerate_a = a.live_size() <= b.live_size();
  const DynamicSpatialSet& outer = enumerate_a ? a : b;
  const DynamicSpatialSet& inner = enumerate_a ? b : a;
  BcpResult best = seed;
  for (const std::int32_t o : outer.live_ids()) {
    const SpatialHit hit =
        inner.nearest(coords[static_cast<std::size_t>(o)], best.dist, stats);
    if (!hit.found()) continue;
    const std::int32_t x = enumerate_a ? o : hit.id;
    const std::int32_t y = enumerate_a ? hit.id : o;
    if (hit.dist < best.dist ||
        (hit.dist == best.dist &&
         (x < best.x || (x == best.x && y < best.y)))) {
      best.dist = hit.dist;
      best.x = x;
      best.y = y;
    }
  }
  return best;
}

}  // namespace hfc
