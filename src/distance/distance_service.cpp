#include "distance/distance_service.h"

#include "util/thread_pool.h"

namespace hfc {

const char* tier_name(DistanceTier tier) {
  switch (tier) {
    case DistanceTier::kTruth:
      return "truth";
    case DistanceTier::kCoordinate:
      return "coordinate";
    case DistanceTier::kProbe:
      return "probe";
  }
  return "unknown";
}

std::vector<double> DistanceService::pairs(
    const std::vector<std::pair<std::size_t, std::size_t>>& queries) const {
  std::vector<double> out(queries.size(), 0.0);
  // Each task writes only its own slot; `at` is a pure function of the
  // pair for the deterministic tiers, so the result is bit-identical for
  // any thread count. (Probe-tier measurements stay deterministic as long
  // as no pair appears twice in one batch — each pair's probe sequence is
  // then consumed by a single task.)
  parallel_for(queries.size(), 64, [&](std::size_t k) {
    out[k] = at(queries[k].first, queries[k].second);
  });
  return out;
}

std::function<double(NodeId, NodeId)> DistanceService::fn() const {
  return [this](NodeId a, NodeId b) { return at(a.idx(), b.idx()); };
}

std::size_t resolve_cache_rows(std::size_t requested, std::size_t fallback) {
  return requested > 0 ? requested : fallback;
}

}  // namespace hfc
