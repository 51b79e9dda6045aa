// Ground-truth tier: shortest-path delays through the physical network,
// derived lazily one source row at a time.
//
// The legacy path materialized `pairwise_delays(net, endpoints)` — an
// O(n^2) matrix that caps the reproduction at a few thousand proxies.
// This service runs the same per-source Dijkstra only when a row is
// actually touched and keeps at most `cache_rows` rows resident in a
// sharded LRU, so ground truth at n = 20000+
// costs O(cache_rows * n) memory instead of O(n^2).
//
// Bit-equality: `at(a, b)` reads row(max(a, b))[min(a, b)] — exactly the
// entry the packed `SymMatrix` from `pairwise_delays` holds for (a, b),
// computed by the same `dijkstra` from the same source. Consumers
// switched from the matrix to this service see identical doubles.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "distance/distance_service.h"
#include "distance/row_cache.h"
#include "topology/physical_network.h"
#include "util/ids.h"

namespace hfc {

class TruthDistanceService final : public DistanceService {
 public:
  /// `endpoints[i]` is the attachment router of node i. `cache_rows` = 0
  /// means the default of 256 resident rows.
  /// The network must outlive the service.
  TruthDistanceService(const PhysicalNetwork& net,
                       std::vector<RouterId> endpoints,
                       std::size_t cache_rows = 0);

  [[nodiscard]] std::size_t size() const override { return endpoints_.size(); }
  [[nodiscard]] double at(std::size_t a, std::size_t b) const override;
  [[nodiscard]] std::shared_ptr<const std::vector<double>> row(
      std::size_t source) const override;
  [[nodiscard]] std::size_t resident_bytes() const override {
    return cache_.resident_bytes();
  }

  [[nodiscard]] std::size_t cache_rows() const { return cache_.capacity(); }
  [[nodiscard]] std::size_t resident_rows() const {
    return cache_.resident_rows();
  }

 private:
  const PhysicalNetwork* net_;
  std::vector<RouterId> endpoints_;
  RowCache<std::vector<double>> cache_;
};

}  // namespace hfc
