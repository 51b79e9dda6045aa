// A distance service with its coordinates hidden.
//
// Forwards every query to a wrapped service but leaves `coord_view()`
// null, so each coordinate consumer (clustering's MST, HfcTopology's
// border selection) takes its scan instead of the spatial index. The distances are the wrapped service's own doubles, so the scan
// arm and the index arm answer the same problem: the reference for the
// index's exactness contract (DESIGN.md §11), and the brute arm of
// bench_topology_scaling's A/B.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "distance/distance_service.h"

namespace hfc::oracle {

class ScanDistance final : public DistanceService {
 public:
  /// `inner` must outlive the wrapper.
  explicit ScanDistance(const DistanceService& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] double at(std::size_t a, std::size_t b) const override {
    return inner_.at(a, b);
  }
  [[nodiscard]] std::shared_ptr<const std::vector<double>> row(
      std::size_t source) const override {
    return inner_.row(source);
  }
  [[nodiscard]] std::size_t resident_bytes() const override {
    return inner_.resident_bytes();
  }

 private:
  const DistanceService& inner_;
};

}  // namespace hfc::oracle
