// End-to-end latency measurement between attachment routers.
//
// In the paper, Internet distances are round-trip delays measured between
// hosts; here the ground truth is the delay of the shortest path through
// the generated underlay, answered lazily by a `TruthDistanceService`
// (bounded LRU of per-source Dijkstra rows) instead of an eagerly
// materialized O(n^2) matrix. `LatencyOracle` adds the paper's
// measurement discipline on top (multiplicative noise per probe, minimum
// of R probes, §3.1) so the coordinate-embedding stage sees realistic,
// noisy inputs while experiments can still query exact ground truth.
//
// `measure` models one application-level RTT probe: the true shortest
// delay inflated by multiplicative noise, never below the true value
// (queueing only adds delay). `measure_min_of` takes the minimum over
// several probes, the paper's §3.1 noise-reduction discipline.
//
// Safe for concurrent measurement: probe accounting is sharded, and each
// probe's noise is a pure function of (seed, endpoint pair, per-pair
// probe index) rather than a draw from shared mutable RNG state, so a
// parallel measurement schedule yields the same values as a serial one
// as long as each pair is measured by a single task (the construction
// paths measure disjoint pairs per task). Per-pair probe counters live in
// a sparse sharded map — O(pairs actually probed), not O(n^2) — which
// preserves the exact per-pair probe-index sequence of the legacy dense
// array, and with it bit-equal noise.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "distance/truth_distance.h"
#include "topology/physical_network.h"
#include "util/ids.h"
#include "util/rng.h"

namespace hfc {

class LatencyOracle {
 public:
  /// `noise` is the maximum relative inflation per probe (0.2 = up to
  /// +20%). Zero noise makes measurements exact. `cache_rows` bounds the
  /// resident ground-truth rows (0 = the truth tier's default).
  /// The network must outlive the oracle.
  LatencyOracle(const PhysicalNetwork& net, std::vector<RouterId> endpoints,
                double noise, Rng rng, std::size_t cache_rows = 0);

  [[nodiscard]] std::size_t endpoint_count() const { return truth_.size(); }

  /// Ground-truth delay between endpoints i and j.
  [[nodiscard]] double true_delay(std::size_t i, std::size_t j) const {
    return truth_.at(i, j);
  }

  /// The ground-truth tier behind this oracle, for consumers that want
  /// row/bulk access or memory accounting.
  [[nodiscard]] const TruthDistanceService& truth() const { return truth_; }

  /// One noisy probe.
  [[nodiscard]] double measure(std::size_t i, std::size_t j);

  /// Minimum of `probes` >= 1 noisy probes.
  [[nodiscard]] double measure_min_of(std::size_t i, std::size_t j,
                                      std::size_t probes);

  /// Number of probes issued so far (for measurement-cost accounting).
  [[nodiscard]] std::size_t probe_count() const {
    return probe_count_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] double probe_noise_factor(std::size_t i, std::size_t j,
                                          std::uint64_t probe_idx) const;
  /// Post-increment of the per-pair probe counter for the unordered pair
  /// (i, j); allocates the counter on first probe of the pair.
  [[nodiscard]] std::uint64_t next_probe_index(std::size_t i, std::size_t j);

  TruthDistanceService truth_;
  double noise_;
  std::uint64_t noise_seed_;
  std::atomic<std::size_t> probe_count_{0};

  static constexpr std::size_t kProbeShards = 16;
  struct ProbeShard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
  };
  std::array<ProbeShard, kProbeShards> probe_shards_;
};

}  // namespace hfc
