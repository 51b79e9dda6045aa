// Bounded sharded LRU cache of per-source rows, the memory backbone of
// the truth distance tier and of lazy mesh routing (DESIGN.md §8).
//
// A "row" is everything derived from one source node — a vector of
// delays, or a Dijkstra tree — that is expensive to compute and cheap to
// reuse. The cache bounds how many rows stay resident, so consumers that
// sweep all n sources (clustering, routing, evaluation) run in
// O(cache_rows * row_bytes) memory instead of O(n^2), at the price of
// recomputing evicted rows on re-touch.
//
// Concurrency model: the key space is split over a fixed number of
// shards, each guarded by its own mutex. A miss computes the row *under
// the shard lock*, so a row is computed exactly once per residency even
// when many pool workers request it simultaneously (the paper's
// construction sweeps touch disjoint sources per task, so the lock is
// rarely contended). Values handed out are `shared_ptr<const Row>`:
// eviction never invalidates a row a caller is still holding.
//
// Determinism: rows are pure functions of their key, so cached values
// are bit-identical for any thread count and any eviction schedule. Only
// the *compute/hit/eviction counts* may vary with interleaving when the
// cache is smaller than the working set; tests that assert counts use a
// serial pool or an over-sized cache.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/require.h"

namespace hfc {

template <typename Row>
class RowCache {
 public:
  /// Observability hooks; null members are simply not incremented.
  struct Counters {
    obs::Counter* hits = nullptr;
    obs::Counter* computes = nullptr;
    obs::Counter* evictions = nullptr;
  };

  /// `capacity` >= 1 is the total number of resident rows across all
  /// shards; `bytes_per_row` is the (fixed) memory estimate used by
  /// `resident_bytes`.
  RowCache(std::size_t capacity, std::size_t bytes_per_row,
           Counters counters = {})
      : bytes_per_row_(bytes_per_row), counters_(counters) {
    require(capacity >= 1, "RowCache: capacity must be >= 1");
    capacity_ = capacity;
    // Small caches collapse to fewer shards so the per-shard budget
    // (rounded down, never zero) keeps the resident total at or below the
    // requested capacity — the bound the bench memory assertion relies on.
    shard_count_ = capacity < kShards ? capacity : kShards;
    per_shard_cap_ = capacity / shard_count_;
  }

  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The row for `key`, computing it via `compute(key)` on a miss. The
  /// returned pointer stays valid after eviction.
  template <typename ComputeFn>
  [[nodiscard]] std::shared_ptr<const Row> get_or_compute(
      std::size_t key, const ComputeFn& compute) const {
    Shard& shard = shards_[key % shard_count_];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (counters_.hits != nullptr) counters_.hits->add(1);
      // Refresh recency: move the key to the front of the LRU list.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      return it->second.row;
    }
    if (counters_.computes != nullptr) counters_.computes->add(1);
    auto row = std::make_shared<const Row>(compute(key));
    shard.lru.push_front(key);
    shard.map.emplace(key, Entry{row, shard.lru.begin()});
    while (shard.map.size() > per_shard_cap_) {
      if (counters_.evictions != nullptr) counters_.evictions->add(1);
      shard.map.erase(shard.lru.back());
      shard.lru.pop_back();
    }
    return row;
  }

  /// Number of rows currently resident across all shards.
  [[nodiscard]] std::size_t resident_rows() const {
    std::size_t total = 0;
    for (std::size_t s = 0; s < shard_count_; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mu);
      total += shards_[s].map.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t resident_bytes() const {
    return resident_rows() * bytes_per_row_;
  }

 private:
  static constexpr std::size_t kShards = 8;

  struct Entry {
    std::shared_ptr<const Row> row;
    std::list<std::size_t>::iterator lru_pos;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<std::size_t> lru;  ///< front = most recently used
    std::unordered_map<std::size_t, Entry> map;
  };

  std::size_t capacity_ = 0;
  std::size_t shard_count_ = 1;
  std::size_t per_shard_cap_ = 0;
  std::size_t bytes_per_row_ = 0;
  Counters counters_;
  mutable Shard shards_[kShards];
};

/// Resolve a row-cache capacity: `requested` when positive, otherwise the
/// consumer's own `fallback`.
[[nodiscard]] inline std::size_t resolve_cache_rows(std::size_t requested,
                                                    std::size_t fallback) {
  return requested > 0 ? requested : fallback;
}

}  // namespace hfc
