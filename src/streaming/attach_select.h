// The attach shortlist's selection rule (DESIGN.md §15), shared by both
// stream modes: a joiner or orphan considers the `budget` nearest offers
// by (coordinate distance, id) — its own cluster's first, the fallback
// offers only when its own cluster admits none.
//
// The nearest keys are kept by bounded insertion while the offers stream
// past, so a selection costs one pass over the offers and no sort of the
// whole pool; tests/oracle/attach_candidates.h is the full-pool sort it
// must match.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/ids.h"

namespace hfc {

/// An attach offer's key: coordinate distance to the joiner, then id.
using AttachKey = std::pair<double, NodeId>;

/// The `k` smallest keys offered so far, ascending, in a buffer of at most
/// k + 1: the prefix a full sort of every offer keeps, equal distances in
/// id order.
class NearestKeys {
 public:
  explicit NearestKeys(std::size_t k) : k_(k) { keys_.reserve(k + 1); }

  /// Whether `key` would enter the buffer now.
  [[nodiscard]] bool wants(const AttachKey& key) const {
    return keys_.size() < k_ || (k_ > 0 && key < keys_.back());
  }
  /// No key farther than this can enter the buffer now (a key exactly
  /// this far still can, with a smaller id).
  [[nodiscard]] double reach() const {
    if (keys_.size() < k_) return std::numeric_limits<double>::infinity();
    return k_ == 0 ? -std::numeric_limits<double>::infinity()
                   : keys_.back().first;
  }
  /// Insert a wanted key in order, dropping the largest past k.
  void insert(const AttachKey& key) {
    keys_.push_back(key);
    for (std::size_t i = keys_.size() - 1; i > 0 && key < keys_[i - 1]; --i) {
      std::swap(keys_[i], keys_[i - 1]);
    }
    if (keys_.size() > k_) keys_.pop_back();
  }

  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::vector<AttachKey> take() { return std::move(keys_); }

 private:
  std::size_t k_;
  std::vector<AttachKey> keys_;
};

/// The shortlist's keys, ascending: the `budget` smallest of the `own`
/// keys that `admit` passes; when it passes none of them, the `budget`
/// smallest over the ids `fallback(offer, reach)` offers that it passes,
/// keyed by `distance(id)`. An own key is asked about only when it would
/// enter the buffer, the fallback runs only in that case, and a distance
/// is computed only for an admitted offer. `reach()` is the distance no
/// offer beyond which can enter any more: a fallback may skip offers it
/// knows to lie strictly farther.
template <class Admit, class Distance, class Fallback>
[[nodiscard]] std::vector<AttachKey> select_attach_keys(
    std::span<const AttachKey> own, std::size_t budget, const Admit& admit,
    const Distance& distance, const Fallback& fallback) {
  NearestKeys keep(budget);
  for (const AttachKey& key : own) {
    if (keep.wants(key) && admit(key.second)) keep.insert(key);
  }
  if (keep.empty()) {
    fallback(
        [&](NodeId x) {
          if (!admit(x)) return;
          const AttachKey key{distance(x), x};
          if (keep.wants(key)) keep.insert(key);
        },
        [&] { return keep.reach(); });
  }
  return keep.take();
}

}  // namespace hfc
