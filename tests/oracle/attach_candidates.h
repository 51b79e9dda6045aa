// Full-pool oracle for the streaming attach shortlist
// (src/streaming/attach_select.h): every admitted offer is keyed, the
// whole pool is sorted by (distance, id), and the first `budget` keys are
// kept — the selection the library's bounded insertion must reproduce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "streaming/attach_select.h"

namespace hfc::oracle {

/// Same contract as select_attach_keys: the `budget` smallest admitted
/// `own` keys, ascending; when none is admitted, the `budget` smallest
/// admitted fallback offers, keyed by `distance`. The fallback's reach is
/// unbounded: it offers everything.
template <class Admit, class Distance, class Fallback>
[[nodiscard]] std::vector<AttachKey> attach_keys(
    std::span<const AttachKey> own, std::size_t budget, const Admit& admit,
    const Distance& distance, const Fallback& fallback) {
  std::vector<AttachKey> pool;
  for (const AttachKey& key : own) {
    if (admit(key.second)) pool.push_back(key);
  }
  if (pool.empty()) {
    fallback(
        [&](NodeId x) {
          if (admit(x)) pool.emplace_back(distance(x), x);
        },
        [] { return std::numeric_limits<double>::infinity(); });
  }
  std::sort(pool.begin(), pool.end());
  if (pool.size() > budget) pool.resize(budget);
  return pool;
}

}  // namespace hfc::oracle
