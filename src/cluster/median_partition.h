// Widest-axis median partition (DESIGN.md §13–14).
//
// One recursive split rule cuts point sets into spatially coherent
// pieces for two builders: the bounded-fanout hierarchy splits oversized
// Zahn leaves and groups centroids with it, and the group-local MST
// pipeline (`euclidean_mst_grouped`, cluster/mst.h) cuts its cells with
// it. The rule is the k-d tree build's: split at the median of the
// widest axis under the (coordinate, id) total order, so the pieces are
// deterministic for any thread count.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "coords/point_set.h"

namespace hfc {

/// Recursive median split of ids[begin, end) — indices into `pts` — on
/// the widest axis, into consecutive ranges of at most `limit` ids
/// appended to `out` left to right. A range of more than `limit` ids
/// splits at mid = begin + (end - begin) / 2; after the split no id of
/// [begin, mid) follows any id of [mid, end) in the order, so the least
/// coordinate of [mid, end) on the split axis is the split value.
void median_partition(const PointSet& pts, std::vector<std::size_t>& ids,
                      std::size_t begin, std::size_t end, std::size_t limit,
                      std::vector<std::pair<std::size_t, std::size_t>>& out);

}  // namespace hfc
