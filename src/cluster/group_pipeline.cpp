// Group-local construction pipeline (DESIGN.md §14).
//
// Three phases, all producing the exact same tree as the global sweep:
//
//   partition — recursive widest-axis median split of the point ids into
//     cells of at most `group_limit` points (median_partition), then each
//     cell's axis-aligned box from the split planes it passed through.
//   local — every cell runs its own Borůvka contraction over a
//     DynamicSpatialSet of only its members (brute scan below 32 points,
//     subset index above). A component may contract its intra-cell
//     candidate only when the candidate is *margin-safe*: strictly
//     shorter than the cell-boundary distance floor of every member, so
//     no point outside the cell could offer a shorter (or tying)
//     outgoing edge. Cells run via parallel_for into disjoint slots —
//     disjoint UnionFind ranges, labels, margins, edge lists — so the
//     phase is deterministic for any thread count.
//   finish — the residual forest merges under the ordinary global
//     pruned sweep (boruvka::global_sweep), seeded with per-point lower bounds on the distance
//     to the nearest foreign point (min of the last local answer and the
//     cell margin). The bound is monotone — components only grow, so the
//     foreign set only shrinks — and lets interior points skip their
//     k-d descent entirely once a component holds a closer candidate.
//
// Exactness of the margin test rests on the floating-point shape of
// `euclidean()`: the margin evaluates the same rounded expression
// fl(sqrt(fl(fl(v-b)·fl(v-b)))) against the nearest cell face, and IEEE
// rounding is monotone, so every computed cross-cell distance is >= the
// computed margin. The strict `<` then guarantees the local candidate
// beats every cross-cell edge under the (d, a, b) order — see DESIGN.md
// §14 for the full argument.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "cluster/boruvka.h"
#include "cluster/median_partition.h"
#include "cluster/mst.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spatial/dynamic_set.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The axis of widest coordinate extent over ids[begin, end), the first
/// such axis on ties. Order-independent: any permutation of the range
/// picks the same axis.
std::size_t widest_axis(const PointSet& pts,
                        const std::vector<std::size_t>& ids,
                        std::size_t begin, std::size_t end) {
  std::size_t axis = 0;
  double widest = -1.0;
  for (std::size_t d = 0; d < pts.dim(); ++d) {
    double lo = pts[ids[begin]][d];
    double hi = lo;
    for (std::size_t p = begin + 1; p < end; ++p) {
      lo = std::min(lo, pts[ids[p]][d]);
      hi = std::max(hi, pts[ids[p]][d]);
    }
    if (hi - lo > widest) {
      widest = hi - lo;
      axis = d;
    }
  }
  return axis;
}

/// One partition cell: ids[begin, end) plus the closed axis-aligned box
/// accumulated from the split planes on the path to the cell. Points of
/// other cells lie on or beyond some face of the box.
struct Cell {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<double> lo;
  std::vector<double> hi;
};

/// The cells of a finished median_partition of ids[begin, end), left to
/// right: the same recursion replayed over the partitioned ids, whose
/// split value is the right half's least coordinate on the split axis.
/// Both halves inherit the split value as a face: the left keeps values
/// <= split, the right >= split (ties on the plane go either way, which
/// is why the margin test below must be strict).
void partition_cells(const PointSet& pts,
                     const std::vector<std::size_t>& ids, std::size_t begin,
                     std::size_t end, std::size_t limit,
                     std::vector<double> lo, std::vector<double> hi,
                     std::vector<Cell>& out) {
  if (end - begin <= limit) {
    out.push_back(Cell{begin, end, std::move(lo), std::move(hi)});
    return;
  }
  const std::size_t axis = widest_axis(pts, ids, begin, end);
  const std::size_t mid = begin + (end - begin) / 2;
  double split = pts[ids[mid]][axis];
  for (std::size_t p = mid + 1; p < end; ++p) {
    split = std::min(split, pts[ids[p]][axis]);
  }
  std::vector<double> left_hi = hi;
  left_hi[axis] = std::min(left_hi[axis], split);
  std::vector<double> right_lo = lo;
  right_lo[axis] = std::max(right_lo[axis], split);
  partition_cells(pts, ids, begin, mid, limit, std::move(lo),
                  std::move(left_hi), out);
  partition_cells(pts, ids, mid, end, limit, std::move(right_lo),
                  std::move(hi), out);
}

/// Floor on the computed euclidean distance from `v` to any point on or
/// beyond a face of the cell box. Mirrors euclidean()'s expression shape
/// — one rounded subtraction, one rounded square, one rounded sqrt — so
/// monotone IEEE rounding gives euclidean(v, p) >= margin_for(v) for
/// every cross-cell p. Infinite when the cell is unbounded on all axes
/// (single-cell inputs).
[[nodiscard]] double margin_for(std::span<const double> v,
                                const std::vector<double>& lo,
                                const std::vector<double>& hi) {
  double best_sq = kInf;
  for (std::size_t d = 0; d < v.size(); ++d) {
    if (lo[d] != -kInf) {
      const double diff = v[d] - lo[d];
      best_sq = std::min(best_sq, diff * diff);
    }
    if (hi[d] != kInf) {
      const double diff = v[d] - hi[d];
      best_sq = std::min(best_sq, diff * diff);
    }
  }
  if (best_sq == kInf) return kInf;
  return std::sqrt(best_sq);
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t elapsed_us(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            since)
          .count());
}

}  // namespace

void median_partition(const PointSet& pts, std::vector<std::size_t>& ids,
                      std::size_t begin, std::size_t end, std::size_t limit,
                      std::vector<std::pair<std::size_t, std::size_t>>& out) {
  if (end - begin <= limit) {
    out.emplace_back(begin, end);
    return;
  }
  const std::size_t axis = widest_axis(pts, ids, begin, end);
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(ids.begin() + static_cast<std::ptrdiff_t>(begin),
                   ids.begin() + static_cast<std::ptrdiff_t>(mid),
                   ids.begin() + static_cast<std::ptrdiff_t>(end),
                   [&pts, axis](std::size_t a, std::size_t b) {
                     const double va = pts[a][axis];
                     const double vb = pts[b][axis];
                     if (va != vb) return va < vb;
                     return a < b;
                   });
  median_partition(pts, ids, begin, mid, limit, out);
  median_partition(pts, ids, mid, end, limit, out);
}

bool group_pipeline_enabled(std::size_t n) {
  return n >= kGroupPipelineMinPoints;
}

std::vector<MstEdge> euclidean_mst_grouped(const PointSet& points,
                                           std::size_t group_limit) {
  HFC_TRACE_SPAN("cluster.mst");
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("cluster.mst_builds").add(1);
  const std::size_t n = points.size();
  std::vector<MstEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);
  require(group_limit >= 1,
          "euclidean_mst_grouped: group_limit must be >= 1");
  const std::size_t dim = points.dim();

  const Clock::time_point t_partition = Clock::now();
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  median_partition(points, ids, 0, n, group_limit, ranges);
  std::vector<Cell> cells;
  cells.reserve(ranges.size());
  partition_cells(points, ids, 0, n, group_limit,
                  std::vector<double>(dim, -kInf),
                  std::vector<double>(dim, kInf), cells);
  registry.counter("construct.partition_us").add(elapsed_us(t_partition));

  const Clock::time_point t_local = Clock::now();
  boruvka::UnionFind uf(n);
  std::vector<std::int32_t> labels(n, 0);
  std::vector<double> margin(n, kInf);       // per-point cell-boundary floor
  std::vector<double> comp_margin(n, kInf);  // min member margin, by root
  std::vector<double> lb(n, 0.0);            // foreign-distance lower bound
  std::vector<std::vector<MstEdge>> cell_edges(cells.size());
  std::vector<QueryStats> cell_stats(cells.size());
  std::vector<std::uint64_t> cell_skips(cells.size(), 0);

  parallel_for(cells.size(), 1, [&](std::size_t ci) {
    const Cell& cell = cells[ci];
    const std::size_t m = cell.end - cell.begin;
    std::vector<std::int32_t> members(m);
    for (std::size_t i = 0; i < m; ++i) {
      members[i] = static_cast<std::int32_t>(ids[cell.begin + i]);
    }
    std::sort(members.begin(), members.end());
    for (const std::int32_t id : members) {
      const auto v = static_cast<std::size_t>(id);
      margin[v] = margin_for(points[v], cell.lo, cell.hi);
      comp_margin[v] = margin[v];
    }
    if (m <= 1) {
      if (m == 1) lb[static_cast<std::size_t>(members[0])] =
          margin[static_cast<std::size_t>(members[0])];
      return;
    }
    DynamicSpatialSet set;
    set.bulk_load(points, members);
    QueryStats& st = cell_stats[ci];
    std::vector<MstEdge>& out = cell_edges[ci];

    const auto member_pos = [&members](std::int32_t id) {
      return static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), id) -
          members.begin());
    };

    // Per-cell component lists, by member position.
    boruvka::ComponentGroups comps(m);
    std::vector<boruvka::Candidate> cand;
    std::vector<double> cand_margin;

    while (out.size() + 1 < m) {
      for (const std::int32_t id : members) {
        labels[static_cast<std::size_t>(id)] =
            static_cast<std::int32_t>(uf.find(static_cast<std::size_t>(id)));
      }
      set.retag(labels);
      comps.group(m, [&](std::size_t i) {
        return member_pos(labels[static_cast<std::size_t>(members[i])]);
      });
      const std::size_t num_comps = comps.count();
      if (num_comps <= 1) break;

      // Scan each component with a shrinking inclusive bound, skipping
      // members whose lower bound already rules them out.
      cand.assign(num_comps, boruvka::Candidate{});
      cand_margin.assign(num_comps, kInf);
      for (std::size_t c = 0; c < num_comps; ++c) {
        const std::size_t root =
            static_cast<std::size_t>(members[comps.key(c)]);
        cand_margin[c] = comp_margin[root];
        cand[c] = boruvka::cheapest_outgoing(
            set, points, static_cast<std::int32_t>(root), comps.members(c),
            [&members](std::size_t i) {
              return static_cast<std::size_t>(members[i]);
            },
            lb.data(), st, cell_skips[ci]);
      }

      // Margin-safe contraction: apply only candidates strictly inside
      // the component's cell-boundary floor — those are globally minimal
      // outgoing edges of their component, so the cut property puts them
      // in the unique (d, a, b)-lexicographic MST.
      bool progress = false;
      for (std::size_t c = 0; c < num_comps; ++c) {
        if (!(cand[c].d < cand_margin[c])) continue;
        const std::size_t ra = uf.find(cand[c].a);
        const std::size_t rb = uf.find(cand[c].b);
        if (ra == rb) continue;  // mutual selection, already merged
        const double merged = std::min(comp_margin[ra], comp_margin[rb]);
        uf.unite(ra, rb);
        comp_margin[uf.find(ra)] = merged;
        out.push_back(MstEdge{cand[c].a, cand[c].b, cand[c].d});
        progress = true;
      }
      if (!progress) break;
    }

    // Seed the finish phase: the nearest foreign point is either the
    // last intra-cell answer (still a valid floor — the component only
    // grew since) or beyond the cell boundary. A fully contracted cell
    // has no intra-cell foreigners left at all.
    const bool fully_contracted = out.size() + 1 == m;
    for (const std::int32_t id : members) {
      const auto v = static_cast<std::size_t>(id);
      lb[v] = fully_contracted ? margin[v] : std::min(lb[v], margin[v]);
    }
  });
  registry.counter("construct.local_mst_us").add(elapsed_us(t_local));

  const Clock::time_point t_finish = Clock::now();
  boruvka::SweepStats stats;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    edges.insert(edges.end(), cell_edges[ci].begin(), cell_edges[ci].end());
    stats.queries += cell_stats[ci];
    stats.lb_skips += cell_skips[ci];
  }
  // Finish: the pruned global sweep over the seeded forest, with the
  // lower-bound skip layered on.
  if (edges.size() + 1 < n) {
    boruvka::global_sweep(points, uf, lb.data(), edges, stats,
                          "euclidean_mst_grouped");
  }
  registry.counter("construct.finish_mst_us").add(elapsed_us(t_finish));
  registry.counter("cluster.mst_candidate_pairs")
      .add(stats.queries.point_evals);
  registry.counter("spatial.nodes_visited").add(stats.queries.nodes_visited);
  registry.counter("cluster.mst_lb_skips").add(stats.lb_skips);

  std::sort(edges.begin(), edges.end(), [](const MstEdge& x, const MstEdge& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return edges;
}

}  // namespace hfc
