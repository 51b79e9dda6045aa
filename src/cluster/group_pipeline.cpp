// Group-local construction pipeline (DESIGN.md §14).
//
// Three phases, all producing the exact same tree as the global sweep:
//
//   partition — recursive widest-axis median split of the point ids into
//     cells of at most HFC_ML_PAR_GROUP points, recording each cell's
//     axis-aligned bounding box from the split planes it passed through.
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
//     pruned sweep, seeded with per-point lower bounds on the distance
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
#include "cluster/group_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace hfc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Disjoint-set over node indices (path-halving). The local phase only
/// ever touches slots of one cell per task — parent pointers stay inside
/// a component, components stay inside their cell — so concurrent cells
/// share one instance without races.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// False when a and b were already connected.
  bool unite(std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// True when candidate (d, a, b) improves on the incumbent under the
/// canonical lexicographic edge order.
[[nodiscard]] bool edge_improves(double d, std::size_t a, std::size_t b,
                                 double bd, std::size_t ba, std::size_t bb) {
  if (d != bd) return d < bd;
  if (a != ba) return a < ba;
  return b < bb;
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

/// Recursive widest-axis median split under the (coordinate, id) total
/// order — the multilevel partition rule — tracking cell boxes. Both
/// halves inherit the split value as a face: the left keeps values <=
/// split, the right >= split (ties on the plane go either way, which is
/// why the margin test below must be strict).
void partition_cells(const std::vector<Point>& pts,
                     std::vector<std::size_t>& ids, std::size_t begin,
                     std::size_t end, std::size_t limit,
                     std::vector<double> lo, std::vector<double> hi,
                     std::vector<Cell>& out) {
  if (end - begin <= limit) {
    out.push_back(Cell{begin, end, std::move(lo), std::move(hi)});
    return;
  }
  const std::size_t dim = pts[ids[begin]].size();
  std::size_t axis = 0;
  double widest = -1.0;
  for (std::size_t d = 0; d < dim; ++d) {
    double min_v = pts[ids[begin]][d];
    double max_v = min_v;
    for (std::size_t p = begin + 1; p < end; ++p) {
      min_v = std::min(min_v, pts[ids[p]][d]);
      max_v = std::max(max_v, pts[ids[p]][d]);
    }
    if (max_v - min_v > widest) {
      widest = max_v - min_v;
      axis = d;
    }
  }
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
  const double split = pts[ids[mid]][axis];
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
[[nodiscard]] double margin_for(const Point& v, const std::vector<double>& lo,
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

bool group_pipeline_enabled(std::size_t n) {
  return n >= env_size_t("HFC_ML_PAR_MIN_N", 8192, 2);
}

std::size_t group_pipeline_group_limit() {
  return env_size_t("HFC_ML_PAR_GROUP", 4096, 2);
}

std::vector<MstEdge> euclidean_mst_grouped(const std::vector<Point>& points,
                                           std::size_t group_limit) {
  HFC_TRACE_SPAN("cluster.mst");
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("cluster.mst_builds").add(1);
  const std::size_t n = points.size();
  std::vector<MstEdge> edges;
  if (n <= 1) return edges;
  edges.reserve(n - 1);
  if (group_limit == 0) group_limit = group_pipeline_group_limit();
  const std::size_t dim = points.front().size();

  const Clock::time_point t_partition = Clock::now();
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  std::vector<Cell> cells;
  partition_cells(points, ids, 0, n, group_limit,
                  std::vector<double>(dim, -kInf),
                  std::vector<double>(dim, kInf), cells);
  registry.counter("construct.partition_us").add(elapsed_us(t_partition));

  const Clock::time_point t_local = Clock::now();
  UnionFind uf(n);
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

    // Per-cell CSR scratch, indexed by member position.
    std::vector<std::int32_t> root_slot(m, -1);
    std::vector<std::size_t> comp_of(m);  // slot of member i this round
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> comp_members(m);
    std::vector<double> cand_d;
    std::vector<std::size_t> cand_a;
    std::vector<std::size_t> cand_b;
    std::vector<double> cand_margin;

    while (out.size() + 1 < m) {
      for (const std::int32_t id : members) {
        labels[static_cast<std::size_t>(id)] =
            static_cast<std::int32_t>(uf.find(static_cast<std::size_t>(id)));
      }
      set.retag(labels);

      // Group members by component, first-seen ascending-member order.
      std::size_t num_comps = 0;
      std::vector<std::size_t> comp_roots;
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t rp =
            member_pos(labels[static_cast<std::size_t>(members[i])]);
        if (root_slot[rp] < 0) {
          root_slot[rp] = static_cast<std::int32_t>(num_comps++);
          comp_roots.push_back(rp);
        }
        comp_of[i] = static_cast<std::size_t>(root_slot[rp]);
      }
      if (num_comps <= 1) {
        for (const std::size_t rp : comp_roots) root_slot[rp] = -1;
        break;
      }
      offsets.assign(num_comps + 1, 0);
      for (std::size_t i = 0; i < m; ++i) ++offsets[comp_of[i] + 1];
      for (std::size_t c = 0; c < num_comps; ++c) offsets[c + 1] += offsets[c];
      {
        std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
        for (std::size_t i = 0; i < m; ++i) {
          comp_members[cursor[comp_of[i]]++] = i;
        }
      }

      // Scan each component with a shrinking inclusive bound, skipping
      // members whose lower bound already rules them out.
      cand_d.assign(num_comps, kInf);
      cand_a.assign(num_comps, 0);
      cand_b.assign(num_comps, 0);
      cand_margin.assign(num_comps, kInf);
      for (std::size_t c = 0; c < num_comps; ++c) {
        const std::int32_t label = labels[static_cast<std::size_t>(
            members[comp_members[offsets[c]]])];
        cand_margin[c] = comp_margin[static_cast<std::size_t>(label)];
        double best_d = kInf;
        std::size_t best_a = 0;
        std::size_t best_b = 0;
        for (std::size_t k = offsets[c]; k < offsets[c + 1]; ++k) {
          const auto v =
              static_cast<std::size_t>(members[comp_members[k]]);
          if (lb[v] > best_d) {
            ++cell_skips[ci];
            continue;
          }
          const SpatialHit hit =
              set.nearest_foreign(points[v], label, best_d, st);
          if (hit.found()) {
            lb[v] = hit.dist;
            const auto u = static_cast<std::size_t>(hit.id);
            const std::size_t a = std::min(v, u);
            const std::size_t b = std::max(v, u);
            if (edge_improves(hit.dist, a, b, best_d, best_a, best_b)) {
              best_d = hit.dist;
              best_a = a;
              best_b = b;
            }
          } else {
            lb[v] = std::max(lb[v], best_d);
          }
        }
        cand_d[c] = best_d;
        cand_a[c] = best_a;
        cand_b[c] = best_b;
      }
      for (const std::size_t rp : comp_roots) root_slot[rp] = -1;

      // Margin-safe contraction: apply only candidates strictly inside
      // the component's cell-boundary floor — those are globally minimal
      // outgoing edges of their component, so the cut property puts them
      // in the unique (d, a, b)-lexicographic MST.
      bool progress = false;
      for (std::size_t c = 0; c < num_comps; ++c) {
        if (!(cand_d[c] < cand_margin[c])) continue;
        const std::size_t ra = uf.find(cand_a[c]);
        const std::size_t rb = uf.find(cand_b[c]);
        if (ra == rb) continue;  // mutual selection, already merged
        const double merged = std::min(comp_margin[ra], comp_margin[rb]);
        uf.unite(ra, rb);
        comp_margin[uf.find(ra)] = merged;
        out.push_back(MstEdge{cand_a[c], cand_b[c], cand_d[c]});
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
  QueryStats total;
  std::uint64_t lb_skips = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    edges.insert(edges.end(), cell_edges[ci].begin(), cell_edges[ci].end());
    total += cell_stats[ci];
    lb_skips += cell_skips[ci];
  }

  if (edges.size() + 1 < n) {
    // Finish: the ordinary pruned global sweep (cluster/mst.cpp) over
    // the seeded forest, with the lower-bound skip layered on. A member
    // whose bound exceeds the component's incumbent cannot improve it —
    // its query would miss at that bound — so skipping is exact, and
    // ties (lb == best) still query so the (a, b) tie-break is
    // preserved.
    KdTree index(points);
    std::vector<double> cand_d(n, kInf);
    std::vector<std::size_t> cand_a(n, 0);
    std::vector<std::size_t> cand_b(n, 0);
    std::vector<std::int32_t> root_slot(n, -1);
    std::vector<std::size_t> comp_roots;
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> members(n);
    std::vector<QueryStats> comp_stats;
    std::vector<std::uint64_t> comp_skips;

    while (edges.size() + 1 < n) {
      for (std::size_t v = 0; v < n; ++v) {
        labels[v] = static_cast<std::int32_t>(uf.find(v));
      }
      index.retag(labels);

      std::size_t num_comps = 0;
      comp_roots.clear();
      for (std::size_t v = 0; v < n; ++v) {
        const auto root = static_cast<std::size_t>(labels[v]);
        if (root_slot[root] < 0) {
          root_slot[root] = static_cast<std::int32_t>(num_comps++);
          comp_roots.push_back(root);
        }
      }
      offsets.assign(num_comps + 1, 0);
      for (std::size_t v = 0; v < n; ++v) {
        ++offsets[static_cast<std::size_t>(
                      root_slot[static_cast<std::size_t>(labels[v])]) +
                  1];
      }
      for (std::size_t c = 0; c < num_comps; ++c) offsets[c + 1] += offsets[c];
      {
        std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
        for (std::size_t v = 0; v < n; ++v) {
          members[cursor[static_cast<std::size_t>(
              root_slot[static_cast<std::size_t>(labels[v])])]++] = v;
        }
      }
      comp_stats.assign(num_comps, QueryStats{});
      comp_skips.assign(num_comps, 0);
      parallel_for(num_comps, 16, [&](std::size_t c) {
        const std::size_t root = comp_roots[c];
        const auto label = static_cast<std::int32_t>(root);
        double best_d = kInf;
        std::size_t best_a = 0;
        std::size_t best_b = 0;
        QueryStats& st = comp_stats[c];
        for (std::size_t k = offsets[c]; k < offsets[c + 1]; ++k) {
          const std::size_t v = members[k];
          if (lb[v] > best_d) {
            ++comp_skips[c];
            continue;
          }
          const SpatialHit hit =
              index.nearest_foreign(points[v], label, best_d, st);
          if (hit.found()) {
            lb[v] = hit.dist;
            const auto u = static_cast<std::size_t>(hit.id);
            const std::size_t a = std::min(v, u);
            const std::size_t b = std::max(v, u);
            if (edge_improves(hit.dist, a, b, best_d, best_a, best_b)) {
              best_d = hit.dist;
              best_a = a;
              best_b = b;
            }
          } else {
            lb[v] = std::max(lb[v], best_d);
          }
        }
        cand_d[root] = best_d;
        cand_a[root] = best_a;
        cand_b[root] = best_b;
      });
      for (std::size_t c = 0; c < num_comps; ++c) {
        ensure(cand_d[comp_roots[c]] != kInf,
               "euclidean_mst_grouped: disconnected point set");
        total += comp_stats[c];
        lb_skips += comp_skips[c];
        root_slot[comp_roots[c]] = -1;
      }

      const std::size_t before = edges.size();
      for (std::size_t root = 0; root < n; ++root) {
        if (cand_d[root] == kInf) continue;
        if (uf.unite(cand_a[root], cand_b[root])) {
          edges.push_back(MstEdge{cand_a[root], cand_b[root], cand_d[root]});
        }
        cand_d[root] = kInf;
      }
      ensure(edges.size() > before, "euclidean_mst_grouped: no progress");
    }
  }
  registry.counter("construct.finish_mst_us").add(elapsed_us(t_finish));
  registry.counter("cluster.mst_candidate_pairs").add(total.point_evals);
  registry.counter("spatial.nodes_visited").add(total.nodes_visited);
  registry.counter("cluster.mst_lb_skips").add(lb_skips);

  std::sort(edges.begin(), edges.end(), [](const MstEdge& x, const MstEdge& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return edges;
}

std::vector<MstEdge> euclidean_mst_of_set(const DynamicSpatialSet& set,
                                          const std::vector<Point>& coords) {
  const std::vector<std::int32_t>& live = set.live_ids();
  std::vector<MstEdge> edges;
  if (live.size() <= 1) return edges;
  std::vector<Point> sub;
  sub.reserve(live.size());
  for (const std::int32_t id : live) {
    sub.push_back(coords[static_cast<std::size_t>(id)]);
  }
  edges = euclidean_mst(sub);
  // live is ascending, so the order-preserving remap keeps a < b and the
  // canonical (a, b) sort order.
  for (MstEdge& e : edges) {
    e.a = static_cast<std::size_t>(live[e.a]);
    e.b = static_cast<std::size_t>(live[e.b]);
  }
  return edges;
}

Clustering cluster_set(const DynamicSpatialSet& set,
                       const std::vector<Point>& coords,
                       const ZahnParams& params) {
  const std::vector<std::int32_t>& live = set.live_ids();
  Clustering out;
  out.assignment.assign(coords.size(), ClusterId{});
  if (live.empty()) return out;
  std::vector<Point> sub;
  sub.reserve(live.size());
  for (const std::int32_t id : live) {
    sub.push_back(coords[static_cast<std::size_t>(id)]);
  }
  const Clustering local = cluster_points(sub, params);
  out.members.resize(local.cluster_count());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const ClusterId c = local.assignment[i];
    out.assignment[static_cast<std::size_t>(live[i])] = c;
    out.members[c.idx()].push_back(NodeId(live[i]));
  }
  return out;
}

}  // namespace hfc
