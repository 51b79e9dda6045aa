// The cluster-level service path (CSP) search of paper §5.1 and the run
// dissection that follows it, run by the hierarchical router at every
// level.
//
// A *unit* is what the current level of the hierarchy routes across: a
// leaf cluster under the root of a one-level topology, a sibling child
// group at each recursion step of a deeper one. The search maps every SG vertex
// onto one candidate unit and prices the configuration by its external
// links plus, with lower bounds on, the internal segments it cannot
// avoid. Its state is (unit, entry node), which keeps that cost
// Markovian, and it relaxes unit-major: per SG edge, each (unit, next
// unit) group resolves its link once and offers only its best transition.
// A backward link-only lower bound and a priced greedy upper bound let it
// skip every state that can neither win nor tie. DESIGN.md §5 has the
// bounds and the work they save, §9 (b) the tie-break.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/flat_table.h"
#include "services/service_graph.h"
#include "util/ids.h"
#include "util/require.h"

namespace hfc {

/// The endpoints of one search: source and destination proxies and the
/// units that hold them.
template <typename Unit>
struct CspEnds {
  NodeId source;
  NodeId destination;
  Unit source_unit;
  Unit destination_unit;
};

/// The unit chosen for one SG vertex.
template <typename Unit>
struct CspStep {
  std::size_t sg_vertex = 0;
  Unit unit;
};

/// A unit-level service path: one step per SG vertex of the chosen
/// configuration, in order, and its cost under the selection metric.
template <typename Unit>
struct CspSearch {
  bool found = false;
  double lower_bound = 0.0;
  std::vector<CspStep<Unit>> steps;
};

/// A maximal run of consecutive CSP steps in one unit: the linear chain
/// of services it serves, entered at `entry` and left at `exit`.
template <typename Unit>
struct UnitRun {
  Unit unit;
  NodeId entry;
  NodeId exit;
  std::vector<ServiceId> chain;
};

namespace csp_detail {

/// An id as one half of a table key.
template <typename Tag>
constexpr std::uint32_t bits(Id<Tag> id) {
  return static_cast<std::uint32_t>(id.value());
}

/// Two 32-bit halves as one table key, `hi` in the upper half.
constexpr std::uint64_t pack(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

constexpr NodeId entry_of(std::uint64_t key) {
  return NodeId(static_cast<std::int32_t>(key & 0xffffffffULL));
}

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// One search state (unit, entry) of one SG vertex.
struct State {
  std::uint64_t key = 0;  ///< (unit bits, entry)
  double cost = std::numeric_limits<double>::infinity();
  // External transitions taken so far; first-order tie-break. The lower
  // bound only prices border chains, so whole-unit alternatives that
  // share a chain tie at exactly equal cost; preferring fewer crossings
  // picks the realised path with the least unpriced intra-unit detour
  // (and matches the paper's Figure 7(d) dissection).
  std::uint32_t crossings = 0;
  std::uint32_t cand = 0;  ///< index of the unit in its vertex's candidates
  // Back-pointer: predecessor vertex (kNone for an initial label), its
  // slot for path recovery, and its key for the tie-break.
  std::uint32_t prev_vertex = kNone;
  std::uint32_t prev_slot = 0;
  std::uint64_t prev_key = 0;
};

/// Entry -> exit decision distance, memoized for one search.
struct Memo {
  std::uint64_t key = 0;
  double distance = 0;
};

/// Offer (cost, crossings) reached from state `prev_key` (slot `prev_slot`
/// of vertex `u`) to `target`. Strict improvement wins; equal-cost labels
/// prefer fewer crossings, then, among offers from the same predecessor
/// vertex, the smaller predecessor key. Within one predecessor vertex that
/// is a total order, so the winner does not depend on the order offers
/// arrive in; across predecessor vertices the first in topological order
/// keeps its tie.
inline void offer(State& target, double cost, std::uint32_t crossings,
                  std::uint32_t u, std::uint32_t prev_slot,
                  std::uint64_t prev_key) {
  if (cost < target.cost ||
      (cost == target.cost &&
       (crossings < target.crossings ||
        (crossings == target.crossings && target.prev_vertex == u &&
         prev_key < target.prev_key)))) {
    target.cost = cost;
    target.crossings = crossings;
    target.prev_vertex = u;
    target.prev_slot = prev_slot;
    target.prev_key = prev_key;
  }
}

/// A predecessor state as the relaxation reads it, gathered by unit.
struct Member {
  std::uint64_t key;
  double cost;
  std::uint32_t crossings;
  std::uint32_t slot;  ///< in its vertex's table
};

/// `states` grouped by candidate unit: group g is
/// members[offsets[g], offsets[g + 1]) and least[g] its cheapest label. A
/// counting sort, O(states + groups).
inline void group_by_unit(const std::vector<State>& states,
                          std::size_t groups,
                          std::vector<std::uint32_t>& offsets,
                          std::vector<Member>& members,
                          std::vector<double>& least) {
  offsets.assign(groups + 2, 0);
  least.assign(groups, std::numeric_limits<double>::infinity());
  for (const State& s : states) {
    ++offsets[s.cand + 2];
    least[s.cand] = std::min(least[s.cand], s.cost);
  }
  for (std::size_t g = 1; g <= groups; ++g) offsets[g + 1] += offsets[g];
  members.resize(states.size());
  for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
    const State& s = states[slot];
    members[offsets[s.cand + 1]++] = Member{s.key, s.cost, s.crossings, slot};
  }
  offsets.pop_back();
}

/// The link-only lower bound from one (SG vertex, candidate unit) to the
/// destination's unit, and the successor (index into the vertex's
/// successors) and candidate that attain it.
struct Rest {
  double length = std::numeric_limits<double>::infinity();
  std::uint32_t succ = kNone;
  std::uint32_t cand = kNone;
};

}  // namespace csp_detail

/// Relative slack on the upper bound the search prunes against.
///
/// A state with computed label L at SG vertex v, unit j, is dropped when
/// fl(L + H) > fl(UB · fl(1 + s)), H the computed link-only bound. Any
/// completion of it is priced left to right as L plus m ≤ |SG| + 1 step
/// terms, each fl(length + d) ≥ length, plus closing distances ≥ 0, and
/// rounded addition of non-negatives is monotone; so with u = 2^-53 and
/// γ_n = n·u / (1 − n·u), its computed cost F is at least
/// (1 − γ_m)(L + Σ length) over its own links. H is the least of m-term
/// rounded sums, at most (1 + γ_m) · Σ length for those links. Rounding
/// L + H loses at most a factor (1 + u), and the threshold is at least
/// UB (1 + s)(1 − u)^2. So F > UB as soon as
/// 1 + s ≥ (1 + γ_m)(1 + u) / ((1 − γ_m)(1 − u)^2), which s ≥ γ_{2m+4}
/// ensures: 1e-9 covers SG paths of up to ~4·10^6 vertices. The greedy
/// configuration behind UB is priced by the search's own expressions, so
/// the optimum is ≤ UB bit for bit, and a dropped state can neither win
/// nor tie.
inline constexpr double kBoundSlack = 1e-9;

/// The cheapest unit-level service path for a non-empty `graph` between
/// `ends`, whose units are children of `parent`. `units` lists those
/// children by sibling rank, and `candidates[v]` the ranks of the units
/// that may serve SG vertex v, each at most once. `links.link(from,
/// toward)` returns the CspLink between two units and `links.length(parent,
/// a, b)` its length between two ranks (0 when a == b, +inf when not
/// found); `distance` prices internal segments, which count only when
/// `lower_bounds` is set. Not found when no configuration connects.
///
/// The search is bounded (DESIGN.md §5): a backward pass over the same
/// candidates gives H, the least sum of link lengths from each (vertex,
/// unit) to the destination's unit; the cheapest greedy configuration
/// along H's argmins prices an upper bound UB; and the forward pass keeps
/// only states, groups and transitions whose label plus H can still reach
/// UB. Every state that can win or tie keeps the label, back-pointer and
/// tie-break of the unbounded search, so the result is bit-identical to
/// it. Adds the states kept to `routing.csp_states` and the states, pairs
/// and groups the bound dropped to `routing.csp_bound_skips`.
template <typename Unit, typename LinkSource>
[[nodiscard]] CspSearch<Unit> search_csp(
    const ServiceGraph& graph, const CspEnds<Unit>& ends, Unit parent,
    const std::vector<Unit>& units,
    const std::vector<std::vector<std::uint32_t>>& candidates,
    const LinkSource& links, const OverlayDistance& distance,
    bool lower_bounds) {
  using csp_detail::bits;
  using csp_detail::entry_of;
  using csp_detail::Member;
  using csp_detail::pack;
  using csp_detail::Rest;
  using csp_detail::State;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static obs::Counter& kept_counter =
      obs::MetricsRegistry::global().counter("routing.csp_states");
  static obs::Counter& skip_counter =
      obs::MetricsRegistry::global().counter("routing.csp_bound_skips");

  // Decision distance from `entry` to `exit`, memoized: a search prices
  // many (state, candidate) transitions over few distinct border pairs.
  FlatTable<csp_detail::Memo> memo;
  const auto internal = [&](NodeId entry, NodeId exit) {
    const auto [slot, inserted] = memo.emplace(pack(bits(entry), bits(exit)));
    if (inserted) memo.entries[slot].distance = distance(entry, exit);
    return memo.entries[slot].distance;
  };

  // The three cost expressions, shared by the upper bound and the search.
  // Entering the unit of rank c from the source proxy: the cost, kInf when
  // it cannot be reached; sets the entry node and the crossings.
  const auto enter = [&](std::uint32_t c, NodeId& entry,
                         std::uint32_t& crossings) {
    entry = ends.source;
    crossings = 0;
    if (units[c] == ends.source_unit) return 0.0;
    const CspLink link = links.link(ends.source_unit, units[c]);
    if (!link.found) return kInf;
    double cost = link.length;
    if (lower_bounds && ends.source != link.exit) {
      cost += internal(ends.source, link.exit);
    }
    entry = link.entry;
    crossings = 1;
    return cost;
  };
  // Crossing `link` from a state entered at `entry`.
  const auto step = [&](NodeId entry, const CspLink& link) {
    double cost = link.length;
    if (lower_bounds && entry != link.exit) cost += internal(entry, link.exit);
    return cost;
  };
  // Closing a state of the unit of rank c entered at `entry` with label
  // `cost` at the destination proxy: the total, kInf when unreachable;
  // counts the crossing.
  const auto close = [&](std::uint32_t c, NodeId entry, double cost,
                         std::uint32_t& crossings) {
    if (units[c] == ends.destination_unit) {
      if (lower_bounds && entry != ends.destination) {
        cost += internal(entry, ends.destination);
      }
      return cost;
    }
    const CspLink link = links.link(units[c], ends.destination_unit);
    if (!link.found) return kInf;
    cost += step(entry, link);
    if (cost == kInf) return kInf;
    ++crossings;
    if (lower_bounds && link.entry != ends.destination) {
      cost += internal(link.entry, ends.destination);
    }
    return cost;
  };

  // Backward pass: rest[v][j] bounds what any completion from candidate j
  // at vertex v still pays, counting only link lengths (a stay costs 0),
  // read by rank from the parent's length triangle. It needs no triangle
  // inequality. through[v][s * K_v + j] is the same bound restricted to
  // v's s-th successor.
  const auto destination = static_cast<std::uint32_t>(
      std::find(units.begin(), units.end(), ends.destination_unit) -
      units.begin());
  const std::vector<std::size_t> order = graph.topological_order();
  std::vector<std::vector<Rest>> rest(graph.size());
  std::vector<std::vector<double>> through(graph.size());
  std::vector<std::uint32_t> by_rest;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = *it;
    const std::vector<std::uint32_t>& cands = candidates[v];
    const std::vector<std::size_t>& succ = graph.successors(v);
    rest[v].assign(cands.size(), Rest{});
    if (succ.empty()) {
      for (std::uint32_t j = 0; j < cands.size(); ++j) {
        rest[v][j].length = links.length(parent, cands[j], destination);
      }
      continue;
    }
    through[v].assign(succ.size() * cands.size(), kInf);
    for (std::uint32_t s = 0; s < succ.size(); ++s) {
      const std::vector<std::uint32_t>& nexts = candidates[succ[s]];
      const std::vector<Rest>& after = rest[succ[s]];
      // Reachable successors by ascending bound: a link adds a
      // non-negative length, so the scan stops at the first bound that
      // cannot beat the best so far.
      by_rest.clear();
      for (std::uint32_t k = 0; k < nexts.size(); ++k) {
        if (after[k].length != kInf) by_rest.push_back(k);
      }
      std::sort(by_rest.begin(), by_rest.end(),
                [&after](std::uint32_t a, std::uint32_t b) {
                  return after[a].length < after[b].length ||
                         (after[a].length == after[b].length && a < b);
                });
      for (std::uint32_t j = 0; j < cands.size(); ++j) {
        double best = kInf;
        std::uint32_t arg = csp_detail::kNone;
        for (const std::uint32_t k : by_rest) {
          if (after[k].length >= best) break;
          const double length =
              links.length(parent, cands[j], nexts[k]) + after[k].length;
          if (length < best) {
            best = length;
            arg = k;
          }
        }
        through[v][s * cands.size() + j] = best;
        if (best < rest[v][j].length) rest[v][j] = Rest{best, s, arg};
      }
    }
  }

  // Upper bound: from every source candidate, follow the argmins to a
  // sink and price that configuration as the search would.
  double upper = kInf;
  for (std::size_t v : graph.sources()) {
    for (std::uint32_t j = 0; j < candidates[v].size(); ++j) {
      if (rest[v][j].length == kInf) continue;
      NodeId entry;
      std::uint32_t crossings = 0;
      double cost = enter(candidates[v][j], entry, crossings);
      std::size_t at = v;
      std::uint32_t cand = j;
      while (cost != kInf && !graph.successors(at).empty()) {
        const Rest& r = rest[at][cand];
        const std::size_t next_at = graph.successors(at)[r.succ];
        const std::uint32_t unit = candidates[at][cand];
        const std::uint32_t next = candidates[next_at][r.cand];
        if (next != unit) {
          const CspLink link = links.link(units[unit], units[next]);
          cost = cost + step(entry, link);
          entry = link.entry;
        }
        at = next_at;
        cand = r.cand;
      }
      if (cost == kInf) continue;
      upper = std::min(upper,
                       close(candidates[at][cand], entry, cost, crossings));
    }
  }
  // Keep a label only if it can still reach the upper bound; with
  // upper == kInf every label is kept.
  const double threshold = upper * (1.0 + kBoundSlack);
  std::uint64_t skips = 0;
  const auto keeps = [&](double label, double bound) {
    if (label + bound <= threshold) return true;
    ++skips;
    return false;
  };

  // Per SG vertex: (unit, entry) states.
  std::vector<FlatTable<State>> tables(graph.size());
  const auto state_at = [&tables](std::size_t v, Unit unit, NodeId entry,
                                  std::uint32_t cand) -> State& {
    FlatTable<State>& table = tables[v];
    const std::uint32_t slot =
        table.emplace(pack(bits(unit), bits(entry))).first;
    table.entries[slot].cand = cand;
    return table.entries[slot];
  };

  // Initialise the SG source vertices from the source proxy.
  for (std::size_t v : graph.sources()) {
    for (std::uint32_t j = 0; j < candidates[v].size(); ++j) {
      const std::uint32_t c = candidates[v][j];
      NodeId entry;
      std::uint32_t crossings = 0;
      const double cost = enter(c, entry, crossings);
      if (cost == kInf || !keeps(cost, rest[v][j].length)) continue;
      State& state = state_at(v, units[c], entry, j);
      if (cost < state.cost) {
        state.cost = cost;
        state.crossings = crossings;
      }
    }
  }

  // Relax SG edges in topological order, unit-major: by offer()'s total
  // order, offering each (unit, next) group's best transition equals
  // offering every state. A group, pair or transition whose cheapest
  // label cannot reach the upper bound is skipped before its members are
  // read; a pair, on its length alone, before its link's borders are.
  std::vector<std::uint32_t> offsets;
  std::vector<Member> members;
  std::vector<double> least;
  for (std::size_t u : order) {
    if (tables[u].entries.empty() || graph.successors(u).empty()) continue;
    const std::size_t groups = candidates[u].size();
    csp_detail::group_by_unit(tables[u].entries, groups, offsets, members,
                              least);
    const auto uu = static_cast<std::uint32_t>(u);
    const std::vector<std::size_t>& succ = graph.successors(u);
    for (std::size_t s = 0; s < succ.size(); ++s) {
      const std::size_t v = succ[s];
      for (std::size_t g = 0; g < groups; ++g) {
        if (offsets[g] == offsets[g + 1] ||
            !keeps(least[g], through[u][s * groups + g])) {
          continue;
        }
        const std::uint32_t c = candidates[u][g];
        const Member* begin = members.data() + offsets[g];
        const Member* end = members.data() + offsets[g + 1];
        for (std::uint32_t j = 0; j < candidates[v].size(); ++j) {
          const std::uint32_t next = candidates[v][j];
          const double bound = rest[v][j].length;
          if (!keeps(least[g], bound)) continue;
          if (next == c) {
            for (const Member* m = begin; m != end; ++m) {
              if (!keeps(m->cost, bound)) continue;
              csp_detail::offer(state_at(v, units[c], entry_of(m->key), j),
                                m->cost, m->crossings, uu, m->slot, m->key);
            }
            continue;
          }
          // A found link has a finite length: +inf reads as no link.
          const double length = links.length(parent, c, next);
          if (length == kInf || !keeps(least[g] + length, bound)) continue;
          const CspLink link = links.link(units[c], units[next]);
          double best = kInf;
          const Member* winner = nullptr;
          for (const Member* m = begin; m != end; ++m) {
            const double cost = m->cost + step(entry_of(m->key), link);
            if (cost == kInf) continue;
            if (winner == nullptr || cost < best ||
                (cost == best &&
                 (m->crossings < winner->crossings ||
                  (m->crossings == winner->crossings &&
                   m->key < winner->key)))) {
              best = cost;
              winner = m;
            }
          }
          if (winner == nullptr || !keeps(best, bound)) continue;
          csp_detail::offer(state_at(v, units[next], link.entry, j), best,
                            winner->crossings + 1, uu, winner->slot,
                            winner->key);
        }
      }
    }
  }

  // Close at the destination proxy over the SG sink vertices.
  double best = kInf;
  std::uint32_t best_crossings = 0;
  std::size_t best_vertex = 0;
  std::uint32_t best_slot = 0;
  std::uint64_t best_key = 0;
  std::uint64_t kept = 0;
  for (const FlatTable<State>& table : tables) kept += table.entries.size();
  for (std::size_t v : graph.sinks()) {
    const std::vector<State>& states = tables[v].entries;
    for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
      const State& s = states[slot];
      std::uint32_t crossings = s.crossings;
      const double cost =
          close(candidates[v][s.cand], entry_of(s.key), s.cost, crossings);
      if (cost == kInf) continue;
      // Same deterministic tie-break as offer(): equal-cost closings
      // prefer fewer crossings, then (within one sink vertex) the smaller
      // state key. Across sinks, the first vertex in graph.sinks() order
      // wins.
      if (cost < best ||
          (cost == best &&
           (crossings < best_crossings ||
            (crossings == best_crossings && v == best_vertex &&
             s.key < best_key)))) {
        best = cost;
        best_crossings = crossings;
        best_vertex = v;
        best_slot = slot;
        best_key = s.key;
      }
    }
  }
  kept_counter.add(kept);
  skip_counter.add(skips);

  CspSearch<Unit> csp;
  if (best == kInf) return csp;
  csp.found = true;
  csp.lower_bound = best;
  for (std::uint32_t v = static_cast<std::uint32_t>(best_vertex),
                     slot = best_slot;
       v != csp_detail::kNone;) {
    const State& s = tables[v].entries[slot];
    csp.steps.push_back(CspStep<Unit>{v, units[candidates[v][s.cand]]});
    v = s.prev_vertex;
    slot = s.prev_slot;
  }
  std::reverse(csp.steps.begin(), csp.steps.end());
  return csp;
}

/// Dissect a found CSP into its maximal runs of one unit (paper §5.1
/// step 3). `unit_of` names the unit member of `Element`, which also
/// carries `sg_vertex`. A run is entered at the source proxy when it lies
/// in the source's unit, otherwise at its unit's border facing the
/// previous unit (the source's unit for the first run); its exit is
/// symmetric toward the destination.
template <typename Element, typename Unit, typename LinkSource>
[[nodiscard]] std::vector<UnitRun<Unit>> dissect_runs(
    const std::vector<Element>& elements, Unit Element::*unit_of,
    const ServiceGraph& graph, const CspEnds<Unit>& ends,
    const LinkSource& links) {
  std::vector<UnitRun<Unit>> runs;
  std::size_t i = 0;
  while (i < elements.size()) {
    const Unit unit = elements[i].*unit_of;
    std::size_t j = i;
    while (j + 1 < elements.size() && elements[j + 1].*unit_of == unit) ++j;
    UnitRun<Unit> run{unit, NodeId{}, NodeId{}, {}};
    run.chain.reserve(j - i + 1);
    for (std::size_t k = i; k <= j; ++k) {
      run.chain.push_back(graph.label(elements[k].sg_vertex));
    }
    // Neighbouring runs differ in unit, so only the first run can share
    // the source's unit and only the last the destination's.
    const Unit prev = i == 0 ? ends.source_unit : elements[i - 1].*unit_of;
    const Unit next = j + 1 == elements.size() ? ends.destination_unit
                                               : elements[j + 1].*unit_of;
    run.entry = unit == prev ? ends.source : links.link(unit, prev).exit;
    run.exit = unit == next ? ends.destination : links.link(unit, next).exit;
    ensure(run.entry.valid() && run.exit.valid(),
           "dissect_runs: the CSP crosses a unit pair with no link");
    runs.push_back(std::move(run));
    i = j + 1;
  }
  return runs;
}

}  // namespace hfc
