// The cluster-level service path (CSP) search of paper §5.1 and the run
// dissection that follows it, shared by both hierarchical routers.
//
// A *unit* is what the current level of the hierarchy routes across: a
// cluster for HierarchicalServiceRouter, a sibling child group at each
// recursion step of MultiLevelRouter. The search maps every SG vertex
// onto one candidate unit and prices the configuration by its external
// links plus, with lower bounds on, the internal segments it cannot
// avoid. Its state is (unit, entry node), which keeps that cost
// Markovian, and it relaxes unit-major: per SG edge, each (unit, next
// unit) group resolves its link once and offers only its best transition.
// DESIGN.md §5 has the work bound and §9 (b) the tie-break.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "overlay/overlay_network.h"
#include "routing/flat_table.h"
#include "services/service_graph.h"
#include "util/ids.h"
#include "util/require.h"

namespace hfc {

/// The link from unit `from` toward unit `toward`: `exit` is the border
/// inside `from`, `entry` the border inside `toward`, `length` the
/// external link between them.
struct CspLink {
  NodeId exit, entry;  ///< invalid when !found
  double length = std::numeric_limits<double>::infinity();
  bool found = false;
};

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

/// An id or group index as one half of a table key.
template <typename Tag>
constexpr std::uint32_t bits(Id<Tag> id) {
  return static_cast<std::uint32_t>(id.value());
}
constexpr std::uint32_t bits(std::size_t group) {
  return static_cast<std::uint32_t>(group);
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
/// members[offsets[g], offsets[g + 1]). A counting sort, O(states + groups).
inline void group_by_unit(const std::vector<State>& states,
                          std::size_t groups,
                          std::vector<std::uint32_t>& offsets,
                          std::vector<Member>& members) {
  offsets.assign(groups + 2, 0);
  for (const State& s : states) ++offsets[s.cand + 2];
  for (std::size_t g = 1; g <= groups; ++g) offsets[g + 1] += offsets[g];
  members.resize(states.size());
  for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
    const State& s = states[slot];
    members[offsets[s.cand + 1]++] = Member{s.key, s.cost, s.crossings, slot};
  }
  offsets.pop_back();
}

}  // namespace csp_detail

/// The cheapest unit-level service path for a non-empty `graph` between
/// `ends`. `candidates[v]` lists the units that may serve SG vertex v,
/// each at most once. `links.link(from, toward)` returns a CspLink;
/// `distance` prices internal segments, which count only when
/// `lower_bounds` is set. Not found when no configuration connects.
template <typename Unit, typename LinkSource>
[[nodiscard]] CspSearch<Unit> search_csp(
    const ServiceGraph& graph, const CspEnds<Unit>& ends,
    const std::vector<std::vector<Unit>>& candidates, const LinkSource& links,
    const OverlayDistance& distance, bool lower_bounds) {
  using csp_detail::bits;
  using csp_detail::entry_of;
  using csp_detail::Member;
  using csp_detail::pack;
  using csp_detail::State;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Decision distance from `entry` to `exit`, memoized: a search prices
  // many (state, candidate) transitions over few distinct border pairs.
  FlatTable<csp_detail::Memo> memo;
  const auto internal = [&](NodeId entry, NodeId exit) {
    const auto [slot, inserted] = memo.emplace(pack(bits(entry), bits(exit)));
    if (inserted) memo.entries[slot].distance = distance(entry, exit);
    return memo.entries[slot].distance;
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
      const Unit c = candidates[v][j];
      double cost = 0.0;
      std::uint32_t crossings = 0;
      NodeId entry = ends.source;
      if (c != ends.source_unit) {
        const CspLink link = links.link(ends.source_unit, c);
        if (!link.found) continue;
        cost = link.length;
        if (lower_bounds && ends.source != link.exit) {
          cost += internal(ends.source, link.exit);
        }
        if (cost == kInf) continue;
        entry = link.entry;
        crossings = 1;
      }
      State& state = state_at(v, c, entry, j);
      if (cost < state.cost) {
        state.cost = cost;
        state.crossings = crossings;
      }
    }
  }

  // Relax SG edges in topological order, unit-major: by offer()'s total
  // order, offering each (unit, next) group's best transition equals
  // offering every state.
  std::vector<std::uint32_t> offsets;
  std::vector<Member> members;
  for (std::size_t u : graph.topological_order()) {
    if (tables[u].entries.empty() || graph.successors(u).empty()) continue;
    csp_detail::group_by_unit(tables[u].entries, candidates[u].size(),
                              offsets, members);
    const auto uu = static_cast<std::uint32_t>(u);
    for (std::size_t v : graph.successors(u)) {
      for (std::size_t g = 0; g < candidates[u].size(); ++g) {
        if (offsets[g] == offsets[g + 1]) continue;
        const Unit c = candidates[u][g];
        const Member* begin = members.data() + offsets[g];
        const Member* end = members.data() + offsets[g + 1];
        for (std::uint32_t j = 0; j < candidates[v].size(); ++j) {
          const Unit next = candidates[v][j];
          if (next == c) {
            for (const Member* m = begin; m != end; ++m) {
              csp_detail::offer(state_at(v, c, entry_of(m->key), j), m->cost,
                                m->crossings, uu, m->slot, m->key);
            }
            continue;
          }
          const CspLink link = links.link(c, next);
          if (!link.found) continue;
          double best = kInf;
          const Member* winner = nullptr;
          for (const Member* m = begin; m != end; ++m) {
            double step = link.length;
            if (lower_bounds && entry_of(m->key) != link.exit) {
              step += internal(entry_of(m->key), link.exit);
            }
            const double cost = m->cost + step;
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
          if (winner == nullptr) continue;
          csp_detail::offer(state_at(v, next, link.entry, j), best,
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
  for (std::size_t v : graph.sinks()) {
    const std::vector<State>& states = tables[v].entries;
    for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
      const State& s = states[slot];
      const Unit c = candidates[v][s.cand];
      const NodeId entry = entry_of(s.key);
      double cost = s.cost;
      std::uint32_t crossings = s.crossings;
      if (c == ends.destination_unit) {
        if (lower_bounds && entry != ends.destination) {
          cost += internal(entry, ends.destination);
        }
      } else {
        const CspLink link = links.link(c, ends.destination_unit);
        if (!link.found) continue;
        double step = link.length;
        if (lower_bounds && entry != link.exit) {
          step += internal(entry, link.exit);
        }
        cost += step;
        if (cost == kInf) continue;
        ++crossings;
        if (lower_bounds && link.entry != ends.destination) {
          cost += internal(link.entry, ends.destination);
        }
      }
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

  CspSearch<Unit> csp;
  if (best == kInf) return csp;
  csp.found = true;
  csp.lower_bound = best;
  for (std::uint32_t v = static_cast<std::uint32_t>(best_vertex),
                     slot = best_slot;
       v != csp_detail::kNone;) {
    const State& s = tables[v].entries[slot];
    csp.steps.push_back(CspStep<Unit>{v, candidates[v][s.cand]});
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
