#include "routing/csp_kernel.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "routing/flat_table.h"
#include "routing/live_links.h"
#include "util/require.h"

namespace hfc {

namespace {

using csp_detail::bits;
using csp_detail::pack;

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

}  // namespace

CspSearch search_csp(const ServiceGraph& graph, const CspEnds& ends,
                     ClusterId parent, const std::vector<ClusterId>& units,
                     const std::vector<std::vector<std::uint32_t>>& candidates,
                     const LiveLinkView& links, const OverlayDistance& distance,
                     bool lower_bounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static obs::Counter& kept_counter =
      obs::MetricsRegistry::global().counter("routing.csp_states");
  static obs::Counter& skip_counter =
      obs::MetricsRegistry::global().counter("routing.csp_bound_skips");
  static obs::Counter& walk_counter =
      obs::MetricsRegistry::global().counter("routing.csp_ub_walks");

  // Decision distance from `entry` to `exit`, memoized: a search prices
  // many (state, candidate) transitions over few distinct border pairs.
  FlatTable<Memo> memo;
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
        std::uint32_t arg = kNone;
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

  // Upper bound: from source candidates, follow the argmins to a sink and
  // price that configuration as the search would. Candidates go in
  // ascending link-only bound fl(length(source, j) + rest), a rounded
  // lower bound on the walk's priced cost, and the walks stop at the
  // first bound past the threshold of the best priced so far: by the
  // argument of kBoundSlack, no walk from there on prices below it, so
  // the minimum is the one every walk would give.
  const auto source = static_cast<std::uint32_t>(
      std::find(units.begin(), units.end(), ends.source_unit) -
      units.begin());
  struct Start {
    double bound;
    std::uint32_t vertex;
    std::uint32_t cand;
  };
  std::vector<Start> starts;
  for (std::size_t v : graph.sources()) {
    for (std::uint32_t j = 0; j < candidates[v].size(); ++j) {
      if (rest[v][j].length == kInf) continue;
      starts.push_back(
          Start{links.length(parent, source, candidates[v][j]) +
                    rest[v][j].length,
                static_cast<std::uint32_t>(v), j});
    }
  }
  std::sort(starts.begin(), starts.end(), [](const Start& a, const Start& b) {
    return a.bound < b.bound ||
           (a.bound == b.bound &&
            (a.vertex < b.vertex || (a.vertex == b.vertex && a.cand < b.cand)));
  });
  double upper = kInf;
  std::uint64_t walks = 0;
  for (const Start& start : starts) {
    if (start.bound > upper * (1.0 + kBoundSlack)) break;
    ++walks;
    NodeId entry;
    std::uint32_t crossings = 0;
    std::size_t at = start.vertex;
    std::uint32_t cand = start.cand;
    double cost = enter(candidates[at][cand], entry, crossings);
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
    upper =
        std::min(upper, close(candidates[at][cand], entry, cost, crossings));
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
  const auto state_at = [&tables](std::size_t v, ClusterId unit, NodeId entry,
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
    group_by_unit(tables[u].entries, groups, offsets, members,
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
              offer(state_at(v, units[c], entry_of(m->key), j),
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
          offer(state_at(v, units[next], link.entry, j), best,
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
  walk_counter.add(walks);

  CspSearch csp;
  if (best == kInf) return csp;
  csp.found = true;
  csp.lower_bound = best;
  for (std::uint32_t v = static_cast<std::uint32_t>(best_vertex),
                     slot = best_slot;
       v != kNone;) {
    const State& s = tables[v].entries[slot];
    csp.steps.push_back(CspStep{v, units[candidates[v][s.cand]]});
    v = s.prev_vertex;
    slot = s.prev_slot;
  }
  std::reverse(csp.steps.begin(), csp.steps.end());
  return csp;
}

std::vector<UnitRun> dissect_runs(const std::vector<CspStep>& steps,
                                  const ServiceGraph& graph,
                                  const CspEnds& ends,
                                  const LiveLinkView& links) {
  std::vector<UnitRun> runs;
  std::size_t i = 0;
  while (i < steps.size()) {
    const ClusterId unit = steps[i].unit;
    std::size_t j = i;
    while (j + 1 < steps.size() && steps[j + 1].unit == unit) ++j;
    UnitRun run{unit, NodeId{}, NodeId{}, {}};
    run.chain.reserve(j - i + 1);
    for (std::size_t k = i; k <= j; ++k) {
      run.chain.push_back(graph.label(steps[k].sg_vertex));
    }
    // Neighbouring runs differ in unit, so only the first run can share
    // the source's unit and only the last the destination's.
    const ClusterId prev = i == 0 ? ends.source_unit : steps[i - 1].unit;
    const ClusterId next =
        j + 1 == steps.size() ? ends.destination_unit : steps[j + 1].unit;
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
