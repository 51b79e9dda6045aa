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
// bounds and the work they save, §9 (b) the tie-break. The bodies live
// in csp_kernel.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "overlay/overlay_network.h"
#include "services/service_graph.h"
#include "util/ids.h"

namespace hfc {

class LiveLinkView;

/// The endpoints of one search: source and destination proxies and the
/// units that hold them.
struct CspEnds {
  NodeId source;
  NodeId destination;
  ClusterId source_unit;
  ClusterId destination_unit;
};

/// The unit chosen for one SG vertex.
struct CspStep {
  std::size_t sg_vertex = 0;
  ClusterId unit;
};

/// A unit-level service path: one step per SG vertex of the chosen
/// configuration, in order, and its cost under the selection metric.
struct CspSearch {
  bool found = false;
  double lower_bound = 0.0;
  std::vector<CspStep> steps;
};

/// A maximal run of consecutive CSP steps in one unit: the linear chain
/// of services it serves, entered at `entry` and left at `exit`.
struct UnitRun {
  ClusterId unit;
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
/// toward)` is the live link between two units and `links.length(parent,
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
[[nodiscard]] CspSearch search_csp(
    const ServiceGraph& graph, const CspEnds& ends, ClusterId parent,
    const std::vector<ClusterId>& units,
    const std::vector<std::vector<std::uint32_t>>& candidates,
    const LiveLinkView& links, const OverlayDistance& distance,
    bool lower_bounds);

/// Dissect a found CSP, given by its `steps` in order, into its maximal
/// runs of one unit (paper §5.1 step 3). A run is entered at the source
/// proxy when it lies in the source's unit, otherwise at its unit's
/// border facing the previous unit (the source's unit for the first
/// run); its exit is symmetric toward the destination.
[[nodiscard]] std::vector<UnitRun> dissect_runs(
    const std::vector<CspStep>& steps, const ServiceGraph& graph,
    const CspEnds& ends, const LiveLinkView& links);

}  // namespace hfc
