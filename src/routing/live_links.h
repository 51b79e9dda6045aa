// The live-link view (DESIGN.md §10): the links one routing computation
// crosses between sibling units, crashed proxies taken out. A store —
// HfcTopology, over the sibling groups of every level — keeps one §3.3
// border pair per unit pair. Under an
// `up` predicate a stored pair with a down end gives way to the closest
// pair of the two units' surviving members (lex-min (d, x, y), as a fresh
// selection); with no survivor on one side the units are disconnected.
// Each unordered pair resolves once per view. Without a predicate the
// view is the store's stored link, with no memo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "overlay/overlay_network.h"
#include "routing/csp_kernel.h"
#include "routing/flat_table.h"
#include "spatial/closest_pair.h"

namespace hfc {

/// `Store` supplies `link(from, toward)`, the stored CspLink (found only
/// for distinct live siblings), and `members(unit)`, ascending.
template <typename Unit, typename Store>
class LiveLinkView {
 public:
  /// `distance` is the metric the store's pairs were chosen under. The
  /// store and the distance must outlive the view; a null `up` accepts
  /// every proxy.
  LiveLinkView(const Store& store, const OverlayDistance& distance,
               std::function<bool(NodeId)> up)
      : store_(store), distance_(distance), up_(std::move(up)) {}

  /// The live link from `from` toward `toward`: `exit` inside `from`,
  /// `entry` inside `toward`; not found when the units are disconnected.
  [[nodiscard]] CspLink link(Unit from, Unit toward) const {
    if (!up_) return store_.link(from, toward);
    const bool swap = toward < from;
    const Unit lo = swap ? toward : from;
    const Unit hi = swap ? from : toward;
    const auto [slot, inserted] = memo_.emplace(
        csp_detail::pack(csp_detail::bits(lo), csp_detail::bits(hi)));
    if (inserted) memo_.entries[slot].link = resolve(lo, hi);
    const CspLink& l = memo_.entries[slot].link;
    return swap ? CspLink{l.entry, l.exit, l.length, l.found} : l;
  }

  /// Pairs this view resolved to a surviving fallback pair, and pairs it
  /// found disconnected.
  [[nodiscard]] std::size_t fallbacks() const { return fallbacks_; }
  [[nodiscard]] std::size_t unreachable() const { return unreachable_; }

 private:
  struct Pair {
    std::uint64_t key = 0;  ///< (min unit, max unit)
    CspLink link;           ///< oriented from min to max
  };

  CspLink resolve(Unit lo, Unit hi) const {
    const CspLink stored = store_.link(lo, hi);
    if (!stored.found || (up_(stored.exit) && up_(stored.entry))) {
      return stored;
    }
    // The accept predicate keeps closest_pair on its scan.
    QueryStats stats;
    const BcpResult r = closest_pair(PairSide{store_.members(lo)},
                                     PairSide{store_.members(hi)}, distance_,
                                     stats, up_);
    if (!r.found()) {
      ++unreachable_;
      return CspLink{};
    }
    ++fallbacks_;
    return CspLink{NodeId(r.x), NodeId(r.y), r.dist, true};
  }

  const Store& store_;
  const OverlayDistance& distance_;
  std::function<bool(NodeId)> up_;
  mutable FlatTable<Pair> memo_;
  mutable std::size_t fallbacks_ = 0;
  mutable std::size_t unreachable_ = 0;
};

}  // namespace hfc
