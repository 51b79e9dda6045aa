// Strong identifier types used across the HFC framework.
//
// Indices into the overlay, cluster and service spaces are all small
// integers; using bare `int` for all of them invites silent cross-layer
// mix-ups (e.g. passing a cluster index where a node index is expected).
// `Id<Tag>` is a zero-overhead strong typedef: it compares, hashes and
// prints, but never converts implicitly to or from another Id type.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

namespace hfc {

/// A strongly-typed non-negative identifier. A default-constructed Id is
/// invalid (`valid() == false`); all ids handed out by the framework are
/// dense indices starting at 0 within their space.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::int32_t value) : value_(value) {}

  [[nodiscard]] constexpr bool valid() const { return value_ >= 0; }
  /// Raw value; only meaningful when valid().
  [[nodiscard]] constexpr std::int32_t value() const { return value_; }
  /// Value as a container index. Precondition: valid().
  [[nodiscard]] constexpr std::size_t idx() const {
    return static_cast<std::size_t>(value_);
  }

  friend constexpr auto operator<=>(Id, Id) = default;

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value_;
  }

 private:
  std::int32_t value_ = -1;
};

struct NodeTag {};
struct ClusterTag {};
struct ServiceTag {};
struct RouterTag {};

/// Overlay proxy node.
using NodeId = Id<NodeTag>;
/// Cluster of overlay proxies produced by the Zahn clustering.
using ClusterId = Id<ClusterTag>;
/// Service type ("MPEG2H261", "watermark", ...), drawn from a catalog.
using ServiceId = Id<ServiceTag>;
/// Router in the physical (underlay) topology.
using RouterId = Id<RouterTag>;

/// Which services each proxy hosts. placement[p] is sorted ascending.
using ServicePlacement = std::vector<std::vector<ServiceId>>;

}  // namespace hfc

template <typename Tag>
struct std::hash<hfc::Id<Tag>> {
  std::size_t operator()(hfc::Id<Tag> id) const noexcept {
    return std::hash<std::int32_t>{}(id.value());
  }
};
