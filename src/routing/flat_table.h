// Open-addressing table for the routing layer's per-computation scratch:
// the CSP kernel's search states and distance memo, and the live-link
// view's surviving-pair memo.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hfc {

/// Insertion-ordered table keyed by a 64-bit key. Entries live densely in
/// `entries`, in insertion order, and keep their slot for the table's
/// life; a power-of-two index of slot + 1 (0 = empty), at most half full,
/// finds them by linear probing. It allocates nothing until the first
/// insert and grows with what is inserted, so its cost follows the keys a
/// computation touches, not the size of the key space. `Entry` must be
/// default-constructible with a `std::uint64_t key` member.
template <typename Entry>
class FlatTable {
 public:
  /// Slot of `key` and whether it was inserted: an absent key appends a
  /// default entry carrying it.
  std::pair<std::uint32_t, bool> emplace(std::uint64_t key) {
    if (2 * (entries.size() + 1) > index_.size()) grow();
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = home(key);
    while (index_[pos] != 0) {
      const std::uint32_t slot = index_[pos] - 1;
      if (entries[slot].key == key) return {slot, false};
      pos = (pos + 1) & mask;
    }
    const auto slot = static_cast<std::uint32_t>(entries.size());
    index_[pos] = slot + 1;
    entries.emplace_back().key = key;
    return {slot, true};
  }

  std::vector<Entry> entries;

 private:
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void grow() {
    index_.assign(std::max<std::size_t>(16, 2 * index_.size()), 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    const std::size_t mask = index_.size() - 1;
    for (std::uint32_t slot = 0; slot < entries.size(); ++slot) {
      std::size_t pos = home(entries[slot].key);
      while (index_[pos] != 0) pos = (pos + 1) & mask;
      index_[pos] = slot + 1;
    }
  }

  std::vector<std::uint32_t> index_;
  unsigned shift_ = 64;
};

}  // namespace hfc
