// Contiguous coordinate store (DESIGN.md §11).
//
// n points of one dimension held as one row-major n × dim block of
// doubles. Every resident coordinate array — the overlay network, the
// coordinate distance tier, the dynamic overlay's universe — is a
// PointSet, and the spatial index, the Borůvka MST sweeps, Zahn
// clustering and the multilevel build read rows through it: a distance
// evaluation touches two rows of one block instead of two separately
// allocated Point vectors.
//
// Rows are views: `row(i)` stays valid until the next push_back, which
// may reallocate. Holders that keep a pointer to the set (KdTree,
// DynamicSpatialSet) therefore re-read rows through it on every access,
// which is what lets a set grow under them on the join path.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "coords/point.h"
#include "util/require.h"

namespace hfc {

class PointSet {
 public:
  PointSet() = default;

  /// An empty set of `dim`-dimensional points.
  explicit PointSet(std::size_t dim) : dim_(dim) {}

  /// A copy of `points`, which must share one dimension. Implicit: a
  /// Point list is the API-edge form of a PointSet, so constructors and
  /// entry points that take a PointSet by value or const reference accept
  /// one (holders that keep a pointer reject the temporary instead).
  PointSet(const std::vector<Point>& points) { append_all(points); }
  PointSet(std::initializer_list<Point> points) { append_all(points); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Coordinates per point (0 for a default-constructed set until its
  /// first push_back).
  [[nodiscard]] std::size_t dim() const { return dim_; }

  /// Point i's coordinates. Unchecked, like vector indexing.
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * dim_, dim_};
  }
  /// Same as row(i), so indexing code reads as it does over a vector.
  [[nodiscard]] std::span<const double> operator[](std::size_t i) const {
    return row(i);
  }

  void reserve(std::size_t n) { data_.reserve(n * dim_); }

  /// Append one point (a join). The first point of a dimensionless set
  /// fixes the dimension; later points must match it.
  void push_back(const Point& p) { append_row(p); }

  /// The rows `ids`, in order, as a set of their own.
  template <class Ids>
  [[nodiscard]] PointSet subset(const Ids& ids) const {
    PointSet out(dim_);
    out.reserve(ids.size());
    for (const auto id : ids) {
      out.append_row(row(static_cast<std::size_t>(id)));
    }
    return out;
  }

  /// Bytes of coordinate storage held.
  [[nodiscard]] std::size_t resident_bytes() const {
    return data_.capacity() * sizeof(double);
  }

 private:
  void append_row(std::span<const double> p) {
    if (size_ == 0 && dim_ == 0) dim_ = p.size();
    require(p.size() == dim_, "PointSet: inconsistent coordinate dimensions");
    data_.insert(data_.end(), p.begin(), p.end());
    ++size_;
  }

  template <class Points>
  void append_all(const Points& points) {
    if (points.size() > 0) dim_ = points.begin()->size();
    reserve(points.size());
    for (const Point& p : points) push_back(p);
  }

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::vector<double> data_;
};

}  // namespace hfc
