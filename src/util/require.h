// Precondition checking helpers.
//
// Library entry points validate their arguments with `require` and throw
// `std::invalid_argument`; internal invariants use `ensure` and throw
// `std::logic_error`. Both are plain functions (not macros) so call sites
// stay readable and the compiler can elide the branch in hot loops when the
// condition is provably true. A string-literal message binds to the
// `const char*` overload, so a passing check builds no std::string: checks
// on hot paths (euclidean(), every k-d tree query) cost one compare.
#pragma once

#include <stdexcept>
#include <string>

namespace hfc {

/// Validate a caller-supplied precondition.
inline void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}
inline void require(bool condition, const std::string& message) {
  if (!condition) throw std::invalid_argument(message);
}

/// Assert an internal invariant that should hold by construction.
inline void ensure(bool condition, const char* message) {
  if (!condition) throw std::logic_error(message);
}
inline void ensure(bool condition, const std::string& message) {
  if (!condition) throw std::logic_error(message);
}

}  // namespace hfc
