// Robust environment-knob parsing and the knob registry.
//
// The library reads four deployment and observability knobs from the
// environment — HFC_THREADS, HFC_TRACE, HFC_TRACE_BUF, HFC_TRACE_FILE —
// and nothing else: every tuning value is a field of the config struct
// that consumes it (StreamingParams, FrameworkConfig, ...),
// with its default as the field's initializer. Benches and examples read
// their own sweep knobs ("bench" scope) and set those fields.
//
// Every numeric knob goes through `env_size_t`, which turns malformed
// input — non-numeric text, negative numbers, values below the knob's
// minimum, or values that overflow an unsigned 64-bit integer — into
// the documented default plus a single stderr warning,
// instead of silently mis-parsing (strtoull happily returns 0 for "abc"
// and wraps negatives) or invoking undefined behaviour downstream.
// Enumerated knobs go through `env_choice` and on/off knobs through
// `env_flag`, with the same warn-once fallback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace hfc {

/// Read the environment variable `name` as a non-negative integer.
///
/// Returns `fallback` when the variable is unset. When it is set but
/// unusable — not a plain base-10 integer, below `min_value`, or outside
/// the 64-bit range — the value is rejected, `fallback` is returned, and
/// one warning is printed to stderr (once per variable name for the
/// process lifetime, so a knob read in a hot loop does not spam).
[[nodiscard]] std::size_t env_size_t(const char* name, std::size_t fallback,
                                     std::size_t min_value = 1);

/// Same semantics for 64-bit seeds (min_value 0: every seed is valid).
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Read `name` as one of `choices` (exact, case-sensitive match) and
/// return the index of the match. Unset returns `fallback`; any other
/// value warns once ("expected a|b") and returns `fallback`, which must
/// index `choices`.
[[nodiscard]] std::size_t env_choice(const char* name,
                                     std::initializer_list<const char*> choices,
                                     std::size_t fallback);

/// Read `name` as a boolean flag: "1" is on, "0" is off, surrounding
/// whitespace allowed. Unset returns `fallback`; any other value
/// ("true", "2", "") warns once and returns `fallback`.
[[nodiscard]] bool env_flag(const char* name, bool fallback);

/// The strict parser behind the knobs: a full base-10 unsigned integer,
/// surrounding whitespace allowed. Fails (returning false and pointing
/// `why` at a static reason) on empty strings, signs, trailing garbage,
/// and values outside the 64-bit range — unlike a bare strtoull or a
/// round-trip through double, which silently wraps, truncates, or loses
/// precision above 2^53. Exposed for other text formats that embed u64
/// values (e.g. the FaultPlan `seed:` directive).
[[nodiscard]] bool parse_u64(const char* raw, std::uint64_t& out,
                             const char*& why);

/// One registered HFC_* environment knob. The registry is the single
/// source of truth for what knobs exist: `hfc_cli knobs` dumps it, and
/// tests/test_knobs.cpp greps the tree for `HFC_[A-Z0-9_]+` uses and
/// fails on any knob that is missing from it — so a new knob cannot land
/// undocumented — and on any core knob outside the deployment set.
struct EnvKnob {
  const char* name;         ///< e.g. "HFC_THREADS"
  const char* fallback;     ///< human-readable default ("hardware", "16")
  const char* description;  ///< one line: what the knob controls
  /// "core" for the library's deployment knobs, "bench" for bench and
  /// example sweep knobs.
  const char* scope;
};

/// All registered knobs, sorted by name.
[[nodiscard]] const std::vector<EnvKnob>& registered_knobs();

/// Registry lookup; nullptr when `name` is not a registered knob.
[[nodiscard]] const EnvKnob* find_knob(std::string_view name);

/// Warn-once hook for knobs whose parsing lives at the call site (and
/// the one behind env_choice / env_flag): emits the same one-line stderr
/// warning format as env_size_t, counts toward env_warning_count(), and
/// stays quiet on repeated reads of the same variable until
/// reset_env_warnings().
void warn_env_once(const char* name, const char* raw, const char* why,
                   const char* fallback);

/// Test hook: forget which variables have already warned, so negative-path
/// tests can assert "exactly one warning" deterministically.
void reset_env_warnings();

/// Number of env-parse warnings emitted so far (test observability).
[[nodiscard]] std::size_t env_warning_count();

}  // namespace hfc
