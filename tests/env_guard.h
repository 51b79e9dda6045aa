// RAII environment override for tests: sets a variable for the guard's
// scope and restores the previous value (or unsets it) on exit.
#pragma once

#include <cstdlib>
#include <string>

namespace hfc {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = ::getenv(name);
    if (old != nullptr) {
      had_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

/// A point-count floor above any test's input size. As HFC_SPATIAL_MIN_N
/// it forces every spatial consumer onto its brute-force scan; as
/// HFC_ML_PAR_MIN_N it keeps construction on the single global sweep.
inline constexpr const char* kAboveAnyN = "1000000000";

}  // namespace hfc
