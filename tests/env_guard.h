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

}  // namespace hfc
