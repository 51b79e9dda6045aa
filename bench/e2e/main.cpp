// hfc_e2e — end-to-end benchmark driver (bench/e2e/README.md).
//
//   hfc_e2e --workload W [--seed S] [--seconds T] [--threads K]
//           [--trace FILE] [--smoke]
//
// Runs one workload in this process: set-up several times, then a closed
// loop of requests for T seconds (a fixed small amount with --smoke), on a
// thread pool of K (default: the workload's pinned size, see kWorkloads). It
// prints every metric as `W <name> <value> <unit>`, writes
// BENCH_e2e_<W>.json into the working directory and exits 1 when any output
// check failed, 2 on a usage or environment error.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.h"

extern char** environ;

namespace {

/// Workloads and their pinned pool sizes. Parallel sections wait for their
/// slowest thread, which on a shared 4-vCPU machine made multi-threaded
/// runs of the serving and streaming workloads two to three times noisier
/// than serial ones (bench/e2e/README.md, calibration). ml_build keeps 3
/// threads: its set-up is the group-parallel construction pipeline, and
/// was no noisier there.
struct Workload {
  std::string_view name;
  std::size_t threads;
};
constexpr Workload kWorkloads[] = {{"paper_flat", 1},
                                   {"ml_build", 3},
                                   {"serve_hot", 1},
                                   {"serve_churn", 1},
                                   {"stream_chaos", 1}};

int usage(const char* why) {
  std::cerr << "hfc_e2e: " << why
            << "\nusage: hfc_e2e --workload paper_flat|ml_build|serve_hot|"
               "serve_churn|stream_chaos [--seed S] [--seconds T] "
               "[--threads K] [--trace FILE] [--smoke]\n";
  return 2;
}

/// Library knobs come from the environment; the benchmark pins every one
/// of them at its default by refusing to run while any is set.
bool knob_set() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string_view(*e).starts_with("HFC_")) {
      std::cerr << "hfc_e2e: library knob set in the environment: " << *e
                << "\n";
      return true;
    }
  }
  return false;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t value = 0;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (!has_value) {
      return usage(("missing value or unknown flag: " + arg).c_str());
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--trace") {
      opts.trace_path = argv[++i];
    } else if (arg == "--seed" && parse_u64(argv[i + 1], value)) {
      opts.seed = value;
      ++i;
    } else if (arg == "--threads" && parse_u64(argv[i + 1], value) &&
               value >= 1 && value <= 256) {
      opts.threads = value;
      ++i;
    } else if (arg == "--seconds" && parse_u64(argv[i + 1], value) &&
               value >= 1 && value <= 3600) {
      opts.seconds = static_cast<double>(value);
      ++i;
    } else {
      return usage(("bad argument: " + arg + " " + argv[i + 1]).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == opts.workload) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (opts.threads == 0) opts.threads = workload->threads;
  if (knob_set()) return 2;

  try {
    e2e::Run run(opts);
    {
      e2e::Run::Span root(run, "e2e.run");
      if (opts.workload == "paper_flat") {
        e2e::run_paper_flat(run);
      } else if (opts.workload == "ml_build") {
        e2e::run_ml_build(run);
      } else if (opts.workload == "serve_hot") {
        e2e::run_serve(run, /*hot=*/true);
      } else if (opts.workload == "serve_churn") {
        e2e::run_serve(run, /*hot=*/false);
      } else {
        e2e::run_stream_chaos(run);
      }
    }
    return run.finish();
  } catch (const std::exception& e) {
    std::cerr << "hfc_e2e: error: " << e.what() << "\n";
    return 2;
  }
}
