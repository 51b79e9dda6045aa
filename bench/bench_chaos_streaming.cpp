// Chaos streaming bench (ISSUE 10 tentpole driver): one long-lived
// multicast session per source over a 10k+-receiver universe, driven by a
// seeded churn schedule (StreamSchedule) and a seeded fault schedule
// (FaultPlan) simultaneously, three times: serial, serial replay, and
// 4-thread. The run asserts
//   - byte-identical session digests across all three runs (the repair
//     pass's parallel candidate routing must not leak thread count),
//   - >= 99% delivery ratio over the post-repair tail,
//   - reservations net zero after the session finishes,
// and reports receivers/sec plus the stream.* repair-latency percentiles
// in BENCH_chaos_streaming.json.
//
// Knobs: HFC_STREAM_N (receivers, default 10000), HFC_STREAM_SOURCES
// (concurrent stream sources, default 2), HFC_STREAM_MODE
// (locating | clique regraft strategy), HFC_STREAM_SEED.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/dynamic/dynamic_overlay.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/qos/qos_manager.h"
#include "src/sim/event_queue.h"
#include "src/streaming/stream_schedule.h"
#include "src/streaming/streaming_session.h"
#include "src/util/require.h"
#include "src/util/rng.h"

namespace {

using namespace hfc;

constexpr double kSessionHorizonMs = 1000.0;
constexpr double kChurnFaultHorizonMs = 600.0;

struct RunResult {
  std::string digest;
  double tail_ratio = 0.0;
  double whole_ratio = 0.0;
  double reserved_after = 0.0;
  std::uint64_t regrafts = 0;
  std::uint64_t repair_failures = 0;
  std::size_t members = 0;
  double wall_ms = 0.0;
};

RunResult run_session(std::uint64_t seed, std::size_t receivers,
                      std::size_t source_count, StreamMode mode) {
  const auto t0 = std::chrono::steady_clock::now();

  // Universe: receivers plus 10% headroom, in ~100-proxy blobs; placement
  // cycles four services so every cluster hosts the chain.
  const std::size_t n = receivers + receivers / 10 + source_count;
  const std::size_t blobs = std::max<std::size_t>(4, n / 100);
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = i % blobs;
    pts.push_back({static_cast<double>(b % 16) * 120.0 +
                       rng.uniform_real(-5.0, 5.0),
                   static_cast<double>(b / 16) * 120.0 +
                       rng.uniform_real(-5.0, 5.0)});
  }
  ServicePlacement placement(n);
  for (std::size_t i = 0; i < n; ++i) {
    placement[i] = {ServiceId(static_cast<std::int32_t>(i % 4))};
  }

  DynamicHfcOverlay overlay(pts, placement, {},
                            BorderSelection::kClosestPair);
  const OverlayNetwork& net = overlay.universe_network();
  const HfcTopology& topo = overlay.universe_topology();
  QosManager qos(net, topo, std::vector<double>(net.size(), 1.0e6),
                 CapacityAggregation::kOptimistic);

  FaultPlanParams fp;
  fp.horizon_ms = kChurnFaultHorizonMs;
  fp.heal_fraction = 1.0;
  fp.crashes = 20;
  fp.mean_downtime_ms = 150.0;
  fp.partitions = 3;
  fp.mean_partition_ms = 120.0;
  fp.bursts = 2;
  fp.mean_burst_ms = 80.0;
  fp.burst_loss = 0.3;
  const FaultPlan plan = FaultPlan::random(fp, topo, seed);

  std::set<NodeId> victims;
  for (const FaultEvent& event : plan.events()) {
    if (event.kind == FaultKind::kCrash) victims.insert(event.node);
  }
  std::vector<NodeId> sources;
  std::vector<NodeId> pool;
  for (NodeId node : net.all_nodes()) {
    if (sources.size() < source_count &&
        victims.find(node) == victims.end()) {
      sources.push_back(node);
    } else {
      pool.push_back(node);
    }
  }
  require(sources.size() == source_count,
          "bench_chaos_streaming: not enough surviving source candidates");

  StreamScheduleParams sp;
  sp.initial_count = receivers - receivers / 10;
  sp.join_count = receivers / 10;
  sp.leave_count = receivers / 20;
  sp.horizon_ms = kChurnFaultHorizonMs;
  const StreamSchedule schedule = StreamSchedule::random(pool, sp, seed);
  std::vector<ChurnEvent> deactivations;
  for (NodeId node : schedule.late_joiners()) {
    deactivations.push_back(ChurnEvent::make_deactivate(node));
  }
  (void)overlay.apply(deactivations);

  StreamingParams params;
  params.chain = {ServiceId(1)};
  params.tick_ms = 50.0;
  params.repair_delay_ms = 25.0;
  params.demand = 1.0;
  params.mode = mode;
  params.seed = seed;
  StreamingSession session(overlay, qos, sources, params);
  FaultInjector injector(plan, topo);
  session.attach_injector(injector);

  Simulator sim;
  injector.arm(sim);
  session.start(sim, kSessionHorizonMs);
  schedule.arm(sim, overlay, session);
  sim.run();

  RunResult r;
  const double quiesce =
      std::max(plan.last_event_ms(), kChurnFaultHorizonMs) +
      2.0 * params.repair_delay_ms;
  r.tail_ratio = session.continuity(quiesce).ratio();
  r.whole_ratio = session.continuity().ratio();
  r.reserved_after = qos.reserved_total();
  r.regrafts = session.regraft_count();
  r.repair_failures = session.repair_failure_count();
  r.members = session.member_count();
  r.digest = session.digest() + plan.serialize();
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

}  // namespace

int main() {
  using benchutil::fmt;
  benchutil::BenchJson json("chaos_streaming");

  const std::size_t receivers = benchutil::env_size("HFC_STREAM_N", 10000);
  const std::size_t source_count =
      benchutil::env_size("HFC_STREAM_SOURCES", 2);
  const std::uint64_t seed = env_u64("HFC_STREAM_SEED", 1);
  const StreamMode mode = stream_mode_from_env();

  std::cerr << "[chaos_streaming] receivers=" << receivers
            << " sources=" << source_count << " mode="
            << (mode == StreamMode::kClique ? "clique" : "locating") << "\n";

  set_global_threads(1);
  const RunResult serial = run_session(seed, receivers, source_count, mode);
  const RunResult replay = run_session(seed, receivers, source_count, mode);
  set_global_threads(4);
  const RunResult threaded = run_session(seed, receivers, source_count, mode);
  set_global_threads(0);

  // Determinism gate: all three runs must be byte-identical.
  require(serial.digest == replay.digest,
          "bench_chaos_streaming: same-seed replay diverged");
  require(serial.digest == threaded.digest,
          "bench_chaos_streaming: serial vs 4-thread digest diverged");
  // Quality gate: the post-repair tail delivers.
  require(serial.tail_ratio >= 0.99,
          "bench_chaos_streaming: post-repair delivery ratio below 99%");
  require(serial.reserved_after > -1e-6 && serial.reserved_after < 1e-6,
          "bench_chaos_streaming: reservations did not net to zero");

  const auto snap = obs::MetricsRegistry::global().snapshot();
  const double repair_p50 =
      obs::histogram_quantile(snap, "stream.repair_latency_ms", 0.5);
  const double repair_p99 =
      obs::histogram_quantile(snap, "stream.repair_latency_ms", 0.99);
  const double interrupt_p99 =
      obs::histogram_quantile(snap, "stream.interruption_ms", 0.99);

  std::cerr << "[chaos_streaming] members=" << serial.members
            << " regrafts=" << serial.regrafts
            << " repair_failures=" << serial.repair_failures << "\n"
            << "[chaos_streaming] delivery: tail=" << fmt(serial.tail_ratio, 4)
            << " whole-run=" << fmt(serial.whole_ratio, 4) << "\n"
            << "[chaos_streaming] repair latency p50=" << fmt(repair_p50, 2)
            << "ms p99=" << fmt(repair_p99, 2)
            << "ms; interruption p99=" << fmt(interrupt_p99, 2) << "ms\n"
            << "[chaos_streaming] wall serial=" << fmt(serial.wall_ms, 1)
            << "ms replay=" << fmt(replay.wall_ms, 1)
            << "ms threaded=" << fmt(threaded.wall_ms, 1) << "ms\n"
            << "[chaos_streaming] digests byte-identical across serial, "
               "replay, 4-thread\n";

  json.add_trials(3);
  json.note("receivers", static_cast<double>(receivers));
  json.note("sources", static_cast<double>(source_count));
  json.note("members_final", static_cast<double>(serial.members));
  json.note("delivery_tail", serial.tail_ratio);
  json.note("delivery_whole_run", serial.whole_ratio);
  json.note("regrafts", static_cast<double>(serial.regrafts));
  json.note("repair_failures", static_cast<double>(serial.repair_failures));
  json.note("repair_latency_p50_ms", repair_p50);
  json.note("repair_latency_p99_ms", repair_p99);
  json.note("interruption_p99_ms", interrupt_p99);
  json.note("serial_wall_ms", serial.wall_ms);
  json.note("threaded_wall_ms", threaded.wall_ms);
  return 0;
}
