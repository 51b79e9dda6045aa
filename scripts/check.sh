#!/usr/bin/env bash
# Repo-wide verification gate. Run from anywhere:
#
#   scripts/check.sh          # -Werror build + tests + TSan/ASan + coverage
#   scripts/check.sh --fast   # skip sanitizer + coverage builds (iteration)
#
# Stages:
#   1. Configure + build with -Wall -Wextra -Werror (HFC_WERROR=ON) into
#      build-check/, so new warnings fail the gate instead of scrolling by.
#   2. Run the full ctest suite (tier-1 gate).
#   3. Build with -DHFC_SANITIZE=thread into build-tsan/ and re-run the
#      concurrency-sensitive tests (obs metrics, thread pool, sim/protocol,
#      distance row caches, parallel construction paths, dynamic/churn
#      suites) with a 4-thread pool, so data races in the registry, the
#      pool, the sharded LRU or the batched border repair fail loudly;
#      the oracle-backed equivalence suites run again at 3 threads, since
#      an odd pool size chunks parallel loops unevenly, and the MST and
#      spatial suites again at 2; the digest suites (ChaosSuite,
#      StreamingChaosSuite, ServeTornRead: serial == replay == threaded)
#      run at 2 and 3 threads as well — the determinism matrix — and the
#      attach-selection suites (StreamingGoldenDigest, StreamingLazyAttach,
#      StreamingCandidateSelection, ClosestPairAccept), the dense
#      session-state suites (StreamingSlotReuse, StreamingDigestText,
#      FaultCrashTable), the churn repair box suite (BorderRepairBox), the
#      bounded CSP search's suites (CspOracle, RouteGoldenDigest), the
#      snapshot-capture oracle suite (ServeSnapshotReuse), the host-table
#      suite (SctP: serve solves read a snapshot's SCT_P from pool
#      threads), the in-place solve-input suites (DecisionCoordinates,
#      CandidateRanks) and the live-link suites (the multilevel
#      DegradedSweepTest instances, SurvivingBorderPair, BorderView) at 3;
#      then reduced
#      bench_churn_dynamic, bench_topology_scaling (group-local
#      pipeline forced on, so the parallel per-component scans run under
#      TSan), bench_serving_throughput (the
#      serving bench hammers snapshot publication + the route cache
#      with a 4-thread pool) and a reduced bench_chaos_streaming (the
#      repair pass fans candidate routing over the pool) under the same
#      build.
#   4. Build with -DHFC_SANITIZE=address (Debug, so the NDEBUG-gated
#      lifetime asserts are live) into build-asan/, run the memory-heavy
#      suites plus the dynamic/churn suites (the attach-selection,
#      repair-box, host-table and solve-input suites included), and run the
#      distance-scaling and churn benches at reduced sizes so the whole
#      build-and-route pipeline — including row-cache eviction and
#      incremental border repair — is exercised under ASan.
#   5. Build with -DHFC_COVERAGE=ON into build-cov/, delete the coverage
#      counts (.gcda) of any earlier run, run the full suite, and
#      enforce the line-coverage floor (90%) for src/cluster/boruvka.*,
#      src/cluster/group_pipeline.*, src/cluster/mst.*,
#      src/cluster/zahn.*, src/distance/, src/fault/,
#      src/overlay/hfc_topology.*, src/routing/, src/serve/, src/sim/,
#      src/spatial/ and src/streaming/ via scripts/coverage_gate.py
#      (gcov JSON, no gcovr).
#
# The sanitizer and coverage stages are the expensive ones; --fast skips
# all three.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: scripts/check.sh [--fast]" >&2
  exit 2
fi

echo "== [1/5] -Werror build =="
cmake -B build-check -S . -DHFC_WERROR=ON
cmake --build build-check -j"$JOBS"

echo "== [2/5] full test suite =="
ctest --test-dir build-check -j"$JOBS" --output-on-failure

if [[ "$FAST" == "1" ]]; then
  echo "== [3/5] TSan gate skipped (--fast) =="
  echo "== [4/5] ASan gate skipped (--fast) =="
  echo "== [5/5] coverage gate skipped (--fast) =="
  exit 0
fi

echo "== [3/5] TSan gate =="
cmake -B build-tsan -S . -DHFC_SANITIZE=thread
cmake --build build-tsan -j"$JOBS"
HFC_THREADS=4 ctest --test-dir build-tsan -j"$JOBS" --output-on-failure \
  -R 'Obs|Metrics|Trace|ThreadPool|Parallel|StateProtocol|Simulator|Distance|RowCache|Dynamic|Churn|Fault|Chaos|Spatial|TopologyScaling|Serve|GroupPipeline|Streaming'
HFC_THREADS=3 ctest --test-dir build-tsan -j"$JOBS" --output-on-failure \
  -R 'MstAlgo|SpatialKdTree|SpatialDynamicSet|Equivalence|GroupPipeline|Churn|RouteDegraded|CspOracle|RouteGoldenDigest|MultiLevelRouter|BiLevel|BorderPairTies|ClosestPairAccept|ChaosSuite|StreamingChaosSuite|StreamingGoldenDigest|StreamingLazyAttach|StreamingCandidateSelection|StreamingSlotReuse|StreamingDigestText|FaultCrashTable|BorderRepairBox|ServeTornRead|ServeSnapshotReuse|SctP|DecisionCoordinates|CandidateRanks|DegradedSweepTest.*/(MultiLevel|Bounded)|SurvivingBorderPair|BorderView'
HFC_THREADS=2 ctest --test-dir build-tsan -j"$JOBS" --output-on-failure \
  -R 'MstAlgo|Mst|GroupPipeline|SpatialEquivalence|SpatialKdTree|SpatialDynamicSet|ChaosSuite|StreamingChaosSuite|ServeTornRead'
HFC_THREADS=4 HFC_CHURN_N=500 HFC_CHURN_EVENTS=96 HFC_REQUESTS=40 \
  HFC_WAVES=2 HFC_BENCH_JSON=0 ./build-tsan/bench/bench_churn_dynamic
# Reduced n: phase 2 runs the group-local pipeline over cells of n/8
# points (eight cells at n = 600), so its per-cell parallel local phase
# runs under TSan with a 4-thread pool.
HFC_THREADS=4 HFC_TOPO_N=1500 HFC_TOPO_MST_N=600 HFC_TOPO_CMP_N=400 \
  HFC_TOPO_REQUESTS=40 \
  HFC_BENCH_JSON=0 ./build-tsan/bench/bench_topology_scaling
HFC_THREADS=4 HFC_SERVE_N=500 HFC_SERVE_WAVES=8 HFC_SERVE_WAVE_REQUESTS=48 \
  HFC_BENCH_JSON=0 ./build-tsan/bench/bench_serving_throughput
# Streaming sessions at reduced receiver count: the repair pass's
# parallel candidate routing (serial collect -> parallel route -> serial
# apply) runs under TSan with a 4-thread pool, plus the serial-vs-4-thread
# digest equality check inside the bench itself.
HFC_THREADS=4 HFC_STREAM_N=300 HFC_BENCH_JSON=0 \
  ./build-tsan/bench/bench_chaos_streaming

echo "== [4/5] ASan gate =="
cmake -B build-asan -S . -DHFC_SANITIZE=address -DCMAKE_BUILD_TYPE=Debug
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan -j"$JOBS" --output-on-failure \
  -R 'Distance|RowCache|SymMatrix|Oracle|Mesh|Overlay|CoordDistance|Dynamic|Churn|Fault|Chaos|Spatial|TopologyScaling|Serve|GroupPipeline|Streaming|BorderRepairBox|SctP|DecisionCoordinates|CandidateRanks'
HFC_DIST_N=400 HFC_DIST_REQUESTS=200 HFC_BENCH_JSON=0 \
  ./build-asan/bench/bench_distance_scaling
HFC_CHURN_N=500 HFC_CHURN_EVENTS=96 HFC_REQUESTS=40 HFC_WAVES=2 \
  HFC_BENCH_JSON=0 ./build-asan/bench/bench_churn_dynamic
HFC_TOPO_N=1500 HFC_TOPO_MST_N=600 HFC_TOPO_CMP_N=400 HFC_TOPO_REQUESTS=40 \
  HFC_BENCH_JSON=0 ./build-asan/bench/bench_topology_scaling
HFC_SERVE_N=500 HFC_SERVE_WAVES=8 HFC_SERVE_WAVE_REQUESTS=48 \
  HFC_BENCH_JSON=0 ./build-asan/bench/bench_serving_throughput
# Streaming under ASan: session construction, churn-driven join/leave
# withdrawal and the regraft machinery at reduced receiver count. The
# ctest pass above already ran the dense session-state suites
# (StreamingSlotReuse's slot reuse and on-demand table growth,
# StreamingDigestText, FaultCrashTable) through its Streaming and Fault
# patterns.
HFC_STREAM_N=300 HFC_BENCH_JSON=0 ./build-asan/bench/bench_chaos_streaming

echo "== [5/5] coverage gate =="
cmake -B build-cov -S . -DHFC_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build build-cov -j"$JOBS"
# libgcov merges into existing counts, so counts left by an earlier run
# (or by the build's own test discovery) would credit lines that this
# run never executed.
find build-cov -name '*.gcda' -delete
ctest --test-dir build-cov -j"$JOBS" --output-on-failure
python3 scripts/coverage_gate.py build-cov

echo "== all checks passed =="
