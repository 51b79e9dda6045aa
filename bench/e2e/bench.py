#!/usr/bin/env python3
"""Run one end-to-end benchmark workload and print its result as JSON.

Run from the repository root:

    python3 bench/e2e/bench.py --workload serve_hot --seed 1 --seconds 15 \\
        --trace 0 [--threads K]

The script builds the hfc_e2e driver from this checkout with CMake (into
$CARGO_TARGET_DIR when set, else .bench_build), runs the workload in a
fresh process, echoes the driver's `W <name> <value> <unit>` lines and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
the driver also records spans (written as a Chrome trace next to the
build) and the metrics are the per_layer list, preceded by the tracing
overhead against the last untraced run of the same workload.

Exit status: 0 with a result (the result says whether outputs were
correct), 2 without one when the checkout, build or driver is unusable.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_flat", "ml_build", "serve_hot", "serve_churn",
             "stream_chaos")
DRIVER_TIMEOUT_S = 170


def fail(why):
    print(f"bench.py: {why}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        step = ["cmake", "-S", str(root / "bench" / "e2e"), "-B",
                str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("configuring the driver failed")
    step = ["cmake", "--build", str(build_dir), "--target", "hfc_e2e",
            "-j", "3"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("building the driver failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int,
                        help="pool size (default: the workload's pinned one)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under ./src; run from the repository root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build(root, build_dir)

    suffix = ".traced" if args.trace else ""
    result_file = build_dir / f"BENCH_e2e_{args.workload}{suffix}.json"
    result_file.unlink(missing_ok=True)
    untraced_file = build_dir / f"BENCH_e2e_{args.workload}.json"
    untraced = None
    if args.trace and untraced_file.is_file():
        untraced = json.loads(untraced_file.read_text())

    cmd = [str(build_dir / "hfc_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        cmd += ["--trace", str(build_dir / f"trace_{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    # 0: outputs checked and correct; 1: a check failed (still a result).
    if proc.returncode not in (0, 1) or not result_file.is_file():
        fail(f"driver exited with status {proc.returncode}")
    result = json.loads(result_file.read_text())

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"driver reported no metric {m['name']} [{m['unit']}]")
        metrics[m["name"]] = got

    if untraced is not None:
        for m in spec["end_to_end"]:
            base = untraced["metrics"][m["name"]]["value"]
            traced = result["metrics"][m["name"]]["value"]
            share = (traced - base) / base if base else 0.0
            print(f"# tracing overhead {m['name']}: {traced - base:+.6g} "
                  f"{m['unit']} ({share:+.2%}; untraced seed "
                  f"{untraced['seed']}, traced seed {result['seed']})")

    print(json.dumps({"correct": bool(result["correct"]) and
                      proc.returncode == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
