#!/usr/bin/env python3
"""Smoke checks for the hfc_e2e driver, run by ctest as e2e_smoke.

    python3 bench/e2e/smoke.py BUILD_DIR/hfc_e2e

Every workload runs at --smoke sizes and must:
  - pass all its output checks (exit 0, correct, nothing failed);
  - repeat its output digest and every counter delta exactly, across two
    runs and across --threads 1 vs --threads 3;
  - give a different digest, and still pass, under another seed.
paper_flat's smoke run also checks, inside the driver, that the composed
build equals HfcFramework::build at Table 1 environment 1 (partition,
client pool and 200 routes). One traced run must write a Chrome trace in
which every span chains to the workload's root span. A one-second
serve_hot run at full size (5000 proxies, against 1600 in its smoke run)
must report over 1.5 times the smoke run's set-up memory (2.31 against
0.75 MiB); the process's peak resident set, read at the same point, gave
14.3 MiB at both. A run
over its 5 s budget is reported, not failed: a shared host can slow any
run.
"""
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("paper_flat", "ml_build", "serve_hot", "serve_churn",
             "stream_chaos")
# Counters that legitimately differ between identical runs: phase timers
# (microseconds of wall time) and chunks handed to pool workers, which a
# one-thread pool never uses.
VOLATILE = ("construct.", "pool.chunks")


def run(driver, workdir, workload, seed, threads, trace=None, size=None):
    """One driver run; size=None is a --smoke run, else --seconds size."""
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--threads",
           str(threads)]
    cmd += ["--smoke"] if size is None else ["--seconds", str(size)]
    if trace:
        cmd += ["--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    took = time.monotonic() - start
    result_name = f"BENCH_e2e_{workload}{'.traced' if trace else ''}.json"
    result = json.loads((workdir / result_name).read_text())
    problems = []
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append(f"checks failed (exit {proc.returncode}): "
                        f"{proc.stderr.strip()}")
    if size is None and took > 5.0:
        print(f"warning: {workload} took {took:.1f} s, over the 5 s smoke "
              f"budget")
    counters = {k: v for k, v in result["counters"].items()
                if not k.startswith(VOLATILE)}
    return result["digest"], counters, problems, result["metrics"]


def check_trace(path):
    events = json.loads(Path(path).read_text())["traceEvents"]
    parent = {e["args"]["span"]: e["args"]["parent"] for e in events}
    roots = {s for s, p in parent.items() if p is None}
    if len(roots) != 1 or events[next(iter(roots))]["name"] != "e2e.run":
        return ["trace: expected exactly one e2e.run root span"]
    for span in parent:
        seen = 0
        while parent[span] is not None and seen <= len(parent):
            span = parent[span]
            seen += 1
        if span not in roots:
            return ["trace: a span does not chain to the root"]
    return []


def main():
    driver = str(Path(sys.argv[1]).resolve())
    problems = []
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        workdir = Path(tmp)
        for w in WORKLOADS:
            base = run(driver, workdir, w, 1, 3)
            again = run(driver, workdir, w, 1, 3)
            serial = run(driver, workdir, w, 1, 1)
            other = run(driver, workdir, w, 2, 3)
            found = base[2] + again[2] + serial[2] + other[2]
            for label, r in (("repeat", again), ("--threads 1", serial)):
                if r[0] != base[0]:
                    found.append(f"digest differs on {label}")
                diff = sorted(k for k in set(base[1]) | set(r[1])
                              if base[1].get(k) != r[1].get(k))
                if diff:
                    found.append(f"counters differ on {label}: {diff}")
            if other[0] == base[0]:
                found.append("seeds 1 and 2 give the same digest")
            problems += [f"{w}: {p}" for p in found]
            print(f"{w}: {'ok' if not found else 'FAILED'}")
            if w == "serve_hot":
                small = base[3]["setup_rss_mib"]["value"]
        full = run(driver, workdir, "serve_hot", 1, 1, size=1)
        problems += full[2]
        large = full[3]["setup_rss_mib"]["value"]
        if not 0 < 1.5 * small < large:
            problems.append(f"setup_rss_mib does not grow with the system: "
                            f"{small} MiB at 1600 proxies, {large} MiB at "
                            f"5000")
        trace = workdir / "trace.json"
        problems += run(driver, workdir, "stream_chaos", 1, 3, trace)[2]
        problems += check_trace(trace)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
