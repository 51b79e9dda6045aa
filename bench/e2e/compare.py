#!/usr/bin/env python3
"""Compare parent and change runs recorded by bench/e2e/run.sh.

    python3 bench/e2e/compare.py ENTRY.json             # run.sh --parent
    python3 bench/e2e/compare.py PARENT.json CHANGE.json

With one entry, the parent is its `parent_runs` and the change its `runs`:
run.sh --parent ran them alternately in one session, so host drift falls
on both sides alike. With two entries, each entry's `runs` are compared;
they come from separate sessions, so no gain can be claimed from them.
Runs are paired by position and both sides must list the same seeds.

One row per (workload, end-to-end metric), with BENCHMARK.json's bounds:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range (choosing-metrics section 8),
              over at least 10 pairs alternated in one session;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  worse       inside the bound, but the change loses by the rule of
              `improved`: a real loss, which the bound tolerates;
  improved?   the rule holds, but the pairs are fewer than 10 or come from
  worse?      separate sessions, so the gain (or loss) cannot be claimed;
  unchanged   none of the above;
  unresolved  the run-to-run spread (interquartile range over median) of
              either side exceeds the bound, so a change that size could
              hide in it; a change whose every run beats every parent run
              is still reported as improved.

Exits 1 when any row is regressed or a change run failed, 2 on bad input.
"""
import json
import sys
from pathlib import Path

MIN_PAIRS = 10


def spread(m):
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(metric, parent, change, claimable):
    sign = 1.0 if metric["better"] == "higher" else -1.0

    def gain(a, b):  # > 0 when b is better than a
        return sign * (b - a)

    pairs = list(zip(parent["values"], change["values"]))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    losses = sum(1 for a, b in pairs if gain(a, b) < 0)
    diff = gain(parent["median"], change["median"])
    iqr = parent["q3"] - parent["q1"]
    all_better = all(gain(a, b) > 0 for a in parent["values"]
                     for b in change["values"])
    if wins >= 0.9 * len(pairs) and diff > iqr:
        status = "improved" if claimable else "improved?"
    elif -diff > metric["bound"] * abs(parent["median"]):
        status = "regressed"
    elif losses >= 0.9 * len(pairs) and -diff > iqr:
        status = "worse" if claimable else "worse?"
    else:
        status = "unchanged"
    noisy = max(spread(parent), spread(change)) > metric["bound"]
    if noisy and not (status == "improved" and all_better):
        status = "unresolved"
    return status, wins / len(pairs)


def load(path):
    return json.loads(Path(path).read_text())


def main():
    if len(sys.argv) == 2:
        entry = load(sys.argv[1])
        if "parent_runs" not in entry:
            print(f"{sys.argv[1]} holds no parent_runs; record it with "
                  f"run.sh --parent, or pass two entries", file=sys.stderr)
            return 2
        parent, change, paired = entry["parent_runs"], entry["runs"], True
    elif len(sys.argv) == 3:
        parent, change = load(sys.argv[1])["runs"], load(sys.argv[2])["runs"]
        paired = False
    else:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load(Path(__file__).resolve().parents[2] / "BENCHMARK.json")

    workloads = sorted(set(parent) & set(change))
    for workload in workloads:
        if parent[workload]["seeds"] != change[workload]["seeds"]:
            print(f"{workload}: parent and change ran different seeds "
                  f"({parent[workload]['seeds']} vs "
                  f"{change[workload]['seeds']})", file=sys.stderr)
            return 2
    print(f"{'workload':<13} {'metric':<15} {'parent median':>14} "
          f"{'change median':>14} {'delta':>8} {'spread':>7} "
          f"{'bound':>6} {'wins':>5}  verdict")
    regressed = False
    for workload in workloads:
        pairs = len(change[workload]["seeds"])
        claimable = paired and pairs >= MIN_PAIRS
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = parent[workload]["metrics"][name]
            b = change[workload]["metrics"][name]
            status, wins = verdict(metric, a, b, claimable)
            regressed |= status == "regressed"
            delta = (b["median"] - a["median"]) / a["median"] \
                if a["median"] else 0.0
            print(f"{workload:<13} {name:<15} {a['median']:>14.6g} "
                  f"{b['median']:>14.6g} {delta:>+8.2%} "
                  f"{max(spread(a), spread(b)):>7.2%} "
                  f"{metric['bound']:>6.1%} {wins:>5.0%}  {status}")
        if not change[workload]["correct"] or any(change[workload]["failed"]):
            print(f"{workload:<13} outputs: change has failed or incorrect "
                  f"runs")
            regressed = True
    if not paired:
        print("pairs come from two sessions: a gain needs run.sh --parent")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
