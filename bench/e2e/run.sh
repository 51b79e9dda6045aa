#!/usr/bin/env bash
# Regenerate a perf-ledger entry for the end-to-end benchmark.
#
#   bench/e2e/run.sh [-k RUNS] [--seed S] [--parent DIR | --curve]
#
# Runs the five workloads RUNS times (default 10); run i uses seed S+i and
# visits the workloads forward on even runs and backward on odd ones, so
# slow drift on the machine does not land on one workload. Each run lasts
# BENCHMARK.json's run_seconds. With --parent DIR, a source checkout of the
# parent commit, every run is paired with the same run of the parent, the
# parent going first on even runs and second on odd ones: the pairs a gain
# claim needs (compare.py ENTRY). With --curve it instead runs ml_build,
# serve_churn and stream_chaos RUNS times at each of 1, 2 and 3 threads
# (the thread curve, not gated). The result is merged into
# bench/e2e/ledger/<date>-<rev>.json: per (workload, metric) the median,
# quartiles and every run's value, plus threads, nproc, seeds and git
# revision.
set -euo pipefail
cd "$(dirname "$0")/../.."

runs=10
seed=1
seconds=$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
curve=0
parent=
while [ $# -gt 0 ]; do
  case "$1" in
    -k) runs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --curve) curve=1; shift ;;
    --parent) parent=$(cd "$2" && pwd); shift 2 ;;
    *) echo "usage: $0 [-k RUNS] [--seed S] [--parent DIR | --curve]" >&2
       exit 2 ;;
  esac
done
if [ "$curve" = 1 ] && [ -n "$parent" ]; then
  echo "run.sh: --curve and --parent do not combine" >&2
  exit 2
fi

revision() {  # checkout directory
  local rev
  rev=$(git -C "$1" rev-parse --short HEAD 2>/dev/null || echo norev)
  if [ -n "$(git -C "$1" status --porcelain --untracked-files=no \
               2>/dev/null)" ]; then
    rev="$rev-dirty"
  fi
  echo "$rev"
}
rev=$(revision .)
parent_rev=
[ -n "$parent" ] && parent_rev=$(revision "$parent")
out=bench/e2e/ledger/$(date -u +%Y-%m-%d)-$rev.json
build=$(realpath -m "${CARGO_TARGET_DIR:-.bench_build}")
mkdir -p "$build" "$(dirname "$out")"
raw="$build/ledger_runs.jsonl"
parent_raw="$build/ledger_parent_runs.jsonl"
: > "$raw"
: > "$parent_raw"

# One benchmark run of the checkout in $2, built in $3; appends the
# driver's full result (every metric, not only the gated ones) to the log
# $1. Extra arguments go to bench.py.
run_one() {  # log checkout build workload seed [--threads K]
  local log=$1 checkout=$2 dir=$3
  shift 3
  (cd "$checkout" && CARGO_TARGET_DIR="$dir" python3 bench/e2e/bench.py \
     --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 "${@:3}" \
     > /dev/null)
  { tr -d '\n' < "$dir/BENCH_e2e_$1.json"; echo; } >> "$log"
  echo "run.sh: $checkout $1 seed=$2 ${*:3} done" >&2
}

if [ "$curve" = 1 ]; then
  section=curve
  for ((i = 0; i < runs; i++)); do
    for threads in 1 2 3; do
      for w in ml_build serve_churn stream_chaos; do
        run_one "$raw" . "$build" "$w" $((seed + i)) --threads "$threads"
      done
    done
  done
else
  section=runs
  workloads=(paper_flat ml_build serve_hot serve_churn stream_chaos)
  for ((i = 0; i < runs; i++)); do
    order=("${workloads[@]}")
    if ((i % 2 == 1)); then
      order=(stream_chaos serve_churn serve_hot ml_build paper_flat)
    fi
    for w in "${order[@]}"; do
      if [ -n "$parent" ] && ((i % 2 == 0)); then
        run_one "$parent_raw" "$parent" "$build/parent" "$w" $((seed + i))
      fi
      run_one "$raw" . "$build" "$w" $((seed + i))
      if [ -n "$parent" ] && ((i % 2 == 1)); then
        run_one "$parent_raw" "$parent" "$build/parent" "$w" $((seed + i))
      fi
    done
  done
fi

python3 - "$raw" "$parent_raw" "$out" "$section" "$rev" "$parent_rev" \
  "$seconds" <<'EOF'
import json
import os
import statistics
import sys
from datetime import datetime, timezone

raw, parent_raw, out, section, rev, parent_rev, seconds = sys.argv[1:]
entry = json.load(open(out)) if os.path.exists(out) else {}
entry.update({"rev": rev, "nproc": os.cpu_count(),
              "date": datetime.now(timezone.utc).isoformat(timespec="seconds")})

def summary(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "values": values}

def table(path):
    groups = {}
    for line in open(path):
        r = json.loads(line)
        groups.setdefault((r["workload"], r["threads"]), []).append(r)
    rows = {}
    for (workload, threads), rs in sorted(groups.items()):
        row = {"threads": threads, "seconds": float(seconds),
               "seeds": [r["seed"] for r in rs],
               "correct": all(r["correct"] for r in rs),
               "attempted": [r["attempted"] for r in rs],
               "failed": [r["failed"] for r in rs], "metrics": {}}
        for name, m in rs[0]["metrics"].items():
            row["metrics"][name] = dict(
                summary([r["metrics"][name]["value"] for r in rs]),
                unit=m["unit"])
        label = workload if section == "runs" else f"{workload}@{threads}"
        rows[label] = row
    return rows

entry[section] = table(raw)
if parent_rev:
    entry["parent_rev"] = parent_rev
    entry["parent_runs"] = table(parent_raw)
elif section == "runs":  # parent runs paired with older runs would mislead
    entry.pop("parent_rev", None)
    entry.pop("parent_runs", None)

def render(obj, depth=0):
    """JSON with one line per object that holds no objects (per metric)."""
    if not (isinstance(obj, dict) and
            any(isinstance(v, dict) for v in obj.values())):
        return json.dumps(obj, sort_keys=True)
    pad = " " * (depth + 1)
    items = [f"{pad}{json.dumps(k)}: {render(v, depth + 1)}"
             for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"

with open(out, "w") as f:
    f.write(render(entry) + "\n")
print(f"run.sh: wrote {section} to {out}", file=sys.stderr)
EOF
