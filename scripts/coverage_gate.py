#!/usr/bin/env python3
"""Enforce the line-coverage floor for the monitored subsystems.

Walks a -DHFC_COVERAGE=ON build tree after the test suite has run, feeds
every .gcda through `gcov --json-format --stdout`, unions executed lines
across translation units (headers are compiled into many objects), and
fails when line coverage for any monitored directory drops below the
floor. Only gcov + the stdlib are required; no gcovr.

Usage: scripts/coverage_gate.py BUILD_DIR [--floor PCT]
"""

import argparse
import json
import os
import subprocess
import sys

MONITORED = ("src/cluster/boruvka", "src/cluster/group_pipeline",
             "src/cluster/mst",
             "src/cluster/zahn", "src/fault", "src/multilevel", "src/routing",
             "src/serve", "src/sim", "src/spatial", "src/streaming")
DEFAULT_FLOOR = 90.0


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcov_json_docs(gcda, cwd):
    """Run gcov on one .gcda and yield each JSON document it prints."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
        text=True,
    )
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            continue


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("build_dir", help="HFC_COVERAGE=ON build tree")
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                        help="minimum line coverage percent per directory")
    args = parser.parse_args()

    root = repo_root()
    build = os.path.abspath(args.build_dir)
    if not os.path.isdir(build):
        sys.exit(f"coverage_gate: no such build dir: {build}")

    gcdas = []
    for dirpath, _, names in os.walk(build):
        gcdas.extend(os.path.join(dirpath, n)
                     for n in names if n.endswith(".gcda"))
    if not gcdas:
        sys.exit("coverage_gate: no .gcda files found — run ctest in a "
                 "-DHFC_COVERAGE=ON build first")

    # (relative source path, line) -> executed at least once in any TU.
    lines = {}
    for gcda in sorted(gcdas):
        for doc in gcov_json_docs(gcda, os.path.dirname(gcda)):
            for entry in doc.get("files", []):
                path = entry.get("file", "")
                if not os.path.isabs(path):
                    path = os.path.join(root, path)
                rel = os.path.relpath(os.path.realpath(path), root)
                if not rel.startswith(MONITORED):
                    continue
                for ln in entry.get("lines", []):
                    key = (rel, ln["line_number"])
                    lines[key] = lines.get(key, False) or ln["count"] > 0

    failed = False
    for directory in MONITORED:
        total = sum(1 for (rel, _) in lines if rel.startswith(directory))
        hit = sum(1 for (rel, _), ok in lines.items()
                  if ok and rel.startswith(directory))
        if total == 0:
            print(f"coverage_gate: {directory}: no instrumented lines found")
            failed = True
            continue
        pct = 100.0 * hit / total
        verdict = "ok" if pct >= args.floor else "BELOW FLOOR"
        print(f"coverage_gate: {directory}: {hit}/{total} lines "
              f"({pct:.1f}%, floor {args.floor:.1f}%) {verdict}")
        if pct < args.floor:
            failed = True

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
