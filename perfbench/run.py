#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload <read_uniform|read_zipf|hybrid_stream>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout of the repository. The build tree and
every output (reports, span dumps, the WAL directory, the exact-count ledger)
live under .bench_build/ at the repository root.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced pass with --trace 1.

Exact-count check: each run's exact counts (pair-cache hits and misses, the
IncSPC/DecSPC work totals, WAL bytes, label entries) are kept in a ledger
keyed by workload, seed, seconds and a hash of the built program (the
library is linked into it). A later run of the same program with the same
arguments that reports a different count is flagged and fails; a rebuilt,
changed program starts a fresh entry, so a change that legitimately moves
a count is never compared against another program's record.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("read_uniform", "read_zipf", "hybrid_stream")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
LEDGER = OUT / "exact_counts.json"
# Compiler and program temporaries stay inside the checkout too.
TMP = ROOT / ".bench_build" / "tmp"
ENV = dict(os.environ, TMPDIR=str(TMP))
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            sys.exit("perfbench: build failed")


def program_hash():
    return hashlib.sha256((BUILD / "perfbench").read_bytes()).hexdigest()[:16]


def check_exact_counts(key, counts):
    """Returns the names of counts that drifted from the ledger's record."""
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    before = ledger.get(key)
    if before is None:
        ledger[key] = counts
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(LEDGER)
        return []
    return sorted(k for k in set(before) | set(counts)
                  if before.get(k) != counts.get(k))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        sys.exit("perfbench: --seed must be >= 0 and --seconds in [1, 60]")

    TMP.mkdir(parents=True, exist_ok=True)
    build()
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"perfbench: program exited {proc.returncode} "
                 "without a result")

    report = json.loads(
        (OUT / f"{args.workload}-seed{args.seed}.json").read_text())
    key = (f"{args.workload}/seed{args.seed}/seconds{args.seconds}/"
           f"program-{program_hash()}")
    drifted = check_exact_counts(key, report["exact_counts"])
    for name in drifted:
        print(f"exact count drifted: {key} {name}", file=sys.stderr)
    if drifted:
        result["correct"] = False
        result["failed"] += len(drifted)
    print(json.dumps(result))
    sys.exit(proc.returncode or (1 if drifted else 0))


if __name__ == "__main__":
    main()
