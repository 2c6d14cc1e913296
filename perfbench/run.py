#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload mix_gnm --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
lcsperf load generator (Release) from perfbench/ and the library sources in src/
into .bench_build/perfbench; later calls only re-check the build.  Build
output goes to stderr; lcsperf's standard output is passed through, so
the last line is the JSON result record.  The record's metric names and
units are checked against BENCHMARK.json; a mismatch fails the run.  A traced run (--trace 1) also
writes its spans to .bench_build/perfbench/spans/<workload>_seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("mix_gnm", "route_rpc")
RUN_TIMEOUT_S = 170


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "lcsperf", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "lcsperf"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work.relative_to(ROOT))]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}_seed{args.seed}.jsonl")]
    try:
        # Relative work dir keeps unix socket paths short.
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    problem = check_metrics(proc.stdout, args.trace)
    if problem:
        print(f"run.py: {args.workload}: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


def check_metrics(stdout: str, trace: int) -> str:
    """BENCHMARK.json is the one list of metric names and units: the result
    line must carry exactly its end_to_end (or, traced, per_layer) metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    if not lines:
        return "no result line"
    got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}"
    return ""


if __name__ == "__main__":
    sys.exit(main())
