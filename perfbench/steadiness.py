#!/usr/bin/env python3
"""Steadiness evidence for the perfbench bounds.

Repeats workloads through perfbench/run.py and reports, per end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median next
to the metric's bound in BENCHMARK.json.  Run from the repository root.

    # ten runs per workload, each on another seed (what acceptance uses)
    python3 perfbench/steadiness.py --distinct 10
    # repeats of one seed, on the default seed and on a second seed
    python3 perfbench/steadiness.py --seeds 1,2 --repeats 5 --workloads mix_gnm
    # two traced runs on one seed: work counts must repeat exactly
    python3 perfbench/steadiness.py --trace-check --seeds 1

Spreads above a third of the bound are marked "wide", above the bound
"FAIL".  --out writes every run's record as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer counts that must repeat exactly for a fixed seed.  The last three
# depend on how arrivals coalesce into drain waves, i.e. on timing; they are
# reported, not required to repeat.
EXACT_COUNTS = [
    "sssp.ch_shortcuts", "sssp.settled_nodes_p50", "snapshot_format.file_mb",
    "artifact.partition_misses", "artifact.sparsified_misses",
    "artifact.partition_hit_ratio", "kp.shortcut_edges", "mst.rounds", "mst.messages",
    "wire.batch_bytes", "router.attempts_per_query",
]
TIMING_DEPENDENT_COUNTS = ["admission.journal_events", "admission.waves",
                           "admission.throttled_share"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if not record["correct"] or record["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    brief = " ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items())
    print(f"# {workload} seed {seed} trace {trace}: {brief}", flush=True)
    return record


def summarize(label, records, bench):
    print(f"\n== {label}: {len(records)} runs")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in records]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "FAIL" if spread > m["bound"] else ("wide" if spread > m["bound"] / 3 else "")
        print(f"{m['name']:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} "
              f"{m['bound']:6.2f} {flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--distinct", type=int, default=0,
                    help="runs per workload, seeds 1..N (one seed each)")
    ap.add_argument("--seeds", default="1,2", help="seeds for --repeats / --trace-check")
    ap.add_argument("--repeats", type=int, default=0, help="runs per seed")
    ap.add_argument("--trace-check", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    log = []
    for w in workloads:
        if args.distinct:
            recs = [run(w, 1 + i, seconds, 0) for i in range(args.distinct)]
            log += [{"workload": w, "seed": 1 + i, "record": r} for i, r in enumerate(recs)]
            summarize(f"{w}, seeds 1..{args.distinct}", recs, bench)
        for s in seeds if args.repeats else []:
            recs = [run(w, s, seconds, 0) for _ in range(args.repeats)]
            log += [{"workload": w, "seed": s, "record": r} for r in recs]
            summarize(f"{w}, seed {s} repeated", recs, bench)
        for s in seeds if args.trace_check else []:
            a, b = run(w, s, seconds, 1), run(w, s, seconds, 1)
            log += [{"workload": w, "seed": s, "trace": 1, "record": r} for r in (a, b)]
            print(f"\n== {w}, seed {s}: two traced runs")
            for name in EXACT_COUNTS + TIMING_DEPENDENT_COUNTS:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if va == 0 and vb == 0:
                    continue
                same = va == vb
                note = "" if same else (
                    "timing-dependent" if name in TIMING_DEPENDENT_COUNTS else "MISMATCH")
                print(f"{name:30} {va:14.6g} {vb:14.6g} {note}")
            for name in ("trace.overhead_qps", "trace.overhead_latency_p50_ms"):
                print(f"{name:30} {a['metrics'][name]['value']:14.6g} "
                      f"{b['metrics'][name]['value']:14.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(log, indent=1))


if __name__ == "__main__":
    main()
