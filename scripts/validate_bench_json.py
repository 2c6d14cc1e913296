#!/usr/bin/env python3
"""Schema validation for lcsbench JSON records (CI bench-smoke gate).

Accepts either a single record object (one scenario) or an array of records
(--all / multiple scenarios).  Usage:

    validate_bench_json.py out.json [--min-scenarios N] [--require-ok]
                           [--speedup-floor X [--speedup-floor-min-threads T]]
    validate_bench_json.py --self-test

The schema and the gating rules are documented in docs/bench.md.
"""

import argparse
import copy
import json
import sys

RECORD_KEYS = {
    "schema_version",
    "scenario",
    "description",
    "grid",
    "ok",
    "config",
    "params",
    "repetitions",
    "metrics",
    "machine",
}
MACHINE_KEYS = {
    "hostname",
    "os",
    "kernel",
    "arch",
    "cpu_model",
    "hardware_threads",
    "compiler",
    "build_type",
    "timestamp_utc",
}


def validate_machine(name: str, machine) -> list[str]:
    """A record without a complete machine stamp is not reproducible: every
    key must be present and non-empty, and hardware_threads must be a
    positive integer."""
    problems = []
    if not isinstance(machine, dict):
        return [f"{name}: machine stamp is not an object: {machine!r}"]
    missing = MACHINE_KEYS - machine.keys()
    if missing:
        problems.append(f"{name}: machine info missing {sorted(missing)}")
    for key in MACHINE_KEYS & machine.keys():
        value = machine[key]
        if key == "hardware_threads":
            if not isinstance(value, int) or value < 1:
                problems.append(f"{name}: machine.hardware_threads bad: {value!r}")
        elif not isinstance(value, str) or not value.strip():
            problems.append(f"{name}: machine.{key} is empty")
    return problems


# Thread-scaling scenarios and the legs whose speedup curves they must record.
SCALING_LEGS = {
    "s3_": ["batch"],
}

# Wall-time metrics every s2_ (referee wall time) record must carry, one per
# referee; with --reps N their {min, median} land in metric_stats.
S2_REFEREES = ["stoer_wagner", "karger", "boruvka", "diameter"]


def validate_referees(record: dict) -> list[str]:
    """s2_ records time each sequential referee once per repetition: every
    wall_ms_<referee> must be a non-negative number."""
    name = record["scenario"]
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        return [f"{name}: metrics must be an object"]
    problems = []
    for referee in S2_REFEREES:
        key = f"wall_ms_{referee}"
        value = metrics.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{name}: missing or bad metric {key}: {value!r}")
    return problems

# Extra boolean metrics a scaling scenario must record as true (beyond the
# deterministic_across_threads check every scaling record gets).
SCALING_EXTRA_CHECKS = {
    "s3_": [
        "deterministic_across_orders",
        "deterministic_vs_sequential",
        "all_queries_ok",
    ],
}

# Effective sampling probabilities every s3_ record states for its graph:
# numbers in (0, 1], where 1 means the construction ran clamped (see
# docs/bench.md).
S3_SAMPLE_PROB_PARAMS = ["kp_sample_prob", "mincut_sample_prob"]


def validate_query_throughput(record: dict) -> list[str]:
    name = record["scenario"]
    problems = []
    for key in S3_SAMPLE_PROB_PARAMS:
        value = record["params"].get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
            problems.append(f"{name}: params.{key} must be a probability in (0, 1]: {value!r}")
    return problems


# Timing metrics every s5_ (snapshot ingest/serve) record must carry, plus
# boolean gates that must be true.  Schema documented in docs/bench.md.
S5_TIMING_METRICS = [
    "build_ms",
    "save_ms",
    "load_ms",
    "snapshot_bytes",
    "cold_first_query_ms",
    "warm_first_query_ms",
]
S5_TRUE_CHECKS = [
    "all_queries_ok",
    "deterministic_loaded_vs_built",
    "mmap_load_faster",
]

# Per-fleet-size metric prefixes every s6_ (sharded throughput) record must
# carry for each shard count, the local-baseline leg, and boolean gates
# that must be true.  Schema documented in docs/bench.md.
S6_LOCAL_METRICS = [
    "qps_local",
    "latency_p50_ms_local",
    "latency_p99_ms_local",
]
S6_LEG_PREFIXES = [
    "qps",
    "latency_p50_ms",
    "latency_p99_ms",
    "speedup_vs_local",
]
S6_TRUE_CHECKS = [
    "all_queries_ok",
    "deterministic_sharded_vs_local",
]

# Availability ratios, failover timings and boolean gates every s7_ (fault
# tolerance) record must carry.  Schema documented in docs/bench.md.
S7_RATIO_METRICS = [
    "availability_kill",
    "availability_drop",
    "availability_garble",
    "availability_deadline",
    "availability_r1_kill",
]
S7_TIMING_METRICS = [
    "healthy_p99_ms",
    "failover_p99_ms",
]
S7_TRUE_CHECKS = [
    "all_queries_ok",
    "zero_failures_with_replication",
    "deterministic_failover_vs_healthy",
    "deterministic_fault_replay",
]


def validate_snapshot_io(record: dict, args) -> list[str]:
    """s5_ records measure the snapshot store's build/save/mmap-load cycle:
    every phase timing and the file size must be present and non-negative,
    and the inline gates — every query ok, bit-identical digests from the
    loaded snapshot at each thread count, and mmap load beating in-process
    build — must have passed."""
    del args
    name = record["scenario"]
    problems = []
    if not isinstance(record["params"], dict) or not isinstance(record["metrics"], dict):
        return [f"{name}: params/metrics must be objects"]
    metrics = record["metrics"]
    for key in S5_TIMING_METRICS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{name}: missing or bad metric {key}: {value!r}")
    if not metrics.get("snapshot_bytes"):
        problems.append(f"{name}: snapshot_bytes is zero")
    for key in S5_TRUE_CHECKS:
        if metrics.get(key) is not True:
            problems.append(f"{name}: {key} is not true")
    return problems


def validate_sharded(record: dict, args) -> list[str]:
    """s6_ records sweep fleet size over a real RPC stack: per shard count
    there must be a complete qps/latency/speedup leg, the local baseline
    leg must be present, and the inline gates — every query ok and
    bit-identical digests for every placement at every thread count — must
    have passed."""
    del args
    name = record["scenario"]
    problems = []
    if not isinstance(record["params"], dict) or not isinstance(record["metrics"], dict):
        return [f"{name}: params/metrics must be objects"]
    shard_counts = record["params"].get("shard_counts")
    if (
        not isinstance(shard_counts, list)
        or not shard_counts
        or not all(isinstance(k, int) and k >= 1 for k in shard_counts)
    ):
        problems.append(
            f"{name}: params.shard_counts must be a non-empty list of fleet sizes"
        )
        shard_counts = []
    metrics = record["metrics"]
    for key in S6_LOCAL_METRICS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{name}: missing or bad baseline metric {key}: {value!r}")
    for count in shard_counts:
        for prefix in S6_LEG_PREFIXES:
            key = f"{prefix}_shards{count}"
            value = metrics.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{name}: missing or bad leg metric {key}: {value!r}")
    for key in S6_TRUE_CHECKS:
        if metrics.get(key) is not True:
            problems.append(f"{name}: {key} is not true")
    return problems


def validate_fault_tolerance(record: dict, args) -> list[str]:
    """s7_ records inject scripted faults into a replicated fleet: every
    availability metric must be a valid ratio (and exactly 1.0 for the
    replicated legs — replication must fully mask a single fault), the
    healthy/failover latency legs must be present, and the inline gates —
    failover digests identical to the healthy fleet at every thread count
    and seeded chaos plans replaying byte-identically — must have passed."""
    del args
    name = record["scenario"]
    problems = []
    if not isinstance(record["params"], dict) or not isinstance(record["metrics"], dict):
        return [f"{name}: params/metrics must be objects"]
    metrics = record["metrics"]
    for key in S7_RATIO_METRICS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or not 0 <= value <= 1:
            problems.append(f"{name}: missing or bad availability ratio {key}: {value!r}")
        elif key != "availability_r1_kill" and value != 1:
            problems.append(f"{name}: {key} is {value!r}, replication must mask the fault")
    for key in S7_TIMING_METRICS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{name}: missing or bad timing metric {key}: {value!r}")
    for key in S7_TRUE_CHECKS:
        if metrics.get(key) is not True:
            problems.append(f"{name}: {key} is not true")
    return problems


def validate_scaling(record: dict, legs: list[str], args) -> list[str]:
    """Thread-scaling records must carry the thread sweep and a speedup curve
    per leg (and the inline determinism cross-check must not have failed).
    When --speedup-floor is set and the recording machine has at least
    --speedup-floor-min-threads hardware threads, the best leg's speedup at
    8 threads must clear the floor — a total parallelization regression
    gates, timing noise on a single leg does not."""
    name = record["scenario"]
    problems = []
    if not isinstance(record["params"], dict) or not isinstance(record["metrics"], dict):
        return [f"{name}: params/metrics must be objects"]
    threads = record["params"].get("threads")
    if (
        not isinstance(threads, list)
        or not threads
        or not all(isinstance(t, int) and t >= 1 for t in threads)
    ):
        problems.append(f"{name}: params.threads must be a non-empty list of counts")
    metrics = record["metrics"]
    speedups = {k: v for k, v in metrics.items() if k.startswith("speedup_")}
    if not speedups:
        problems.append(f"{name}: no speedup_* metrics recorded")
    for key, value in speedups.items():
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{name}: bad {key}: {value!r}")
    for leg in legs:
        if not any(k.startswith(f"speedup_{leg}_t") for k in speedups):
            problems.append(f"{name}: missing speedup curve for leg {leg!r}")
    if metrics.get("deterministic_across_threads") is not True:
        problems.append(f"{name}: deterministic_across_threads is not true")
    for prefix, extra_keys in SCALING_EXTRA_CHECKS.items():
        if name.lower().startswith(prefix):
            for key in extra_keys:
                if metrics.get(key) is not True:
                    problems.append(f"{name}: {key} is not true")
    if args.speedup_floor is not None:
        machine = record.get("machine", {})
        host_threads = machine.get("hardware_threads", 0) if isinstance(machine, dict) else 0
        if isinstance(host_threads, int) and host_threads >= args.speedup_floor_min_threads:
            at8 = [
                v
                for k, v in speedups.items()
                if k.endswith("_t8") and isinstance(v, (int, float))
            ]
            if not at8:
                problems.append(f"{name}: no speedup_*_t8 metrics for the floor gate")
            elif max(at8) < args.speedup_floor:
                problems.append(
                    f"{name}: best t8 speedup {max(at8):.2f} below floor "
                    f"{args.speedup_floor} on a {host_threads}-thread host"
                )
    return problems


# Per-load-leg metric prefixes every s8_ (streaming admission) record must
# carry — scenario-wide per offered-load multiple, and per (multiple, tenant)
# for the QoS curves — plus the single-tenant leg, the prewarm contrast
# metrics and boolean gates that must be true.  Schema documented in
# docs/bench.md.
S8_LEG_PREFIXES = [
    "wall_ms",
    "qps",
    "waves",
    "queue_depth_p99",
]
S8_TENANT_PREFIXES = [
    "latency_p50_ms",
    "latency_p99_ms",
    "queue_p99_ms",
    "shed_rate",
]
S8_SOLO_METRICS = [
    "wall_ms_solo",
    "waves_solo",
    "latency_p99_ms_cheap_solo",
    "latency_p99_ms_heavy_solo",
]
S8_PREWARM_METRICS = [
    "prewarm_cold_p99_ms",
    "prewarm_warm_p99_ms",
    "prewarm_speedup",
]
S8_TRUE_CHECKS = [
    "all_served_ok",
    "cheap_never_starved",
    "shed_replay_identical",
    "deterministic_overload_vs_idle",
    "deterministic_across_threads",
    "deterministic_hot_vs_cold",
    "deterministic_cached_vs_uncached",
    "deterministic_prewarm_on_vs_off",
    "prewarm_zero_warm_misses",
]


def validate_streaming(record: dict, args) -> list[str]:
    """s8_ records sweep sustained offered load through the streaming
    admission loop: per load multiple there must be a complete throughput +
    queue-depth leg and, per registered tenant, a latency/shed-rate leg
    (shed rates must be valid ratios); the single-tenant leg and the prewarm
    contrast metrics must be present, with the hot-pass cache hit rate a
    valid ratio; and every inline gate — byte-identical shed replay, overload
    vs idle digests, thread-count independence, hot vs cold and cached vs
    uncached digests, prewarm on-vs-off digests, zero warm-path partition
    misses, and cheap-class no-starvation — must have passed."""
    del args
    name = record["scenario"]
    problems = []
    if not isinstance(record["params"], dict) or not isinstance(record["metrics"], dict):
        return [f"{name}: params/metrics must be objects"]
    multiples = record["params"].get("offered_multiples")
    if (
        not isinstance(multiples, list)
        or not multiples
        or not all(isinstance(m, int) and m >= 1 for m in multiples)
    ):
        problems.append(
            f"{name}: params.offered_multiples must be a non-empty list of multiples"
        )
        multiples = []
    tenants = record["params"].get("tenants")
    if (
        not isinstance(tenants, list)
        or not tenants
        or not all(isinstance(t, str) and t for t in tenants)
    ):
        problems.append(f"{name}: params.tenants must be a non-empty list of names")
        tenants = []
    metrics = record["metrics"]
    for mult in multiples:
        for prefix in S8_LEG_PREFIXES:
            key = f"{prefix}_x{mult}"
            value = metrics.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{name}: missing or bad leg metric {key}: {value!r}")
        for tenant in tenants:
            for prefix in S8_TENANT_PREFIXES:
                key = f"{prefix}_x{mult}_{tenant}"
                value = metrics.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{name}: missing or bad tenant metric {key}: {value!r}"
                    )
                elif prefix == "shed_rate" and value > 1:
                    problems.append(f"{name}: {key} is not a ratio: {value!r}")
    for key in S8_SOLO_METRICS + S8_PREWARM_METRICS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{name}: missing or bad metric {key}: {value!r}")
    hit_rate = metrics.get("cache_hit_rate_hot")
    if not isinstance(hit_rate, (int, float)) or not 0 <= hit_rate <= 1:
        problems.append(f"{name}: cache_hit_rate_hot is not a ratio: {hit_rate!r}")
    for key in S8_TRUE_CHECKS:
        if metrics.get(key) is not True:
            problems.append(f"{name}: {key} is not true")
    return problems


# Per-size metric prefixes every s9_ (point-to-point routing) record must
# carry for each swept road-network size, plus boolean gates that must be
# true.  Schema documented in docs/bench.md.
S9_SIZE_PREFIXES = [
    "ch_build_ms",
    "dijkstra_p50_ms",
    "dijkstra_p99_ms",
    "ch_p50_ms",
    "ch_p99_ms",
    "ch_settled_p50",
    "dijkstra_settled_p50",
]
S9_TRUE_CHECKS = [
    "all_engines_agree",
    "all_queries_ok",
    "ch_p99_beats_dijkstra",
    "deterministic_across_threads",
    "deterministic_loaded_vs_built",
    "deterministic_sharded_vs_local",
    "deterministic_streaming_vs_direct",
]


def validate_point_to_point(record: dict, args) -> list[str]:
    """s9_ records race two exact s-t engines over road networks: per
    swept size there must be a complete build-time + per-engine latency
    and settled-count leg, CH must settle fewer vertices than plain
    Dijkstra at every size (median of each), and every inline gate —
    identical distances from both engines, CH p99 beating plain Dijkstra
    at the largest size, and bit-identical digests across threads,
    loaded-vs-built snapshots, sharded-vs-local placement and
    streaming-vs-direct admission — must have passed."""
    del args
    name = record["scenario"]
    problems = []
    if not isinstance(record["params"], dict) or not isinstance(record["metrics"], dict):
        return [f"{name}: params/metrics must be objects"]
    sizes = record["params"].get("n_sweep")
    if (
        not isinstance(sizes, list)
        or not sizes
        or not all(isinstance(n, int) and n >= 2 for n in sizes)
    ):
        problems.append(f"{name}: params.n_sweep must be a non-empty list of sizes")
        sizes = []
    metrics = record["metrics"]
    for n in sizes:
        for prefix in S9_SIZE_PREFIXES:
            key = f"{prefix}_n{n}"
            value = metrics.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{name}: missing or bad leg metric {key}: {value!r}")
        ch = metrics.get(f"ch_settled_p50_n{n}")
        dijkstra = metrics.get(f"dijkstra_settled_p50_n{n}")
        if (
            isinstance(ch, (int, float))
            and isinstance(dijkstra, (int, float))
            and not ch < dijkstra
        ):
            problems.append(
                f"{name}: ch_settled_p50_n{n} ({ch}) is not below "
                f"dijkstra_settled_p50_n{n} ({dijkstra})"
            )
    for key in S9_TRUE_CHECKS:
        if metrics.get(key) is not True:
            problems.append(f"{name}: {key} is not true")
    return problems


def validate_multibfs_traffic(record: dict) -> list[str]:
    """micro_multibfs runs all-of-G instances only, so every directed edge
    carries exactly one BFS token per instance (messages == instances * 2m),
    and every BFS tree spans all n vertices, so the convergecast and the
    broadcast over those trees each send one message per tree edge:
    up_messages == down_messages == instances * (n - 1)."""
    name = record["scenario"]
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        return [f"{name}: metrics must be an object"]
    keys = ("messages", "instances", "m", "n", "up_messages", "down_messages")
    counts = {key: metrics.get(key) for key in keys}
    bad = [
        f"{name}: missing or bad metric {key}: {value!r}"
        for key, value in counts.items()
        if isinstance(value, bool) or not isinstance(value, int) or value < 0
    ]
    if bad:
        return bad
    problems = []
    want = counts["instances"] * 2 * counts["m"]
    if counts["messages"] != want:
        problems.append(
            f"{name}: messages {counts['messages']} != instances * 2m = "
            f"{counts['instances']} * 2 * {counts['m']} = {want}"
        )
    tree_edges = counts["instances"] * max(counts["n"] - 1, 0)
    for key in ("up_messages", "down_messages"):
        if counts[key] != tree_edges:
            problems.append(
                f"{name}: {key} {counts[key]} != instances * (n - 1) = "
                f"{counts['instances']} * ({counts['n']} - 1) = {tree_edges}"
            )
    return problems


def validate_stats(name: str, record: dict) -> list[str]:
    """The optional min/median summaries across timed repetitions: each is a
    {min, median} pair of numbers with min <= median."""
    problems = []
    for section in ("repetition_stats", "metric_stats"):
        stats = record.get(section, {})
        if not isinstance(stats, dict):
            problems.append(f"{name}: {section} is not an object")
            continue
        for key, pair in stats.items():
            lo = pair.get("min") if isinstance(pair, dict) else None
            mid = pair.get("median") if isinstance(pair, dict) else None
            if not (isinstance(lo, (int, float)) and isinstance(mid, (int, float)) and lo <= mid):
                problems.append(f"{name}: {section}.{key} is not a {{min <= median}} pair: {pair!r}")
    return problems


def validate_all_gates(name: str, record: dict) -> list[str]:
    """Every metric named all_* is a gate (all_weights_ok, all_covered,
    all_ok, all_walks_distinct, all_queries_ok, ...): when a record carries
    one, it must be exactly true."""
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        return [f"{name}: metrics is not an object"]
    return [
        f"{name}: metrics.{key} must be true: {value!r}"
        for key, value in sorted(metrics.items())
        if key.startswith("all_") and value is not True
    ]


def validate_record(record: dict, require_ok: bool, args) -> list[str]:
    problems = []
    name = record.get("scenario", "<missing scenario>")
    missing = RECORD_KEYS - record.keys()
    if missing:
        problems.append(f"{name}: missing keys {sorted(missing)}")
        return problems
    if record["schema_version"] != 1:
        problems.append(f"{name}: unexpected schema_version {record['schema_version']}")
    if require_ok and not record["ok"]:
        problems.append(f"{name}: ok=false ({record.get('error', 'no error text')})")
    if record["ok"] and not record["repetitions"]:
        problems.append(f"{name}: ok but no repetition timings")
    for i, rep in enumerate(record["repetitions"]):
        for key in ("wall_ms", "cpu_ms"):
            if not isinstance(rep.get(key), (int, float)) or rep[key] < 0:
                problems.append(f"{name}: repetition {i} has bad {key}: {rep.get(key)!r}")
    problems.extend(validate_stats(name, record))
    problems.extend(validate_machine(name, record["machine"]))
    problems.extend(validate_all_gates(name, record))
    if record["ok"]:
        for prefix, legs in SCALING_LEGS.items():
            if name.lower().startswith(prefix):
                problems.extend(validate_scaling(record, legs, args))
        if name.lower().startswith("s2_"):
            problems.extend(validate_referees(record))
        if name.lower() == "micro_multibfs":
            problems.extend(validate_multibfs_traffic(record))
        if name.lower().startswith("s3_"):
            problems.extend(validate_query_throughput(record))
        if name.lower().startswith("s5_"):
            problems.extend(validate_snapshot_io(record, args))
        if name.lower().startswith("s6_"):
            problems.extend(validate_sharded(record, args))
        if name.lower().startswith("s7_"):
            problems.extend(validate_fault_tolerance(record, args))
        if name.lower().startswith("s8_"):
            problems.extend(validate_streaming(record, args))
        if name.lower().startswith("s9_"):
            problems.extend(validate_point_to_point(record, args))
    return problems


# A minimal valid record, and (scenario, metrics patch, expected to pass)
# cases.  For the all_* gate, present-and-true passes and anything else
# fails; an s2_ record passes only with all four referee wall times, a
# micro_multibfs record only when its messages equal instances * 2m and its
# up_messages and down_messages each equal instances * (n - 1), and
# an s9_ record (swept at n = 4000, see SELF_TEST_PARAMS) only with every
# per-size leg metric, the settled counts included, CH settling fewer
# vertices than Dijkstra, and every gate true.
SELF_TEST_RECORD = {
    "schema_version": 1,
    "scenario": "e5_mst",
    "description": "fixture",
    "grid": [],
    "ok": True,
    "config": {},
    "params": {},
    "repetitions": [{"wall_ms": 1.0, "cpu_ms": 1.0}],
    "metrics": {"rounds": 12},
    "machine": {key: "x" for key in MACHINE_KEYS} | {"hardware_threads": 4},
}
S2_FIXTURE_METRICS = {f"wall_ms_{referee}": 1.5 for referee in S2_REFEREES}
MULTIBFS_FIXTURE_METRICS = {
    "messages": 120000,
    "instances": 10,
    "m": 6000,
    "n": 2000,
    "rounds": 21,
    "up_messages": 19990,
    "down_messages": 19990,
}
S9_FIXTURE_METRICS = (
    {f"{prefix}_n4000": 2.5 for prefix in S9_SIZE_PREFIXES}
    | {"ch_settled_p50_n4000": 1.5}
    | {check: True for check in S9_TRUE_CHECKS}
)
SELF_TEST_PARAMS = {"S9_point_to_point": {"n_sweep": [4000]}}


def without(metrics: dict, key: str) -> dict:
    return {k: v for k, v in metrics.items() if k != key}

SELF_TEST_CASES = [
    ("e5_mst", {}, True),
    ("e5_mst", {"all_weights_ok": True}, True),
    ("e5_mst", {"all_covered": True, "all_ok": True, "all_walks_distinct": True}, True),
    ("e5_mst", {"allowance": 0}, True),
    ("e5_mst", {"all_weights_ok": False}, False),
    ("e5_mst", {"all_covered": 1}, False),
    ("e5_mst", {"all_ok": "true"}, False),
    ("e5_mst", {"all_walks_distinct": None}, False),
    ("e5_mst", {"all_ok": True, "all_covered": False}, False),
    ("S2_referee_scaling", S2_FIXTURE_METRICS, True),
    ("S2_referee_scaling", {}, False),
    ("S2_referee_scaling", S2_FIXTURE_METRICS | {"wall_ms_karger": -1.0}, False),
    ("S2_referee_scaling", S2_FIXTURE_METRICS | {"wall_ms_diameter": True}, False),
    ("S2_referee_scaling", {k: 1.0 for k in list(S2_FIXTURE_METRICS)[:3]}, False),
    ("micro_multibfs", MULTIBFS_FIXTURE_METRICS, True),
    ("micro_multibfs", MULTIBFS_FIXTURE_METRICS | {"messages": 119999}, False),
    ("micro_multibfs", {"messages": 120000, "m": 6000}, False),
    ("micro_multibfs", MULTIBFS_FIXTURE_METRICS | {"m": 6000.0}, False),
    ("micro_multibfs", without(MULTIBFS_FIXTURE_METRICS, "n"), False),
    ("micro_multibfs", without(MULTIBFS_FIXTURE_METRICS, "up_messages"), False),
    ("micro_multibfs", MULTIBFS_FIXTURE_METRICS | {"up_messages": 19989}, False),
    ("micro_multibfs", MULTIBFS_FIXTURE_METRICS | {"down_messages": 20000}, False),
    ("micro_multibfs", MULTIBFS_FIXTURE_METRICS | {"down_messages": 19990.0}, False),
    ("micro_multibfs", MULTIBFS_FIXTURE_METRICS | {"n": 2001}, False),
    ("S9_point_to_point", S9_FIXTURE_METRICS, True),
    ("S9_point_to_point", without(S9_FIXTURE_METRICS, "ch_settled_p50_n4000"), False),
    ("S9_point_to_point", without(S9_FIXTURE_METRICS, "dijkstra_settled_p50_n4000"), False),
    ("S9_point_to_point", S9_FIXTURE_METRICS | {"ch_settled_p50_n4000": -1.0}, False),
    ("S9_point_to_point", S9_FIXTURE_METRICS | {"dijkstra_settled_p50_n4000": None}, False),
    ("S9_point_to_point", S9_FIXTURE_METRICS | {"all_engines_agree": False}, False),
    ("S9_point_to_point", S9_FIXTURE_METRICS | {"ch_settled_p50_n4000": 2.5}, False),
    ("S9_point_to_point", S9_FIXTURE_METRICS | {"ch_settled_p50_n4000": 40.0}, False),
]


def self_test() -> int:
    failures = 0
    args = argparse.Namespace(speedup_floor=None, speedup_floor_min_threads=8)
    for scenario, patch, should_pass in SELF_TEST_CASES:
        record = copy.deepcopy(SELF_TEST_RECORD)
        record["scenario"] = scenario
        record["params"] = copy.deepcopy(SELF_TEST_PARAMS.get(scenario, {}))
        record["metrics"].update(patch)
        passed = not validate_record(record, True, args)
        if passed != should_pass:
            failures += 1
            verdict = "pass" if should_pass else "fail"
            print(f"self-test: {scenario} metrics {patch!r} should {verdict}")
    print(f"self-test: {len(SELF_TEST_CASES)} case(s): " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(
        description="Schema validation for lcsbench JSON records.",
        epilog="The record schema, the S2 referee timings, the S3 leg-curve "
        "fields, the S8 admission legs and the --speedup-floor gating rules "
        "are documented in docs/bench.md.",
    )
    parser.add_argument("path")
    parser.add_argument("--min-scenarios", type=int, default=1)
    parser.add_argument("--require-ok", action="store_true")
    parser.add_argument(
        "--speedup-floor",
        type=float,
        default=None,
        help="require the best t8 speedup of each thread-scaling record to "
        "reach this value (only enforced for records from hosts with at "
        "least --speedup-floor-min-threads hardware threads)",
    )
    parser.add_argument("--speedup-floor-min-threads", type=int, default=8)
    args = parser.parse_args()

    with open(args.path, encoding="utf-8") as f:
        data = json.load(f)
    records = data if isinstance(data, list) else [data]

    problems = []
    if len(records) < args.min_scenarios:
        problems.append(
            f"expected >= {args.min_scenarios} scenario records, got {len(records)}"
        )
    for record in records:
        if not isinstance(record, dict):
            problems.append(f"non-object record: {record!r}")
            continue
        problems.extend(validate_record(record, args.require_ok, args))

    for p in problems:
        print(p)
    print(f"{len(records)} record(s): " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
