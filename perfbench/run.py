"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-point --seed 1 --seconds 20 --trace 0

``--trace 0`` builds the system several times (set-up time is their
median, and their warm-up counts must agree exactly), then measures the
closed loop for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` measures an untraced half (``--seconds / 2``), then the
same number of operations traced on a fresh build, and reports the
per-layer metrics; its spans go to ``perfbench/out/``.  The last
line of standard output is always the result object; a failed
determinism check or a missing source tree exits non-zero without one.
"""

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys

from harness import BLOCK, peak_rss_mb, run_phase, timed, warm_kernel
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Per-workload sizes: timed set-ups per run, warm-up operations per
#: set-up, and the operation index at which count metrics are taken
#: (the measured phase always runs at least that many operations).
SIZES = {
    "fleet-point": {"setups": 5, "warmup": 300, "count_ops": 5000},
    "paper-tpcd": {"setups": 5, "warmup": 200, "count_ops": 4000},
    "ledger-rw": {"setups": 5, "warmup": 300, "count_ops": 6000},
}


class DeterminismError(RuntimeError):
    pass


def _ratio(num, den):
    return num / den if den else 0.0


def _delta(after, before):
    return {k: after[k] - before[k] for k in after}


def warm_setup(spec, warmup):
    """Build, load and settle one system, then run ``warmup`` operations
    through it (filling plan caches).  The build and each block of
    warm-up operations are timed between kernel checkpoints.

    Returns ``(runner, signature, raw_s, norm_s)``: the signature holds
    every count the warm-up produced and a digest of its statements.
    """
    runner, raw_s, norm_s = timed(spec.build)
    texts = hashlib.sha256()

    def block(n):
        for _ in range(n):
            op = runner.next_op()
            texts.update(op.sql.encode())
            result = runner.call(op)
            runner.think()
            runner.check(op, result)

    for start in range(0, warmup, BLOCK):
        _, raw, norm = timed(lambda: block(min(BLOCK, warmup - start)))
        raw_s += raw
        norm_s += norm
    signature = {**runner.tallies(), **runner.program_counts(),
                 "statements": texts.hexdigest()}
    return runner, signature, raw_s, norm_s


def _statement_digest(spec_cls, seed, n):
    spec = spec_cls(seed)
    spec.prepare()
    runner = spec.build()
    texts = hashlib.sha256()
    for _ in range(n):
        texts.update(runner.next_op().sql.encode())
    return texts.hexdigest()


def timed_setups(spec, sizes):
    """Set up ``sizes["setups"]`` times; returns the last runner, the
    normalised and raw set-up seconds, and the signature every set-up
    must have produced identically."""
    runner = None
    norm, raw, signatures = [], [], []
    for _ in range(sizes["setups"]):
        runner = None
        gc.collect()
        runner, signature, raw_s, norm_s = warm_setup(spec, sizes["warmup"])
        norm.append(norm_s)
        raw.append(raw_s)
        signatures.append(signature)
    for other in signatures[1:]:
        if other != signatures[0]:
            diff = {k: (signatures[0][k], other[k]) for k in other
                    if other[k] != signatures[0][k]}
            raise DeterminismError(
                f"{spec.name} seed {spec.seed}: two set-ups of the same seed "
                f"disagree on {diff}"
            )
    return runner, norm, raw, signatures[0]


def measure(runner, seconds, count_ops, tracer=None):
    """The closed-loop phase; returns ``(stats, prefix)`` where
    ``prefix`` holds the tally and counter deltas over the first
    ``count_ops`` operations, and the peak memory when they are done
    (the replication log grows with every operation, so memory is
    compared at a fixed operation count)."""
    base = {**runner.tallies(), **runner.program_counts()}
    prefix = {}

    def on_op(index):
        if index == count_ops:
            prefix.update(_delta(
                {**runner.tallies(), **runner.program_counts()}, base
            ))
            prefix["peak_rss_mb"] = peak_rss_mb()

    # Freeze everything alive now (the loaded database and the
    # benchmark's own expected answers) out of the collector's reach, so
    # full collections in the timed loop scan only what the loop made.
    gc.collect()
    gc.freeze()
    try:
        stats = run_phase(runner, seconds, min_ops=count_ops, tracer=tracer,
                          on_op=on_op)
    finally:
        gc.unfreeze()
    runner.finish()
    return stats, prefix


def end_to_end(spec, seconds, sizes):
    spec.prepare()
    runner, setup_norm, setup_raw, signature = timed_setups(spec, sizes)
    stats, prefix = measure(runner, seconds, sizes["count_ops"])
    if _statement_digest(type(spec), spec.seed + 1,
                         sizes["warmup"]) == signature["statements"]:
        raise DeterminismError(
            f"{spec.name}: seeds {spec.seed} and {spec.seed + 1} generated "
            "the same statements"
        )
    metrics = {
        "ops_per_s": (stats.ops_per_s(), "1/s"),
        "read_p50_us": (stats.summary("read", 50), "us"),
        "read_p99_us": (stats.summary("read", 99), "us"),
        "local_read_frac": (_ratio(prefix["local_reads"], prefix["reads"]),
                            "fraction"),
        "backend_rows_per_read": (
            _ratio(prefix["backend_rows"], prefix["reads"]), "rows"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (prefix["peak_rss_mb"], "MiB"),
    }
    detail = {
        "raw_ops_per_s": stats.raw_ops_per_s(),
        "raw_setup_s": setup_raw,
        "norm_setup_s": setup_norm,
        "ref_kernel_us_median": statistics.median(stats.kernel_us),
        "ref_kernel_us_quartiles": statistics.quantiles(stats.kernel_us, n=4),
        "reads": len(stats.latency_us["read"]),
        "writes": len(stats.latency_us["write"]),
        "write_p50_us": stats.summary("write", 50),
        "write_p95_us": stats.summary("write", 95),
        "warmup_signature": signature,
        "count_prefix": prefix,
    }
    return metrics, detail, [runner]


def per_layer(spec, seconds, sizes):
    spec.prepare()
    half = max(seconds / 2.0, 0.5)
    first = warm_setup(spec, sizes["warmup"])[0]
    untraced, prefix = measure(first, half, sizes["count_ops"])
    tracer = Tracer().install()
    try:
        second = warm_setup(spec, sizes["warmup"])[0]
        # Exactly as many operations as the untraced half: ledger-rw's
        # per-operation cost grows with its log, so equal time would not
        # compare like with like.
        traced, _prefix = measure(second, 0, untraced.ops, tracer=tracer)
        tracer.stop()
    finally:
        tracer.uninstall()
    metrics = {}
    for name, value in tracer.layer_metrics(traced.ops).items():
        unit = "us" if name.endswith("_us_per_op") else "count"
        metrics[name] = (value, "ratio" if name.endswith("share") else unit)
    counts = tracer.counts
    calls = tracer.calls_by_counter
    metrics.update({
        "sql.parses_per_op": (metrics["sql.parser.parse.calls_per_op"][0],
                              "count"),
        "engine.rows_per_result": (_ratio(counts.get("engine.rows", 0),
                                          calls.get("engine.rows", 0)), "rows"),
        "backend.rows_per_remote_call": (_ratio(
            counts.get("backend.remote_rows", 0),
            calls.get("backend.remote_rows", 0)), "rows"),
        "replication.records_per_propagate": (_ratio(
            counts.get("replication.records", 0),
            calls.get("replication.records", 0)), "records"),
        "mtcache.plan_cache_hit_ratio": (_ratio(
            prefix["plan_hits"], prefix["plan_hits"] + prefix["plan_misses"]),
            "ratio"),
        "plan.snapshot_hit_ratio": (_ratio(
            prefix["snapshot_hits"],
            prefix["snapshot_hits"] + prefix["snapshot_misses"]), "ratio"),
        "guard.local_ratio": (_ratio(
            prefix["guard_pass"], prefix["guard_pass"] + prefix["guard_fail"]),
            "ratio"),
        "session.floor_local_ratio": (_ratio(
            prefix["session_local"],
            prefix["session_local"] + prefix["session_remote"]), "ratio"),
        "fleet.scatter_legs_per_split": (_ratio(
            prefix["scatter_legs"], prefix["scatter_splits"]), "count"),
        "harness.ref_kernel_us": (statistics.median(untraced.kernel_us), "us"),
        "harness.raw_ops_per_s": (untraced.raw_ops_per_s(), "1/s"),
        "harness.trace_overhead": (_ratio(traced.ops_per_s(),
                                          untraced.ops_per_s()), "ratio"),
        "harness.failed_frac": (_ratio(first.failed + second.failed,
                                       first.attempted + second.attempted),
                                "ratio"),
        "write.p50_us": (untraced.summary("write", 50), "us"),
        "write.p95_us": (untraced.summary("write", 95), "us"),
    })
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{spec.name}-seed{spec.seed}.jsonl")
    tracer.write(trace_path)
    detail = {
        "untraced_ops": untraced.ops, "traced_ops": traced.ops,
        "untraced_ops_per_s": untraced.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
        "count_prefix": prefix, "spans": len(tracer.spans),
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return metrics, detail, [first, second]


def run(workload, seed, seconds, trace, sizes=None):
    """Run one workload; returns the result object (not yet printed)."""
    from workloads import WORKLOADS  # imports repro: needs SRC on the path

    warm_kernel()
    sizes = dict(SIZES[workload], **(sizes or {}))
    spec = WORKLOADS[workload](seed)
    if trace:
        metrics, detail, runners = per_layer(spec, seconds, sizes)
    else:
        metrics, detail, runners = end_to_end(spec, seconds, sizes)
    failed = sum(runner.failed for runner in runners)
    detail["errors"] = [e for runner in runners for e in runner.errors]
    return {
        "correct": failed == 0,
        "attempted": sum(runner.attempted for runner in runners),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except DeterminismError as exc:
        print(f"error: determinism check failed: {exc}", file=sys.stderr)
        return 3
    for message in detail["errors"]:
        print(f"failure: {message}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as out:
        json.dump({"result": result, "detail": detail}, out, indent=1,
                  default=str)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # String hashing is salted per process; pin it so iteration orders,
    # and with them the count metrics, repeat exactly across runs.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
