"""engram lifecycle benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload stream --seed 1 --seconds 20 --trace 0

It builds its inputs from the seed, loads engram from `src/` of the current
directory, runs whole rounds of one workload for at least `--seconds`
seconds, checks every output, and prints one JSON object as its last line:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Diagnostics (raw figures, kernel times, round counts) come on
the lines before it and in `bench/out/`. It exits nonzero, printing no
result, when a check fails or engram's source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import sys
import time

# One BLAS thread: the reference host has two vCPUs shared with the
# interpreter, and a second BLAS thread only adds contention noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_QUERIES = 200     # query_ms.p95 needs ten samples beyond it
MIN_ROUNDS = 2        # the replay check compares a round with the first
MIN_SETUPS = 3        # setup_s is a median of one load per part and round
HARD_STOP_S = 140.0   # stop starting rounds well inside the 180 s limit
SAVES = 9             # snapshot_save_ms is the median of these, over all parts

END_TO_END_UNITS = {
    "setup_s": "s", "events_per_s": "events/s", "sleep_ms.p50": "ms",
    "query_ms.p50": "ms", "query_ms.p95": "ms", "snapshot_save_ms": "ms",
    "snapshot_bytes_per_record": "B", "peak_rss_mb": "MB",
    "retention_precision": "ratio", "recall_at_10": "ratio",
    "store_tokens": "tokens",
}
WRITE_KINDS = ("ingest", "sleep", "fingerprint")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("stream", "recall", "agent"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timing_metrics(clock, events: int, normalized: bool) -> dict[str, float]:
    from refclock import median, p95
    v = lambda kind: clock.values(kind, normalized)
    return {
        "setup_s": median(v("setup")),
        "events_per_s": events / clock.total(WRITE_KINDS, normalized),
        "sleep_ms.p50": median(v("sleep")) * 1e3,
        "query_ms.p50": median(v("query")) * 1e3,
        "query_ms.p95": p95(v("query")) * 1e3,
        "snapshot_save_ms": median(v("save")) * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "engram", "__init__.py")):
        print(f"error: no engram source under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS, Checks, Parts

    t_start = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    checks = Checks()
    wl = Parts(WORKLOADS[args.workload], args.seed, OUT_DIR)
    scratch = [p.start_path for p in wl.parts]
    scratch += [os.path.join(OUT_DIR, f"final-{tag}-{i}.json") for i in range(len(wl.parts))]
    try:
        return measure(args, wl, checks, tag, scratch[len(wl.parts):], t_start)
    finally:
        # start and final snapshots are scratch: 10 MB each on recall
        for path in scratch:
            if os.path.exists(path):
                os.remove(path)


def measure(args, wl, checks, tag: str, save_paths: list[str], t_start: float) -> int:
    import numpy as np

    import oracle
    from refclock import K_SECONDS, RefClock, median
    from tracer import PER_LAYER_UNITS, Tracer
    from workloads import fingerprint

    wl.prepare(checks)
    prep_s = time.perf_counter() - t_start

    clock = RefClock()
    tracer = Tracer() if args.trace else None
    min_rounds = max(MIN_ROUNDS, math.ceil(MIN_QUERIES / wl.queries_per_round),
                     math.ceil(MIN_SETUPS / len(wl.parts)))
    round_norm, traced_flags = [], []
    first = last = None
    deadline = time.perf_counter() + args.seconds
    while (len(round_norm) < min_rounds or time.perf_counter() < deadline) \
            and time.perf_counter() - t_start < HARD_STOP_S:
        gc.collect()
        # trace mode alternates untraced and traced rounds: identical work,
        # so their difference is the tracer's overhead
        traced = tracer is not None and len(round_norm) % 2 == 1
        before = clock.total(list(clock.samples))
        last = None  # let the previous round's stores go first
        with tracing(clock, tracer if traced else None):
            last = wl.round(clock, checks)
        round_norm.append(clock.total(list(clock.samples)) - before)
        traced_flags.append(traced)
        checkpoints = [out.fingerprints for out in last]
        if first is None:
            first = (checkpoints, [fingerprint(out.store) for out in last])
        elif checkpoints != first[0]:
            checks.fail(f"round {len(round_norm)} checkpoints differ from round 1")
    if len(round_norm) < min_rounds:
        checks.fail(f"only {len(round_norm)} of {min_rounds} rounds fit the time limit")

    stores = [out.store for out in last]
    if [fingerprint(store) for store in stores] != first[1]:
        checks.fail("the last round ends at other fingerprints than the first")
    saves = math.ceil(SAVES / len(stores))
    size = referenced = retained = 0
    for part, store, path in zip(wl.parts, stores, save_paths):
        with tracing(clock, tracer):
            for _ in range(saves):
                clock.run("save", store.save_snapshot, path)
        with open(path, encoding="utf-8") as fh:
            saved = fh.read()
        size += len(saved.encode("utf-8"))
        if type(store).load_snapshot(path).snapshot_json() != saved \
                or saved != store.snapshot_json():
            checks.fail("save -> load -> snapshot_json is not byte-identical")
        ref, ret = oracle.retention_counts(store, part.manifest)
        referenced, retained = referenced + ref, retained + ret
        theirs = compute_precision(store, part.manifest)
        if theirs is not None and abs(theirs - (ref / ret if ret else 0.0)) > 1e-12:
            checks.fail(f"retention precision {theirs!r} != recomputed {ref}/{ret}")
    found = [f for out in last for f in out.found]

    if checks.errors:
        for msg in checks.errors:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        return 1

    n_rounds = len(round_norm)
    records = sum(len(store.records) for store in stores)
    events = n_rounds * sum(out.events for out in last)
    ops = n_rounds * sum(out.ops for out in last) + saves * len(stores)
    e2e = timing_metrics(clock, events, normalized=True)
    e2e.update({
        "snapshot_bytes_per_record": size / records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "retention_precision": referenced / retained if retained else 0.0,
        "recall_at_10": sum(found) / len(found) if found else 0.0,
        "store_tokens": sum(oracle.active_tokens(s) for s in stores) / len(stores),
    })
    raw = timing_metrics(clock, events, normalized=False)
    refs = clock.refs
    diag = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "parts": len(stores), "rounds": n_rounds,
        "queries": len(clock.values("query")),
        "batches_per_round": sum(out.batches for out in last), "prep_s": prep_s,
        "wall_s": time.perf_counter() - t_start,
        "kernel_us": {"median": median(refs) * 1e6, "min": min(refs) * 1e6,
                      "max": max(refs) * 1e6, "K": K_SECONDS * 1e6},
        "raw": raw, "records": records,
        "graph_memories": sum(len(s.graph.memories) for s in stores),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        layer = tracer.metrics()
        batch_input = sum(out.batch_input for out in last)
        layer["consolidation.dedup_yield"] = (sum(out.removed for out in last) / batch_input
                                              if batch_input else 0.0)
        layer["graph.co_occur_edges"] = sum(len(s.graph.co_occurs) for s in stores) / len(stores)
        plain = [t for t, f in zip(round_norm, traced_flags) if not f]
        with_trace = [t for t, f in zip(round_norm, traced_flags) if f]
        layer["trace.overhead_pct"] = (median(with_trace) / median(plain) - 1.0) * 100.0
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
        diag["absent"] = tracer.absent
        diag["spans"] = len(tracer.spans)
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
        diag["end_to_end_traced"] = e2e
    result = {"correct": True, "attempted": ops, "failed": 0, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "diagnostics": diag}, fh, indent=1, sort_keys=True)
    for key, value in diag.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    print(json.dumps(result, sort_keys=True))
    return 0


@contextlib.contextmanager
def tracing(clock, tracer):
    """Patch the layers and let the clock open spans, when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.install()
    clock.tracer = tracer
    try:
        yield
    finally:
        clock.tracer = None
        tracer.uninstall()


def compute_precision(store, manifest):
    """The harness's own retention precision, where the harness has it."""
    try:
        from engram.harness import compute_metrics
    except ImportError:
        return None
    return compute_metrics(store, manifest)[0]


if __name__ == "__main__":
    sys.exit(main())
