"""Fast tests of the benchmark itself: replay fidelity, the ranking oracle,
the normalization arithmetic and the tracer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from engram import consolidation, retrieval  # noqa: E402
from engram.harness import stream_run  # noqa: E402
from engram.model import MemoryEvent  # noqa: E402
from engram.store import MemoryStore  # noqa: E402

import oracle  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER_UNITS, TARGETS, Tracer  # noqa: E402

T0 = datetime(2026, 1, 5, tzinfo=timezone.utc)


class SmallStream(workloads.Stream):
    BUDGET = 400  # binds at this size, so budget forgetting runs


class SmallAgent(workloads.Agent):
    BUDGET = 1500


def small_stream(tmp_path, seed=3):
    return SmallStream(seed, str(tmp_path), spec=dict(
        sessions=8, events_per_session=20, planted_violations=4))


def small_agent(tmp_path, seed=3):
    return SmallAgent(seed, str(tmp_path), spec=dict(
        sessions=9, events_per_session=24, duplicate_rate=0.2,
        future_reference_rate=0.5))


def test_stream_replay_reaches_stream_run_fingerprints(tmp_path):
    wl = small_stream(tmp_path)
    checks = workloads.Checks()
    warm = wl.prepare(checks)
    out = wl.round(workloads.Direct(), checks)
    assert checks.errors == []
    metrics = stream_run(wl.manifest, wl.config, every_n=1,
                         mode=consolidation.MODE_DEDUP, budget=wl.BUDGET)
    want = [c.state_fingerprint for c in metrics.checkpoints]
    assert len(want) == 8
    assert warm + out.fingerprints == want
    referenced, retained = oracle.retention_counts(out.store, wl.manifest)
    assert referenced / retained == metrics.retention_precision


def _event(eid, hours, content, session="s0"):
    return MemoryEvent(id=eid, timestamp=T0 + timedelta(hours=hours),
                       session_id=session, actor="user", kind="comment",
                       content=content)


def test_recall_oracle_ranks_hand_built_store():
    store = MemoryStore()
    for ev in (_event("a1", 0, "alpha beta gamma"), _event("a2", 0, "alpha beta gamma"),
               _event("b", 1, "alpha beta gamma"), _event("c", 2, "delta epsilon zeta")):
        store.ingest(ev)
    consolidation.run_consolidation(store, T0 + timedelta(hours=2),
                                    mode=consolidation.MODE_NONE)
    store.ingest(_event("d", 3, "alpha beta gamma", session="s1"))  # stays hot
    now = T0 + timedelta(hours=3)
    index = oracle.EpisodicIndex(store, now)
    want = oracle.oracle_top_k(store, index, "alpha beta gamma", now, 10)
    # equal similarity: the newer record gets the larger recency boost;
    # a1 and a2 tie exactly and break by id; the unrelated record is last
    assert [i for i, _ in want] == ["d", "b", "a1", "a2", "c"]
    got = retrieval.hybrid_retrieve(store, "alpha beta gamma", k=10, now=now)
    got = [(h.memory_id, h.final_score) for h in got.hits]
    assert oracle.same_ranking(got, want)
    assert not oracle.same_ranking(got[::-1], want)
    assert not oracle.same_ranking(got[:-1], want)


def test_hit_checks_catch_a_corrupted_result():
    store = MemoryStore()
    for i, text in enumerate(["alpha beta", "alpha gamma", "beta gamma"]):
        store.ingest(_event(f"e{i}", i, text))
    now = T0 + timedelta(hours=3)
    result = retrieval.hybrid_retrieve(store, "alpha beta", k=10, now=now)
    assert oracle.check_hits(store, result, "alpha beta", now, 10) == []
    result.hits.reverse()
    assert oracle.check_hits(store, result, "alpha beta", now, 10)
    result.hits.reverse()
    result.hits[0].base_sim += 1e-6
    assert oracle.check_hits(store, result, "alpha beta", now, 10)


def test_normalization_arithmetic(monkeypatch):
    k = refclock.K_SECONDS
    assert refclock.normalize(0.010, k, k) == pytest.approx(0.010)
    assert refclock.normalize(0.010, 2 * k, 2 * k) == pytest.approx(0.005)
    assert refclock.normalize(0.010, k, 3 * k) == pytest.approx(0.005)
    kernel_times = iter([k, 3 * k])
    monkeypatch.setattr(refclock, "kernel_seconds", lambda: next(kernel_times))
    clock = refclock.RefClock()
    assert clock.run("op", lambda x: x + 1, 1) == 2
    [(raw, norm)] = clock.samples["op"]
    assert norm == pytest.approx(raw / 2)
    assert clock.refs == [k, 3 * k]
    assert refclock.p95(list(range(1, 101))) == pytest.approx(95.95)


def test_traced_and_untraced_rounds_end_at_identical_fingerprints(tmp_path):
    wl = small_agent(tmp_path)
    checks = workloads.Checks()
    wl.prepare(checks)
    plain = wl.round(refclock.RefClock(), checks)
    originals = {name: retrieval.__dict__.get(name) for name in
                 ("hybrid_retrieve", "episodic_search")}
    tracer = Tracer()
    clock = refclock.RefClock()
    tracer.install()
    clock.tracer = tracer
    try:
        traced = wl.round(clock, checks)
    finally:
        tracer.uninstall()
    assert checks.errors == []
    assert tracer.absent == []
    assert workloads.fingerprint(traced.store) == workloads.fingerprint(plain.store)
    assert traced.found == plain.found
    for name, fn in originals.items():
        assert getattr(retrieval, name) is fn
    layer = tracer.metrics()
    assert set(layer) | {"consolidation.dedup_yield", "graph.co_occur_edges",
                         "trace.overhead_pct"} == set(PER_LAYER_UNITS)
    assert layer["embedding.embed_calls_per_query"] > 0
    assert layer["consolidation.cluster_ms"] > 0
    assert layer["retrieval.reconsolidate_us"] > 0
    names = {s[0] for s in tracer.spans}
    assert {name for name, _m, _a in TARGETS} - names <= {"store.snapshot_json"}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_exits_nonzero_without_engram_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
