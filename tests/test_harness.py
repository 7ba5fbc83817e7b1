import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from engram import harness
from engram.codec import encode
from engram.consolidation import MODE_NONE
from engram.harness import (
    StreamSpec,
    budget_sweep,
    generate_stream,
    stream_run,
)
from engram.model import StoreConfig
from engram.store import MemoryStore

from oracles import live_records


def test_generate_stream_deterministic():
    spec = StreamSpec(sessions=4, events_per_session=10)
    a = generate_stream(spec, seed=5)
    b = generate_stream(spec, seed=5)
    assert [encode(e) for e in a.events] == [encode(e) for e in b.events]
    c = generate_stream(spec, seed=6)
    assert [encode(e) for e in a.events] != [encode(e) for e in c.events]


def test_generate_stream_planted_counts():
    spec = StreamSpec(sessions=10, events_per_session=20, duplicate_rate=0.4,
                      future_reference_rate=0.3)
    m = generate_stream(spec, seed=0)
    total = len(m.events)
    assert total == 200
    dups = sum(1 for gt in m.ground_truth.values() if gt.is_duplicate_of)
    subs = sum(1 for gt in m.ground_truth.values() if gt.substantive)
    assert dups == round(0.4 * total)
    assert subs == round(0.3 * total)
    # every substantive event ends up future-referenced (700 > 300 citers)
    assert m.base_rate() == pytest.approx(0.3, abs=0.02)


def test_generate_stream_duplicates_copy_real_sources():
    m = generate_stream(StreamSpec(sessions=4, events_per_session=25), seed=2)
    by_id = {e.id: e for e in m.events}
    for eid, gt in m.ground_truth.items():
        if gt.is_duplicate_of:
            src = by_id[gt.is_duplicate_of].content
            assert by_id[eid].content in (src, src + " follow up confirmation")


def test_generate_stream_planted_violations():
    spec = StreamSpec(sessions=4, events_per_session=25, planted_violations=4)
    m = generate_stream(spec, seed=1)
    kinds = [gt.planted_violation for gt in m.ground_truth.values()
             if gt.planted_violation]
    assert len(kinds) == 4
    assert set(kinds) == {"out_of_order", "causal_inversion"}


def test_stream_run_checkpoint_cadence():
    m = generate_stream(StreamSpec(sessions=6, events_per_session=5), seed=0)
    every1 = stream_run(m, StoreConfig(), every_n=1)
    every2 = stream_run(m, StoreConfig(), every_n=2)
    assert len(every1.checkpoints) == 6
    assert len(every2.checkpoints) == 3


def test_stream_run_final_partial_window_flushes():
    m = generate_stream(StreamSpec(sessions=5, events_per_session=5), seed=0)
    metrics = stream_run(m, StoreConfig(), every_n=2)
    # sessions 1-2, 3-4, and the trailing 5th
    assert [c.index for c in metrics.checkpoints] == [2, 4, 5]


def test_stream_run_rejects_every_n_below_one():
    m = generate_stream(StreamSpec(sessions=3, events_per_session=5), seed=0)
    for every_n in (0, -5):
        with pytest.raises(ValueError):
            stream_run(m, StoreConfig(), every_n=every_n)
    with pytest.raises(ValueError):
        stream_run(m, StoreConfig(consolidate_every_n_sessions=0))


def test_prefix_replay_equality():
    m = generate_stream(StreamSpec(sessions=8, events_per_session=10), seed=0)
    full = stream_run(m, StoreConfig(), every_n=1)
    for k in (1, 3, 6):
        part = stream_run(m, StoreConfig(), every_n=1, max_sessions=k)
        assert part.checkpoints[-1].state_fingerprint == \
            full.checkpoints[k - 1].state_fingerprint


def test_quarantined_violations_never_admitted():
    spec = StreamSpec(sessions=4, events_per_session=25, planted_violations=4)
    m = generate_stream(spec, seed=1)
    store = MemoryStore(StoreConfig())
    stream_run(m, StoreConfig(), every_n=1, store=store)
    planted = {eid for eid, gt in m.ground_truth.items()
               if gt.planted_violation}
    active = {r.id for r in live_records(store)}
    assert planted.isdisjoint(active)


def test_mode_none_is_keep_everything_baseline():
    m = generate_stream(StreamSpec(sessions=5, events_per_session=20), seed=0)
    metrics = stream_run(m, StoreConfig(), every_n=1, mode=MODE_NONE)
    assert metrics.store_reduction == 0.0
    assert metrics.retained_count == 100
    assert metrics.retention_precision == pytest.approx(m.base_rate(), abs=0.02)


def test_budget_sweep_monotone_and_oracle():
    m = generate_stream(StreamSpec(sessions=6, events_per_session=20), seed=4)
    rows = budget_sweep(m, StoreConfig(), budgets=[300, 900, 2700])
    tokens = [r["final_tokens"] for r in rows]
    assert tokens == sorted(tokens)
    fracs = [r["retained_substantive_fraction"] for r in rows]
    assert fracs == sorted(fracs)
    for r in rows:
        assert 0.0 <= r["retained_substantive_fraction"] <= 1.0


def test_report_formats():
    m = generate_stream(StreamSpec(sessions=3, events_per_session=5), seed=0)
    metrics = stream_run(m, StoreConfig())
    doc = json.loads(harness.report(metrics, fmt="json"))
    assert set(doc) >= {"retention_precision", "store_reduction", "checkpoints"}
    text = harness.report(metrics, fmt="text")
    assert "retention_precision" in text
    with pytest.raises(ValueError):
        harness.report(metrics, fmt="xml")


REPLAY = """
import json
from engram.codec import encode
from engram.harness import StreamSpec, generate_stream, stream_run
from engram.retrieval import hybrid_retrieve
from engram.store import MemoryStore

store = MemoryStore()
metrics = stream_run(generate_stream(StreamSpec(sessions=6, events_per_session=30), seed=3),
                     store=store)
print(json.dumps({
    "fingerprints": [c.state_fingerprint for c in metrics.checkpoints],
    "hits": [encode(hybrid_retrieve(store, q, 5).hits)
             for q in ("Kestrel deploy", "Meridian", "status check")],
    "rows": store.embedding_index().keys,
}))
"""


def test_replay_does_not_depend_on_the_hash_seed():
    """One stream replayed under two `PYTHONHASHSEED`s ends at the same
    checkpoint fingerprints, answers probe queries with the same hits, and
    holds its embedding index rows in the same order."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    procs = [subprocess.Popen([sys.executable, "-c", REPLAY], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
             for seed in ("0", "1")]
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        runs.append(json.loads(out))
    first, second = runs
    assert len(first["fingerprints"]) == 6 and len(first["rows"]) > 0
    assert all(len(hits) == 5 for hits in first["hits"])
    assert first == second
