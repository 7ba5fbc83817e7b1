"""Every mutating job is transactional: a failure injected mid-job leaves the
store byte-identical to its state before the job."""

import json
import os
import threading
import time

import pytest

from engram import consolidation, retrieval
from engram.consolidation import MODE_AGGRESSIVE, MODE_DEDUP, MODE_NONE, run_consolidation
from engram.forgetting import run_forgetting
from engram.harness import StreamSpec, generate_stream
from engram.model import StoreConfig
from engram.store import MemoryStore

from oracles import live_records


class Injected(RuntimeError):
    pass


def fail_on_call(fn, n):
    """`fn`, except that its n-th call raises `Injected`."""
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            raise Injected(f"call {n}")
        return fn(*args, **kwargs)

    return wrapped


def sessions(seed=0):
    manifest = generate_stream(StreamSpec(sessions=3, events_per_session=40,
                                          planted_violations=4), seed=seed)
    out: dict[str, list] = {}
    for ev in manifest.events:
        out.setdefault(ev.session_id, []).append(ev)
    return list(out.values())


def ingest(store, events):
    for ev in events:
        store.ingest(ev)
    return max(ev.timestamp for ev in events)


def grown_store(config):
    """Two sessions consolidated in aggressive mode, so the graph holds gists,
    entities and co-occurrence edges, then the third session ingested."""
    store = MemoryStore(config)
    first, second, third = sessions()
    for events in (first, second):
        now = ingest(store, events)
        run_consolidation(store, now, mode=MODE_AGGRESSIVE)
        run_forgetting(store, now, budget=3000)
    assert store.graph.memories and store.graph.co_occurs
    return store, ingest(store, third)


# The last stage each mode runs: gist promotion, or, in `none` mode, which
# promotes nothing, the closing token count.
@pytest.mark.parametrize("mode", [MODE_DEDUP, MODE_AGGRESSIVE, MODE_NONE])
def test_consolidation_rolls_back_a_late_failure(mode, monkeypatch):
    store, now = grown_store(StoreConfig(cluster_distance=0.8))
    before = store.snapshot_json()
    if mode == MODE_NONE:
        monkeypatch.setattr(MemoryStore, "active_tokens",
                            fail_on_call(MemoryStore.active_tokens, 2))
    else:
        monkeypatch.setattr(consolidation, "promote",
                            fail_on_call(consolidation.promote, 2))
    with pytest.raises(Injected):
        run_consolidation(store, now, mode=mode)
    monkeypatch.undo()
    assert store.snapshot_json() == before
    # the restored store runs the same batch to completion
    assert run_consolidation(store, now, mode=mode).accounting_holds()


def test_forgetting_rolls_back_a_failed_degrade(monkeypatch):
    # the budget walk writes each walked record once, so the failure is
    # injected at the job's third store write
    store, now = grown_store(StoreConfig())
    run_consolidation(store, now)
    before = store.snapshot_json()
    monkeypatch.setattr(MemoryStore, "replace", fail_on_call(MemoryStore.replace, 3))
    with pytest.raises(Injected):
        run_forgetting(store, now, budget=1000)
    monkeypatch.undo()
    assert store.snapshot_json() == before
    report = run_forgetting(store, now, budget=1000)
    assert report.budget_steps >= 3
    assert store.active_tokens() <= 1000


def test_a_failed_transaction_restores_the_store_and_reraises():
    store, now = grown_store(StoreConfig())
    before = store.snapshot_json()
    with pytest.raises(Injected, match="after the jobs"):
        with store.transaction():
            run_consolidation(store, now, mode=MODE_AGGRESSIVE)
            run_forgetting(store, now, budget=1000)
            assert store.snapshot_json() != before
            raise Injected("after the jobs")
    assert store.snapshot_json() == before
    assert run_consolidation(store, now).accounting_holds()


def test_an_inner_commit_keeps_the_outer_transactions_log():
    """An outer transaction wraps two sleeps, each its own transaction; the
    first commits before the outer one raises. The rollback drops the ids
    both sleeps admitted and puts the pending records back in their order."""
    store, now = grown_store(StoreConfig())
    pending = [r.id for r in store.pending_records()]
    # the first sleep takes about half of the pending records
    middle = sorted(store.records[k].encoded_at for k in pending)[len(pending) // 2]
    admitted, before = set(store.admitted_ids), store.snapshot_json()
    order = list(store.admitted_ids.order)
    with pytest.raises(Injected, match="after both sleeps"):
        with store.transaction():
            first = run_consolidation(store, middle)
            # the first sleep's commit keeps the ids it admitted in `order`,
            # after the outer transaction's savepoint
            assert store.admitted_ids.order[:len(order)] == order
            assert len(store.admitted_ids.order) > len(order)
            second = run_consolidation(store, now)
            assert first.input_count and second.input_count
            assert not store.pending_records()
            raise Injected("after both sleeps")
    assert [r.id for r in store.pending_records()] == pending
    assert set(store.admitted_ids) == admitted
    assert store.admitted_ids.order == order
    assert store.snapshot_json() == before


@pytest.mark.parametrize("mode", [MODE_DEDUP, MODE_AGGRESSIVE, MODE_NONE])
def test_a_sleep_walks_no_whole_record_map(mode, monkeypatch):
    """A sleep reads its batch from the pending ids and its stored holders
    from the content map: neither `values` nor `items` of the record map is
    called."""
    store, now = grown_store(StoreConfig(cluster_distance=0.8))

    def walk(_records):
        raise AssertionError("a sleep walked the whole record map")

    for name in ("values", "items"):
        monkeypatch.setattr(type(store.records), name, walk)
    report = run_consolidation(store, now, mode=mode)
    monkeypatch.undo()
    assert report.input_count and report.accounting_holds()
    assert not store.pending_records()


class DepthLock:
    """A stand-in for the store's writer lock that tracks how deeply it is
    held."""

    def __init__(self):
        self.depth = 0

    def __enter__(self):
        self.depth += 1

    def __exit__(self, *exc):
        self.depth -= 1


def test_lability_and_feedback_write_under_the_lock(monkeypatch):
    store, now = grown_store(StoreConfig())
    run_consolidation(store, now)
    lock = store.lock = DepthLock()
    depths = []

    def recording(write):
        def wrapped(value):
            depths.append(lock.depth)
            write(value)
        return wrapped

    monkeypatch.setattr(store, "replace", recording(store.replace))
    monkeypatch.setattr(store.graph, "replace_memory",
                        recording(store.graph.replace_memory))
    rec_id = min(live_records(store), key=lambda r: r.id).id
    mem_id = min(store.graph.memories)
    for memory_id in (rec_id, mem_id):
        handle = retrieval.open_lability(store, memory_id, now)
        retrieval.reconsolidate(store, handle, "a contradicting note", 1.0, now)
    retrieval.reinforce(store, rec_id, "success")
    retrieval.reinforce(store, rec_id, "failure")
    assert depths == [1] * 6
    assert lock.depth == 0


def test_snapshots_read_the_store_under_the_lock(monkeypatch, tmp_path):
    store, _now = grown_store(StoreConfig())
    lock = store.lock = DepthLock()
    depths = []
    state, rename = store._state, os.replace

    def reading():
        depths.append(lock.depth)
        return state()

    def renaming(src, dst):
        depths.append(lock.depth)
        rename(src, dst)

    monkeypatch.setattr(store, "_state", reading)
    monkeypatch.setattr(os, "replace", renaming)
    assert json.loads(store.snapshot_json()) == store.state_dict()
    store.save_snapshot(str(tmp_path / "snap.json"))
    assert len(depths) == 4 and min(depths) >= 1
    assert lock.depth == 0


def test_a_snapshot_taken_during_a_sleep_waits_for_the_whole_batch():
    """Another thread's snapshot, asked for after the batch's first write,
    sees the state after the batch, not a half-applied one."""
    store, now = grown_store(StoreConfig())
    written = threading.Event()
    write = store.replace

    def slow(record):
        write(record)
        written.set()
        time.sleep(0.01)

    store.replace = slow
    sleep = threading.Thread(target=run_consolidation, args=(store, now),
                             kwargs={"mode": MODE_AGGRESSIVE})
    sleep.start()
    assert written.wait(10)
    seen = store.fingerprint()
    sleep.join(10)
    assert not sleep.is_alive()
    del store.replace
    assert seen == store.fingerprint()
