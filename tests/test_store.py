import copy
import dataclasses
import json
from dataclasses import replace

import pytest

from engram import store as store_module
from engram.consolidation import MODE_AGGRESSIVE, run_consolidation
from engram.errors import DuplicateId, IllegalTransition, SnapshotFormatError
from engram.model import (
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    StoreConfig,
)
from engram.store import MemoryStore

from conftest import T0, hours, make_event, minutes


def test_ingest_rejects_duplicate_id(store):
    store.ingest(make_event("a", ts=T0))
    with pytest.raises(DuplicateId):
        store.ingest(make_event("a", ts=T0 + hours(1)))


def test_readmit_is_not_new_input(store):
    event = make_event("child", ts=T0, causes=("parent",))
    store.ingest(event)
    store.quarantine_event(event, "causal_inversion", T0)
    rec = store.readmit(event)
    assert store.records["child"] is rec and rec.state == STATE_PENDING
    assert "child" in store.admitted_ids
    assert store.total_ingested == 1
    # the id is stored now: a second re-admission is refused
    with pytest.raises(DuplicateId):
        store.readmit(event)
    assert store.total_ingested == 1


def test_ingest_extracts_entities(store):
    rec = store.ingest(make_event("a", ts=T0,
                                  content="ask Alice about the Meridian deal"))
    assert set(rec.entities) == {"Alice", "Meridian"}
    assert rec.tier == "hot"
    assert rec.state == "pending"


def test_ingest_jsonl(store):
    lines = [
        json.dumps({"id": "x", "ts": "2026-01-05T00:00:00Z",
                    "session_id": "s", "actor": "user", "kind": "comment",
                    "content": "first"}),
        "",
        json.dumps({"id": "y", "ts": "2026-01-05T00:01:00Z",
                    "session_id": "s", "actor": "agent", "kind": "comment",
                    "content": "second"}),
    ]
    records = store.ingest_jsonl(lines)
    assert [r.id for r in records] == ["x", "y"]
    assert store.total_ingested == 2


def test_active_tokens_ignores_tombstones(store):
    store.ingest(make_event("a", ts=T0, content="x" * 40))
    store.ingest(make_event("b", ts=T0, content="y" * 40))
    assert store.active_tokens() == 20
    rec = store.records["a"]
    store.replace(replace(rec.with_content(""), state="tombstone"))
    assert store.active_tokens() == 10
    assert store.active_count() == 1


def test_snapshot_roundtrip_byte_identical(store, tmp_path):
    for i in range(6):
        store.ingest(make_event(f"e{i}", ts=T0 + minutes(i),
                                content=f"note {i} about Delta "
                                + " ".join(f"k{i}{j}" for j in range(5))))
    run_consolidation(store, T0 + hours(1))
    path = tmp_path / "snap.json"
    store.save_snapshot(str(path))
    again = MemoryStore.load_snapshot(str(path))
    assert again.snapshot_json() == store.snapshot_json()
    # snapshots written before `calibration_profile` was dropped still load
    legacy = dict(store.state_dict(), calibration_profile=None)
    assert MemoryStore.from_state_dict(legacy).snapshot_json() == store.snapshot_json()
    # loaded store keeps working
    again.ingest(make_event("new", ts=T0 + hours(2), content="more data"))
    assert again.total_ingested == store.total_ingested + 1


def test_failed_save_keeps_previous_snapshot(store, tmp_path, monkeypatch):
    store.ingest(make_event("a", ts=T0, content="first note"))
    path = tmp_path / "snap.json"
    store.save_snapshot(str(path))
    before = path.read_bytes()
    store.ingest(make_event("b", ts=T0 + minutes(1), content="second note"))

    class HalfWrite:
        """Writes half of the text, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    monkeypatch.setattr(store_module, "open",
                        lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
    with pytest.raises(OSError):
        store.save_snapshot(str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.json"]
    store.save_snapshot(str(path))
    assert path.read_text(encoding="utf-8") == store.snapshot_json()


def test_snapshot_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99}), encoding="utf-8")
    with pytest.raises(SnapshotFormatError):
        MemoryStore.load_snapshot(str(path))


def test_checkpoint_restore_is_complete(store):
    store.ingest(make_event("a", ts=T0, content="Alice planning session"))
    run_consolidation(store, T0 + hours(1))
    before = store.snapshot_json()
    chk = store._checkpoint()
    store.ingest(make_event("b", ts=T0 + hours(2), content="Bob interferes"))
    run_consolidation(store, T0 + hours(3))
    assert store.snapshot_json() != before
    store._restore(chk)
    assert store.snapshot_json() == before


def test_centroid_tracks_scored_embeddings(store):
    assert store.centroid() is None
    v = store.embedder.embed("hello")
    store.add_to_centroid(v)
    store.add_to_centroid(v)
    c = store.centroid()
    assert c == pytest.approx(v)
    assert store.centroid_count == 2


def test_batch_ids_are_sequential(store):
    assert store.next_batch_id() == "batch-00001"
    assert store.next_batch_id() == "batch-00002"


@pytest.mark.parametrize("old, new", [
    (STATE_RETAINED, STATE_PENDING),
    (STATE_PROMOTED, STATE_PENDING),
    (STATE_TOMBSTONE, STATE_PENDING),
    (STATE_TOMBSTONE, STATE_RETAINED),
    (STATE_TOMBSTONE, STATE_PROMOTED),
    (STATE_RETAINED, STATE_PROMOTED),
    (STATE_PROMOTED, STATE_RETAINED),
])
def test_replace_rejects_moves_against_the_lattice(store, old, new):
    store.ingest(make_event("a", ts=T0, content="lattice probe"))
    stored = replace(store.records["a"], state=old)
    store.records["a"] = stored
    with pytest.raises(IllegalTransition):
        store.replace(replace(stored, state=new))
    assert store.records["a"] is stored


def test_replace_allows_forward_moves(store):
    store.ingest(make_event("a", ts=T0, content="lattice probe"))
    for state in (STATE_PENDING, STATE_RETAINED, STATE_RETAINED, STATE_TOMBSTONE,
                  STATE_TOMBSTONE):
        store.replace(replace(store.records["a"], state=state))
        assert store.records["a"].state == state


def test_stored_values_are_immutable(store):
    for i in range(6):
        store.ingest(make_event(f"e{i}", ts=T0 + minutes(i),
                                content=f"Alice and Bob ship release {i}",
                                metadata={"outcome": "success"}))
    store.ingest(make_event("late", ts=T0 - hours(1), content="Carol was late"))
    store.watermark = T0
    run_consolidation(store, T0 + hours(1), mode=MODE_AGGRESSIVE)
    loaded = MemoryStore.from_state_dict(json.loads(store.snapshot_json()))
    for s in (store, loaded):
        rec = s.records["e0"]
        mem = next(iter(s.graph.memories.values()))
        node = next(iter(s.graph.entities.values()))
        entry = s.quarantine["late"]
        for value, name in ((rec, "importance"), (rec, "state"), (mem, "gist"),
                            (mem, "access_count"), (node, "importance"),
                            (entry, "reason")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
        for value in (rec, mem):
            with pytest.raises(ValueError):
                value.embedding[0] = 1.0
            with pytest.raises(ValueError):
                value.embedding += 0.0
        for mapping in (rec.event.metadata, rec.score_breakdown):
            with pytest.raises(TypeError):
                mapping["outcome"] = "failure"
            with pytest.raises(TypeError):
                mapping.update(outcome="failure")
        assert copy.deepcopy(rec.event) == rec.event
