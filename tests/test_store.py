import copy
import dataclasses
import json
import pickle
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
    estimate_tokens,
)
from engram.store import AdmittedIds, MemoryStore, RecordMap

from conftest import T0, hours, make_event, make_record, minutes
from oracles import derived_by_walk, derived_kept


@pytest.mark.parametrize("setting", [
    {"embed_seed": 2 ** 63}, {"embed_seed": -2 ** 63 - 1},
    {"embed_dimension": 256.0}, {"embed_dimension": True}, {"embed_dimension": 4},
])
def test_an_out_of_range_embedder_setting_is_refused(setting):
    with pytest.raises(ValueError):
        MemoryStore(StoreConfig(**setting))


def test_ingest_rejects_duplicate_id(store):
    store.ingest(make_event("a", ts=T0))
    with pytest.raises(DuplicateId):
        store.ingest(make_event("a", ts=T0 + hours(1)))


def test_an_admitted_id_stays_taken_after_dedup_removed_it(store):
    """Consolidation admits an id once: after dedup drops "b" as a copy of
    "a", the id is refused, so temporal validation never meets it again."""
    store.ingest(make_event("a", ts=T0, content="the same words"))
    store.ingest(make_event("b", ts=T0 + minutes(1), content="the same words"))
    report = run_consolidation(store, T0 + hours(1))
    assert report.exact_dups_removed == 1 and "b" not in store.records
    with pytest.raises(DuplicateId):
        store.ingest(make_event("b", ts=T0 + hours(2), content="other words"))


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


def full_sums(records):
    """(live count, live tokens) by a walk over every record."""
    live = [r for r in records.values() if r.state != STATE_TOMBSTONE]
    return len(live), sum(estimate_tokens(r.content) for r in live)


def test_record_map_totals_follow_every_writer(embedder):
    """`[]=`, `del` and `pop` keep the totals equal to the full sums; every
    other dict mutator raises `TypeError` and changes nothing; copies and
    pickles keep the totals."""
    def rec(eid, n, state=STATE_RETAINED):
        return replace(make_record(embedder, eid=eid, content="x" * n), state=state)

    m = RecordMap({"a": rec("a", 8), "t": rec("t", 0, STATE_TOMBSTONE)})
    assert list(m.dirty) == ["a", "t"]
    steps = [
        lambda: m.__setitem__("b", rec("b", 12)),
        lambda: m.__setitem__("a", rec("a", 0, STATE_TOMBSTONE)),
        lambda: m.__setitem__("t", rec("t", 20)),
        lambda: m.__setitem__("c", rec("c", 5)),
        lambda: m.__delitem__("b"),
        lambda: m.pop("t"),
        lambda: m.pop("missing", None),
    ]
    assert (m.live, m.tokens) == full_sums(m) == (1, 2)
    for step in steps:
        step()
        assert (m.live, m.tokens) == full_sums(m)
    assert (m.live, m.tokens) == (1, estimate_tokens("x" * 5))
    assert list(m.dirty) == ["a", "t", "b", "c"]
    with pytest.raises(KeyError):
        m.pop("missing")
    with pytest.raises(KeyError):
        del m["missing"]
    refused = [
        lambda: m.popitem(),
        lambda: m.setdefault("d", rec("d", 5)),
        lambda: m.update({"d": rec("d", 7)}, e=rec("e", 9)),
        lambda: m.__ior__({"a": rec("a", 1)}),
        lambda: m.clear(),
    ]
    before = dict(m), list(m.dirty), m.live, m.tokens
    for mutate in refused:
        with pytest.raises(TypeError):
            mutate()
        assert (dict(m), list(m.dirty), m.live, m.tokens) == before
    for twin in (copy.copy(m), copy.deepcopy(m), RecordMap(m),
                 pickle.loads(pickle.dumps(m))):
        assert type(twin) is RecordMap and twin.keys() == m.keys()
        assert (twin.live, twin.tokens) == full_sums(twin) == full_sums(m)


def test_record_map_keeps_pending_ids_and_holders_through_every_writer(embedder):
    """`[]=`, `del` and `pop` keep the pending ids, in the map's order, and
    the content holders equal a walk over every record, also when an id
    moves back into pending against the lattice."""
    def rec(eid, content, state):
        return replace(make_record(embedder, eid=eid, content=content), state=state)

    m = RecordMap({"p1": rec("p1", "a", STATE_PENDING), "r1": rec("r1", "x", STATE_RETAINED),
                   "t": rec("t", "", STATE_TOMBSTONE), "p2": rec("p2", "b", STATE_PENDING),
                   "r2": rec("r2", "x", STATE_PROMOTED)})
    assert derived_kept(m) == derived_by_walk(m) == (["p1", "p2"], {"x": ["r1", "r2"]})
    steps = [
        lambda: m.__setitem__("p3", rec("p3", "c", STATE_PENDING)),
        lambda: m.__setitem__("p1", rec("p1", "y", STATE_RETAINED)),
        lambda: m.__setitem__("r1", rec("r1", "", STATE_TOMBSTONE)),
        lambda: m.__setitem__("r2", rec("r2", "z", STATE_RETAINED)),
        lambda: m.__setitem__("r1", rec("r1", "d", STATE_PENDING)),
        lambda: m.__setitem__("p3", rec("p3", "c", STATE_PENDING)),
        lambda: m.__delitem__("p2"),
        lambda: m.pop("r2"),
        lambda: m.__setitem__("t", rec("t", "y", STATE_PROMOTED)),
    ]
    for step in steps:
        step()
        assert derived_kept(m) == derived_by_walk(m)
    assert derived_kept(m) == (["r1", "p3"], {"y": ["p1", "t"]})
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert derived_kept(twin) == derived_kept(m)


def test_record_map_keeps_the_newest_encoding_time(embedder, monkeypatch):
    """`newest` is the latest `encoded_at` of any record, tombstones
    included, through every writer. It walks the records only once every
    record encoded at that time has left the map, not when one of them is
    replaced by a record encoded at the same time."""
    def rec(eid, h, state=STATE_RETAINED):
        return replace(make_record(embedder, eid=eid, ts=T0 + hours(h)), state=state)

    walks = []
    values = RecordMap.values
    monkeypatch.setattr(RecordMap, "values", lambda self: walks.append(1) or values(self))
    m = RecordMap({"a": rec("a", 1), "b": rec("b", 3), "c": rec("c", 3)})
    steps = [
        (lambda: None, T0 + hours(3), 0),
        (lambda: m.__setitem__("b", rec("b", 3, STATE_TOMBSTONE)), T0 + hours(3), 0),
        (lambda: m.__delitem__("c"), T0 + hours(3), 0),
        (lambda: m.__setitem__("d", rec("d", 5)), T0 + hours(5), 0),
        (lambda: m.__setitem__("d", rec("d", 5, STATE_PROMOTED)), T0 + hours(5), 0),
        (lambda: m.pop("d"), T0 + hours(3), 2),
        (lambda: m.__setitem__("e", rec("e", 2)), T0 + hours(3), 0),
        (lambda: m.__delitem__("b"), T0 + hours(2), 2),
        (lambda: m.__delitem__("e"), T0 + hours(1), 2),
        (lambda: m.pop("a"), None, 2),
    ]
    for step, newest, walked in steps:
        walks.clear()
        step()
        assert m.newest() == newest
        assert len(walks) == walked
        assert m.newest() == max((r.encoded_at for r in values(m)), default=None)
    for twin in (copy.copy(m), pickle.loads(pickle.dumps(m))):
        assert twin.newest() == m.newest()


def test_admitted_ids_only_grow_and_roll_back_to_a_savepoint():
    """`add` is the one writer and `order` lists the ids in the order
    added; a savepoint is the order's length, a rollback drops the ids
    added after it, and a rollback to an outer savepoint also drops those
    added after an inner one."""
    ids = AdmittedIds(["a"])
    refused = [
        lambda: ids.remove("a"), lambda: ids.discard("a"), ids.pop, ids.clear,
        lambda: ids.update({"b"}), lambda: ids.intersection_update(set()),
        lambda: ids.difference_update({"a"}), lambda: ids.symmetric_difference_update({"a"}),
        lambda: ids.__ior__({"b"}), lambda: ids.__iand__(set()),
        lambda: ids.__isub__({"a"}), lambda: ids.__ixor__({"a"}),
    ]
    for mutate in refused:
        with pytest.raises(TypeError):
            mutate()
        assert ids == {"a"} and ids.order == ["a"]
    ids.add("b")
    outer = len(ids.order)
    ids.add("c")
    inner = len(ids.order)
    ids.add("d")
    ids.add("a")  # already admitted: not added again
    assert ids.order == ["a", "b", "c", "d"]
    ids.rollback(inner)
    assert ids == {"a", "b", "c"} and ids.order == ["a", "b", "c"]
    ids.add("e")  # an inner savepoint that commits needs no step
    ids.rollback(outer)
    assert ids == {"a", "b"} and ids.order == ["a", "b"]
    ids.add("f")
    for twin in (copy.copy(ids), copy.deepcopy(ids), pickle.loads(pickle.dumps(ids))):
        assert type(twin) is AdmittedIds and twin == ids
        assert twin.order == ["a", "b", "f"] and twin.order is not ids.order
    assert AdmittedIds(iter(["x", "y"])).order == ["x", "y"]


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
