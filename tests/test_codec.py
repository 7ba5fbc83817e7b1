"""Rules of the one JSON codec: defaults for absent or null keys, rejection
of undeclared keys, snapshot errors, and the memoized canonical text."""

import copy
import json
import pickle
from dataclasses import replace
from datetime import datetime
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from engram.cli import main
from engram.codec import decode, dumps, encode
from engram.embedding import RemoteEmbedder
from engram.errors import SnapshotFormatError
from engram.forgetting import apply_ttl, degrade
from engram.graph import EntityNode, SemanticMemory
from engram.harness import StreamSpec
from engram.model import FidelityLevel, MemoryEvent, StoreConfig, evolve
from engram.store import MemoryStore

from conftest import T0, hours, make_event, make_record


def test_jsonl_event_defaults_null_and_extra_keys(store):
    lines = [
        json.dumps({"id": "x", "ts": "2026-01-05T00:00:00Z"}),
        json.dumps({"id": "y", "ts": "2026-01-05T01:00:00+01:00",
                    "content": "hi", "metadata": None, "causes": None,
                    "priority": "high"}),
    ]
    x, y = store.ingest_jsonl(lines)
    assert x.event == MemoryEvent(id="x", timestamp=T0, session_id="",
                                  actor="user", kind="event", content="",
                                  metadata={}, causes=())
    assert y.event == MemoryEvent(id="y", timestamp=T0, session_id="",
                                  actor="user", kind="event", content="hi",
                                  metadata={}, causes=())


def test_event_without_timestamp_rejected(store):
    with pytest.raises(ValueError):
        store.ingest_jsonl([json.dumps({"id": "x", "content": "no time"})])
    assert store.records == {}


def test_unknown_config_and_spec_keys_rejected():
    with pytest.raises(ValueError):
        decode(StoreConfig, {"lamda_decay": 0.002})
    with pytest.raises(ValueError):
        decode(StreamSpec, {"sesions": 3})
    spec = decode(StreamSpec, {"sessions": 3, "core_pool_size": None,
                               "start_time": "2026-02-01T00:00:00Z"})
    assert spec == StreamSpec(sessions=3,
                              start_time=datetime.fromisoformat("2026-02-01T00:00:00+00:00"))


def test_generate_rejects_unknown_spec_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"sesions": 3}), encoding="utf-8")
    assert main(["generate", "--spec", "spec.json", "--out", "s.jsonl"]) == 1
    assert not (tmp_path / "s.jsonl").exists()


def _snapshot(store):
    store.ingest(make_event("a", ts=T0, content="first note"))
    return json.loads(store.snapshot_json())


def _embedding(d):
    return d["records"][0]["embedding"]


def _cut(array, n):
    """Shorten an encoded sparse array to length `n`, dropping its entries
    past the end."""
    kept = [(i, v) for i, v in zip(array["i"], array["v"]) if i < n]
    array.update(n=n, i=[i for i, _v in kept], v=[v for _i, v in kept])


@pytest.mark.parametrize("corrupt", [
    lambda d: d["records"][0].pop("event"),
    lambda d: d["records"][0].pop("embedding"),
    lambda d: d["config"].update(lamda_decay=0.002),
    lambda d: _embedding(d)["i"].reverse(),
    lambda d: _embedding(d)["i"].__setitem__(1, _embedding(d)["i"][0]),
    lambda d: _embedding(d)["i"].__setitem__(-1, _embedding(d)["n"]),
    lambda d: _embedding(d)["i"].__setitem__(0, -1),
    lambda d: _embedding(d)["v"].pop(),
    lambda d: _embedding(d).update(x=0),
    lambda d: _embedding(d).pop("n"),
    lambda d: _embedding(d)["v"].__setitem__(0, None),
    lambda d: d.update(centroid_sum={"i": [0], "n": 0, "v": [1.0]}),
    lambda d: d.update(centroid_sum=[0.5, "1.5"]),
    lambda d: d["config"].update(embed_seed=2 ** 64),
    lambda d: d["config"].update(embed_dimension=256.0),
    lambda d: _cut(_embedding(d), 128),
    lambda d: d["config"].update(embed_dimension=128),
], ids=["record-without-event", "record-without-embedding", "config-typo",
        "indices-decreasing", "index-repeated", "index-past-the-end",
        "index-negative", "fewer-values-than-indices", "array-extra-key",
        "array-without-length", "value-null", "centroid-index-past-the-end",
        "dense-centroid-with-a-string", "seed-past-64-bits", "fractional-dimension",
        "embedding-cut-to-128", "embedder-of-another-dimension"])
def test_malformed_snapshot_rejected(store, corrupt):
    d = _snapshot(store)
    corrupt(d)
    with pytest.raises(SnapshotFormatError):
        MemoryStore.from_state_dict(d)


def test_mixed_embedding_lengths_rejected_by_an_embedder_of_no_set_dimension(store):
    """An embedder whose dimension is not yet known loads a snapshot whose
    embeddings share one length, and refuses one whose centroid sum is
    shorter than its record's embedding."""
    d = _snapshot(store)
    embedder = RemoteEmbedder(endpoint="unused", post=lambda *args: {"embedding": [1.0]})
    assert embedder.dimension is None
    assert MemoryStore.from_state_dict(d, embedder=embedder).state_dict() == store.state_dict()
    d.update(centroid_sum={"i": [0], "n": 128, "v": [1.0]})
    with pytest.raises(SnapshotFormatError):
        MemoryStore.from_state_dict(d, embedder=embedder)


def test_snapshot_record_without_defaulted_key_loads_default(store):
    d = _snapshot(store)
    del d["records"][0]["importance"]
    assert MemoryStore.from_state_dict(d).records["a"].importance == 0.0


def test_top_level_values():
    assert encode(None) is None
    assert decode(Optional[datetime], None) is None
    assert decode(Optional[datetime], encode(T0)) == T0
    assert encode(T0) == "2026-01-05T00:00:00Z"
    assert encode({"a": T0}) == {"a": "2026-01-05T00:00:00Z"}
    assert encode(np.array([0.5, 0.0, -1.0])) == {"i": [0, 2], "n": 3, "v": [0.5, -1.0]}
    assert encode(np.zeros(2)) == {"i": [], "n": 2, "v": []}
    assert encode(FidelityLevel.L3) == 3
    assert encode(frozenset({"b", "a"})) == ["a", "b"]
    assert decode(frozenset[str], ["b", "a"]) == frozenset({"a", "b"})
    vec = decode(np.ndarray, {"i": [1], "n": 3, "v": [2]})
    assert vec.dtype == np.float64 and vec.tolist() == [0.0, 2.0, 0.0]


def test_a_v1_dense_list_still_decodes():
    vec = decode(np.ndarray, [1, 0, -0.0, 2.5])
    assert vec.dtype == np.float64
    assert vec.tobytes() == np.array([1.0, 0.0, -0.0, 2.5]).tobytes()
    assert decode(np.ndarray, []).shape == (0,)


def assert_bit_exact_roundtrip(a):
    text = json.dumps(encode(a))
    back = decode(np.ndarray, json.loads(text))
    assert back.dtype == np.float64 and back.tobytes() == a.tobytes()


def test_arrays_roundtrip_bit_exact(store):
    vec = store.embedder.embed("Alice ships the Kestrel release")
    assert 0 < np.count_nonzero(vec) < len(vec) // 4  # a sparse vector
    for k in range(300):  # notes of one to six words
        words = " ".join(f"w{k}x{j}" for j in range(k % 6 + 1))
        store.add_to_centroid(store.embedder.embed(words))
    centroid = store.centroid_sum
    assert np.count_nonzero(centroid) > len(centroid) * 3 // 4  # a dense one
    for a in (np.zeros(256), np.array([0.0, -0.0, 1.0, -0.0]), centroid, vec,
              np.array([np.nan, np.inf, -np.inf, 5e-324]), np.zeros(0)):
        assert_bit_exact_roundtrip(a)


# NaN is left out: JSON has one NaN, so a NaN's sign and payload are lost
@given(hnp.arrays(np.float64, st.integers(0, 64),
                  elements=st.one_of(st.just(0.0), st.just(-0.0),
                                     st.floats(allow_nan=False, allow_subnormal=True))))
def test_random_arrays_roundtrip_bit_exact(a):
    assert_bit_exact_roundtrip(a)


def canonical(value):
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":"))


def stored_values(embedder):
    """A record, a semantic memory and an entity node."""
    return (
        make_record(embedder, content="Alice ships the release"),
        SemanticMemory(id="sem-000000", gist="Alice ships",
                       embedding=embedder.embed("Alice ships"),
                       source_ids=frozenset({"evt-1"}), created_at=T0,
                       entities=("Alice",)),
        EntityNode(name="Alice", first_seen=T0, last_seen=T0),
    )


def test_text_is_memoized_and_stays_out_of_the_json(embedder):
    for value in stored_values(embedder):
        data = encode(value)
        text = dumps(value)
        assert text == canonical(value)
        assert dumps(value) is text
        assert encode(value) == data == json.loads(text)
    config = StoreConfig()
    assert dumps(config) == canonical(config)
    assert vars(config) == vars(StoreConfig())  # a mutable value keeps no memo


def test_replaced_values_get_fresh_text(embedder):
    record, memory, node = stored_values(embedder)
    for build in (replace, evolve):
        for value, change in ((record, {"importance": 0.9}),
                              (record, {"event": build(record.event, content="edited")}),
                              (memory, {"access_count": 3}),
                              (node, {"importance": 1.0})):
            old = dumps(value)
            new = build(value, **change)
            assert dumps(new) == canonical(new) != old
            assert dumps(value) == old


def test_copies_of_a_value_with_memoized_text_give_its_text(embedder):
    for value in stored_values(embedder):
        text = dumps(value)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert dumps(twin) == canonical(twin) == text
            if hasattr(twin, "embedding"):
                assert not twin.embedding.flags.writeable
            changed = replace(twin, created_at=T0 + hours(1)) \
                if isinstance(twin, SemanticMemory) else replace(twin, importance=0.25)
            assert dumps(changed) == canonical(changed) != text


def test_a_tombstone_text_drops_its_content(store):
    store.ingest(make_event("a", ts=T0, content="the Kestrel launch codes"))
    store.ingest(make_event("b", ts=T0 + hours(40), content="a later note"))
    assert store.snapshot_json().count("Kestrel launch codes") == 1
    assert apply_ttl(store, T0 + hours(30)) == ["a"]
    text = store.snapshot_json()
    assert "Kestrel launch codes" not in text
    assert text == json.dumps(store.state_dict(), sort_keys=True, separators=(",", ":"))
    last = replace(store.records["b"], fidelity=FidelityLevel.L4)
    dumps(last)
    tomb = degrade(last)
    assert tomb.content == "" and "a later note" not in dumps(tomb)
