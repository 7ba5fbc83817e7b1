import math
from dataclasses import fields, replace
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from engram.codec import dumps, rfc3339, utc
from engram.embedding import HashEmbedder
from engram.errors import NegativeElapsed
from engram.graph import EntityNode, SemanticMemory
from engram.model import (
    ACTORS,
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    TIER_HOT,
    TIER_WARM,
    EpisodicRecord,
    FidelityLevel,
    MemoryEvent,
    ReadOnlyDict,
    StoreConfig,
    decayed_importance,
    estimate_tokens,
    evolve,
    hours_between,
)

from conftest import T0, hours, make_event, make_record, roundtrip

EMB = HashEmbedder(256, 0)

_texts = st.text(max_size=20)
_times = st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1),
                      timezones=st.just(timezone.utc))
events = st.builds(
    MemoryEvent, id=st.text(min_size=1, max_size=10), timestamp=_times,
    session_id=_texts, actor=st.sampled_from(ACTORS), kind=_texts,
    content=_texts, metadata=st.dictionaries(_texts, _texts, max_size=3),
    causes=st.lists(_texts, max_size=3).map(tuple))
_floats = st.floats(allow_nan=False, allow_infinity=False)
records = st.builds(
    EpisodicRecord, event=events,
    embedding=st.lists(_floats, min_size=1, max_size=8).map(np.array),
    importance=_floats,
    score_breakdown=st.dictionaries(_texts, _floats, max_size=3),
    fidelity=st.sampled_from(FidelityLevel),
    tier=st.sampled_from([TIER_HOT, TIER_WARM]),
    encoded_at=_times, last_accessed=_times,
    access_count=st.integers(0, 10**6), ttl_expires_at=_times,
    state=st.sampled_from([STATE_PENDING, STATE_RETAINED, STATE_PROMOTED,
                           STATE_TOMBSTONE]),
    entities=st.lists(_texts, max_size=3).map(tuple),
    source_ids=st.lists(_texts, max_size=3).map(tuple))
memories = st.builds(
    SemanticMemory, id=st.text(min_size=1, max_size=10), gist=_texts,
    embedding=st.lists(_floats, min_size=1, max_size=8).map(np.array),
    source_ids=st.frozensets(_texts, max_size=3), created_at=_times,
    entities=st.lists(_texts, max_size=3).map(tuple), access_count=st.integers(0, 10**6))
nodes = st.builds(EntityNode, name=_texts, importance=_floats, first_seen=_times,
                  last_seen=_times)


def test_utc_roundtrip():
    assert rfc3339(utc("2026-01-05T00:00:00Z")) == "2026-01-05T00:00:00Z"
    assert utc("2026-01-05T01:00:00+01:00") == utc("2026-01-05T00:00:00Z")


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2  # ceil(5/4)


def test_fidelity_ladder_fractions():
    fracs = [FidelityLevel(i).retained_fraction for i in range(6)]
    assert fracs == [1.0, 0.75, 0.5, 0.25, 0.1, 0.0]
    assert FidelityLevel.L5.next_level() is FidelityLevel.L5


def test_event_validation():
    with pytest.raises(ValueError):
        make_event(eid="")
    with pytest.raises(ValueError):
        make_event(eid=5)  # ids sort and persist as strings
    with pytest.raises(ValueError):
        make_event(actor="nobody")


def test_naive_timestamp_rejected():
    """A naive timestamp names no instant: its text, and so the store's
    fingerprint, would follow the host's time zone. Only an aware one is an
    event time, at any offset."""
    with pytest.raises(ValueError, match="naive"):
        make_event(ts=datetime(2026, 1, 5))
    with pytest.raises(ValueError, match="naive"):
        evolve(make_event(), timestamp=datetime(2026, 1, 5))
    east = make_event(ts=datetime(2026, 1, 5, 5, 45, tzinfo=timezone(hours(5.75))))
    assert rfc3339(east.timestamp) == "2026-01-05T00:00:00Z"


@given(events)
@example(make_event(metadata={"outcome": "success"}, causes=("evt-0",)))
def test_event_serde_roundtrip(ev):
    assert roundtrip(MemoryEvent, ev) == ev


def test_record_defaults(embedder):
    ev = make_event()
    rec = EpisodicRecord(event=ev, embedding=embedder.embed(ev.content))
    assert rec.encoded_at == ev.timestamp
    assert rec.source_ids == (ev.id,)
    assert rec.ttl_expires_at == ev.timestamp + hours(24)
    assert rec.state == STATE_PENDING


@given(records)
@example(EpisodicRecord(event=make_event(), embedding=EMB.embed("hello world"),
                        importance=0.7, score_breakdown={"composite": 0.7}))
def test_record_serde_roundtrip(rec):
    again = roundtrip(EpisodicRecord, rec)
    assert again.embedding.dtype == np.float64
    assert type(again.fidelity) is FidelityLevel


def test_config_validates_fractions():
    with pytest.raises(ValueError):
        StoreConfig(promote_fraction=0.5, retain_fraction=0.5,
                    prune_fraction=0.5)
    with pytest.raises(ValueError):
        StoreConfig(near_dedup_threshold=1.5)


def test_config_serde_roundtrip():
    c = StoreConfig(token_budget=5000)
    assert roundtrip(StoreConfig, c) == c


# -- decay ----------------------------------------------------------------

def test_decay_half_life():
    # lambda = 0.001/h gives a half-life of ln(2)/0.001 = 693.147h
    assert decayed_importance(1.0, T0, T0 + hours(693.147), 0.001) == \
        pytest.approx(0.5, abs=1e-6)


def test_decay_rejects_negative_elapsed():
    with pytest.raises(NegativeElapsed):
        decayed_importance(1.0, T0, T0 - hours(1), 0.001)


@given(st.floats(0.0, 1.0), st.floats(0.0, 2000.0), st.floats(0.0, 2000.0))
def test_decay_is_multiplicative(i0, h1, h2):
    """Decaying over h1 then h2 equals decaying over h1+h2."""
    lam = 0.001
    step = decayed_importance(
        decayed_importance(i0, T0, T0 + hours(h1), lam),
        T0 + hours(h1), T0 + hours(h1) + hours(h2), lam)
    direct = decayed_importance(i0, T0, T0 + hours(h1) + hours(h2), lam)
    assert step == pytest.approx(direct, rel=1e-9, abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 5000.0))
def test_decay_never_increases(i0, h):
    assert decayed_importance(i0, T0, T0 + hours(h), 0.001) <= i0 + 1e-12


def test_hours_between_sign():
    assert hours_between(T0, T0 + hours(2)) == 2.0
    assert hours_between(T0 + hours(2), T0) == -2.0
    assert math.isclose(hours_between(T0, T0 + hours(0.5)), 0.5)


@given(pair=st.one_of(*(st.tuples(values, values)
                        for values in (events, records, memories, nodes))),
       data=st.data())
def test_evolve_is_replace(pair, data):
    """`evolve` builds what `dataclasses.replace` builds, in canonical text,
    for each value class and a change of any one field; the old value's
    memoized text stays behind."""
    value, donor = pair
    name = data.draw(st.sampled_from([f.name for f in fields(value)]), label="field")
    change = {name: getattr(donor, name)}
    dumps(value)
    new, want = evolve(value, **change), replace(value, **change)
    assert new.__dict__.keys() == want.__dict__.keys()
    assert dumps(new) == dumps(want)


def test_evolve_rejects_unknown_fields_and_keeps_values_immutable(embedder):
    rec = make_record(embedder)
    for value, change in ((rec, {"content": "a property, not a field"}),
                          (rec.event, {"nope": 1})):
        with pytest.raises(TypeError):
            evolve(value, **change)
    with pytest.raises(ValueError):
        evolve(rec.event, actor="nobody")
    changed = evolve(rec, embedding=np.ones(256), score_breakdown={"recency": 1.0})
    assert not changed.embedding.flags.writeable
    assert type(changed.score_breakdown) is ReadOnlyDict
    event = evolve(rec.event, metadata={"outcome": "success"}, causes=["evt-0"])
    assert type(event.metadata) is ReadOnlyDict and event.causes == ("evt-0",)
    memory = SemanticMemory(id="sem-000000", gist="g", embedding=np.ones(4),
                            source_ids=frozenset({"evt-1"}), created_at=T0)
    assert not evolve(memory, embedding=np.ones(4)).embedding.flags.writeable
