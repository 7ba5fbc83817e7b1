"""Shared fixtures and small builders used across the test suite."""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import settings

from engram.codec import decode, dumps, encode
from engram.embedding import HashEmbedder
from engram.model import (
    STATE_TOMBSTONE,
    EpisodicRecord,
    FidelityLevel,
    MemoryEvent,
    StoreConfig,
)
from engram.store import MemoryStore

T0 = datetime(2026, 1, 5, tzinfo=timezone.utc)

# Hypothesis budgets. Tier-1 runs "tier1": the default examples per test,
# and 25 steps per stateful run. A soak run picks a larger budget with
# `pytest --hypothesis-profile soak`; tests that set no budget of their own
# (the lifecycle state machine, the sleep oracles) take it from the profile.
settings.register_profile("tier1", stateful_step_count=25)
settings.register_profile("soak", max_examples=1500, stateful_step_count=50)
settings.load_profile("tier1")


@pytest.fixture
def embedder():
    return HashEmbedder(dimension=256, seed=0)


@pytest.fixture
def config():
    return StoreConfig()


@pytest.fixture
def store(config):
    return MemoryStore(config)


def make_event(eid="evt-1", ts=T0, session="session-000", actor="user",
               kind="comment", content="hello world", metadata=None,
               causes=()):
    return MemoryEvent(id=eid, timestamp=ts, session_id=session, actor=actor,
                       kind=kind, content=content,
                       metadata=dict(metadata or {}), causes=tuple(causes))


def make_record(embedder, eid="evt-1", content="hello world", ts=T0,
                importance=0.5, **event_kwargs):
    event = make_event(eid=eid, ts=ts, content=content, **event_kwargs)
    return EpisodicRecord(event=event, embedding=embedder.embed(content),
                          importance=importance)


def minutes(n):
    return timedelta(minutes=n)


def hours(n):
    return timedelta(hours=n)


def roundtrip(tp, value):
    """encode -> JSON text -> decode -> encode; the two encodings must be
    equal. Returns the decoded value."""
    data = encode(value)
    again = decode(tp, json.loads(json.dumps(data)))
    assert encode(again) == data
    return again


# the record fields a tombstone keeps besides its event
TOMBSTONE_KEEPS = ("encoded_at", "last_accessed", "ttl_expires_at", "tier",
                   "importance", "access_count", "source_ids")


def assert_tombstone_of(store, before):
    """The stored record of `before.id` is `before` as a tombstone that
    keeps only existence metadata: no content, entities or score breakdown,
    an all-zero embedding, fidelity L5; `before`'s event but for the content
    and its `TOMBSTONE_KEEPS` fields. The snapshot holds that record's
    text."""
    tomb = store.records[before.id]
    assert (tomb.state, tomb.fidelity, tomb.content, tomb.entities,
            dict(tomb.score_breakdown)) == (STATE_TOMBSTONE, FidelityLevel.L5, "", (), {})
    assert tomb.event == replace(before.event, content="")
    assert [getattr(tomb, f) for f in TOMBSTONE_KEEPS] == \
        [getattr(before, f) for f in TOMBSTONE_KEEPS]
    text = dumps(tomb)
    assert '"embedding":{"i":[],"n":256,"v":[]}' in text
    assert text in store.snapshot_json()
