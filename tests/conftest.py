"""Shared fixtures and small builders used across the test suite."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import settings

from engram.codec import decode, encode
from engram.embedding import HashEmbedder
from engram.model import EpisodicRecord, MemoryEvent, StoreConfig
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
