import math
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

from engram import retrieval
from engram.consolidation import run_consolidation
from engram.embedding import HashEmbedder
from engram.errors import AlreadyTombstone, LabilityExpired
from engram.forgetting import apply_ttl
from engram.model import (
    STATE_RETAINED,
    STATE_TOMBSTONE,
    TIER_HOT,
    TIER_WARM,
    FidelityLevel,
    StoreConfig,
    hours_between,
)
from engram.retrieval import (
    TIER_GRAPH,
    blend_strength,
    episodic_search,
    hybrid_retrieve,
    open_lability,
    reconsolidate,
    reinforce,
)
from engram.store import MemoryStore

from conftest import T0, hours, make_event, minutes
from oracles import hybrid_reference

EMB = HashEmbedder(256, 0)


def _store_with(events, consolidate_at=None):
    store = MemoryStore(StoreConfig())
    for ev in events:
        store.ingest(ev)
    if consolidate_at is not None:
        run_consolidation(store, consolidate_at)
    return store


# -- episodic search -------------------------------------------------------

def test_episodic_search_filters(store):
    store.ingest(make_event("a", ts=T0, session="s1", content="alpha topic"))
    store.ingest(make_event("b", ts=T0 + hours(1), session="s2",
                            content="alpha topic"))
    now = T0 + hours(2)
    by_session = episodic_search(store, "alpha topic", 10, now, session_id="s1")
    assert [h.memory_id for h in by_session] == ["a"]
    in_range = episodic_search(store, "alpha topic", 10, now,
                               time_range=(T0 + minutes(30), now))
    assert [h.memory_id for h in in_range] == ["b"]


def test_episodic_search_importance_filter(store):
    store.ingest(make_event("a", ts=T0, content="alpha topic"))
    store.records["a"] = replace(store.records["a"], importance=0.3)
    now = T0 + hours(1)
    assert episodic_search(store, "alpha topic", 10, now,
                           importance_filter=0.5) == []
    assert [h.memory_id for h in
            episodic_search(store, "alpha topic", 10, now,
                            importance_filter=0.1)] == ["a"]


def test_episodic_search_rejects_k_below_one(store):
    store.ingest(make_event("a", ts=T0, content="alpha topic"))
    for k in (0, -1):
        with pytest.raises(ValueError):
            episodic_search(store, "alpha topic", k, T0 + hours(1))


def test_tier_priority_breaks_exact_ties(store):
    # identical content means identical base similarity
    store.ingest(make_event("warm-rec", ts=T0, content="the same words"))
    store.ingest(make_event("hot-rec", ts=T0, content="the same words"))
    store.records["warm-rec"] = replace(store.records["warm-rec"],
                                        tier=TIER_WARM, state=STATE_RETAINED)
    hits = episodic_search(store, "the same words", 10, T0 + hours(1))
    assert [h.memory_id for h in hits] == ["hot-rec", "warm-rec"]


def test_newer_timestamp_breaks_remaining_ties(store):
    store.ingest(make_event("older", ts=T0, content="same words again"))
    store.ingest(make_event("newer", ts=T0 + hours(1), content="same words again"))
    hits = episodic_search(store, "same words again", 10, T0 + hours(2))
    assert [h.memory_id for h in hits] == ["newer", "older"]


# -- semantic gating -------------------------------------------------------

def test_hybrid_hides_a_mature_memory_created_after_now():
    """With maturation off every memory is mature at once; one created
    after `now` is still not visible to the query."""
    store = MemoryStore(StoreConfig(maturation_enabled=False))
    store.ingest(make_event("ep", ts=T0, content="Kestrel deploy notes"))
    store.graph.insert_memory("Kestrel deploy window",
                              EMB.embed("Kestrel deploy window"),
                              frozenset({"s"}), ("Kestrel",), T0 + hours(5))
    before = hybrid_retrieve(store, "Kestrel deploy window", now=T0 + hours(1))
    assert [h.memory_id for h in before.hits] == ["ep"]
    after = hybrid_retrieve(store, "Kestrel deploy window", now=T0 + hours(5))
    assert [h.tier for h in after.hits] == [TIER_GRAPH, TIER_HOT]


def test_hybrid_no_silent_semantic_hit(store):
    """A silent (A < 0.5) memory must never surface in hybrid results."""
    store.ingest(make_event("ep", ts=T0, content="Kestrel incident report"))
    store.graph.insert_memory("Kestrel postmortem summary",
                              EMB.embed("Kestrel postmortem summary"),
                              frozenset({"other"}), ("Kestrel",), T0)
    result = hybrid_retrieve(store, "Kestrel postmortem", now=T0 + hours(1))
    assert all(h.tier != TIER_GRAPH for h in result.hits)
    mature = hybrid_retrieve(store, "Kestrel postmortem", now=T0 + hours(400))
    assert any(h.tier == TIER_GRAPH for h in mature.hits)


def test_priming_boost_applied_to_episodic_sharing_entity(store):
    store.ingest(make_event("ep", ts=T0, content="Kestrel incident report"))
    store.graph.insert_memory("Kestrel postmortem summary",
                              EMB.embed("Kestrel postmortem summary"),
                              frozenset({"other"}), ("Kestrel",), T0)
    now = T0 + hours(1)
    result = hybrid_retrieve(store, "Kestrel incident", now=now)
    hit = next(h for h in result.hits if h.memory_id == "ep")
    mem = next(iter(store.graph.memories.values()))
    expected = 1.0 + 0.1 * mem.activation(now, store.config)
    assert hit.priming_boost == pytest.approx(expected)
    assert hit.final_score == pytest.approx(
        hit.base_sim * hit.recency_boost * hit.priming_boost)


def test_hybrid_weighs_each_created_at_once(store, monkeypatch):
    """A priming weight depends only on a memory's `created_at`: a query
    takes it once per distinct `created_at` among the memories it reaches,
    not once per memory."""
    store.ingest(make_event("ep", ts=T0, content="Kestrel incident report"))
    for i in range(6):
        store.graph.insert_memory(f"Kestrel note {i}", EMB.embed(f"Kestrel note {i}"),
                                  frozenset({f"s{i}"}), ("Kestrel", f"Part{i}"),
                                  T0 + hours(i % 2))
    calls = []
    weigh = retrieval.priming_weight
    monkeypatch.setattr(retrieval, "priming_weight",
                        lambda created, now, config: calls.append(created) or
                        weigh(created, now, config))
    result = hybrid_retrieve(store, "Kestrel incident", now=T0 + hours(2))
    assert len(calls) == 2
    assert result.hits[0].priming_boost > 1.0


class ReadLog(dict):
    """A memory map that logs each id read from it."""

    def __init__(self, mapping):
        super().__init__(mapping)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


def test_a_wholly_reached_silent_sleep_is_weighed_as_one_group(store):
    """A query's work follows the sleeps, not the memories: 200 silent
    memories of one sleep, every one reached from the seed, prime through
    their group's name union, and the query reads none of them by id."""
    store.ingest(make_event("ep", ts=T0, content="Kestrel incident report"))
    for i in range(200):
        store.graph.insert_memory(f"Kestrel part {i}", EMB.embed(f"Kestrel part {i}"),
                                  frozenset({f"s{i}"}), ("Kestrel", f"Part{i}"), T0)
    now = T0 + hours(1)
    want = hybrid_reference(store, "Kestrel incident", now=now)
    store.graph.memories = ReadLog(store.graph.memories)
    got = hybrid_retrieve(store, "Kestrel incident", now=now)
    assert store.graph.memories.read == []
    assert got == want
    assert [h.memory_id for h in got.hits] == ["ep"] and got.hits[0].priming_boost > 1.0


def test_logical_now_reads_the_newest_memory_time(store):
    store.ingest(make_event("a", ts=T0, content="alpha topic"))
    assert store.logical_now() == T0
    store.graph.insert_memory("alpha summary", EMB.embed("alpha summary"),
                              frozenset({"a"}), ("Alpha",), T0 + hours(3))
    assert store.logical_now() == T0 + hours(3)
    store.graph.insert_memory("beta summary", EMB.embed("beta summary"),
                              frozenset({"b"}), ("Beta",), T0 + hours(1))
    assert store.logical_now() == T0 + hours(3)


def test_source_id_dedupe_episodic_beats_gist(store):
    store.ingest(make_event("ep", ts=T0, metadata={"outcome": "success"},
                            content="Meridian budget approved by Hollis"))
    run_consolidation(store, T0 + hours(1))
    assert store.records["ep"].state == "promoted"
    assert len(store.graph.memories) == 1
    now = T0 + hours(500)  # gist fully mature
    result = hybrid_retrieve(store, "Meridian budget approved", now=now)
    ids = [h.memory_id for h in result.hits]
    assert "ep" in ids
    assert not any(i.startswith("sem-") for i in ids)


def test_hybrid_defaults_now_to_logical_now(store):
    # a record newer than the last consolidation must not put the default
    # `now` before its encoding time
    store.ingest(make_event("a", ts=T0, content="alpha topic"))
    run_consolidation(store, T0)
    store.ingest(make_event("b", ts=T0 + hours(2), content="alpha topic"))
    result = hybrid_retrieve(store, "alpha topic")
    assert result.as_of == T0 + hours(2)
    assert [h.memory_id for h in result.hits] == ["b", "a"]


def test_queries_are_point_in_time(store):
    """A query at `now` sees only records encoded and memories created at or
    before `now`; an `as_of` earlier than everything stored is legal."""
    store.ingest(make_event("a", ts=T0, metadata={"outcome": "success"},
                            content="Meridian budget approved by Hollis"))
    run_consolidation(store, T0 + hours(1))
    assert len(store.graph.memories) == 1  # the gist of "a", created at T0+1h
    store.ingest(make_event("b", ts=T0 + hours(2),
                            content="Meridian budget approved again"))
    store.graph.insert_memory("Meridian budget summary",
                              EMB.embed("Meridian budget summary"),
                              frozenset({"other"}), ("Meridian",), T0 + hours(3))
    query = "Meridian budget approved"
    assert hybrid_retrieve(store, query, now=T0 - hours(24)).hits == []
    assert episodic_search(store, query, 10, T0 - hours(24)) == []
    between = hybrid_retrieve(store, query, now=T0 + minutes(90))
    assert [h.memory_id for h in between.hits] == ["a"]
    summary = "Meridian budget summary"
    late = hybrid_retrieve(store, summary, now=T0 + hours(2))
    assert [h.memory_id for h in late.hits] == ["b", "a"]
    # both memories are mature by now; the gist of "a" yields to "a" itself
    mature = hybrid_retrieve(store, summary, now=T0 + hours(500))
    assert [h.memory_id for h in mature.hits[1:]] == ["b", "a"]
    assert (mature.hits[0].tier, mature.hits[0].content) == (TIER_GRAPH, summary)


def test_hybrid_embeds_query_once():
    class CountingEmbedder(HashEmbedder):
        calls = 0

        def embed(self, text):
            self.calls += 1
            return super().embed(text)

    embedder = CountingEmbedder(256, 0)
    store = MemoryStore(StoreConfig(), embedder=embedder)
    store.ingest(make_event("warm", ts=T0, content="Kestrel incident report"))
    run_consolidation(store, T0 + hours(1))
    store.ingest(make_event("hot", ts=T0 + hours(2), content="Kestrel follow-up"))
    store.graph.insert_memory("Kestrel postmortem summary",
                              EMB.embed("Kestrel postmortem summary"),
                              frozenset({"other"}), ("Kestrel",), T0)
    embedder.calls = 0
    result = hybrid_retrieve(store, "Kestrel postmortem", now=T0 + hours(400))
    assert {h.tier for h in result.hits} == {TIER_HOT, TIER_WARM, TIER_GRAPH}
    assert embedder.calls == 1


def test_hybrid_holds_the_store_lock_through_graph_traversal(store):
    """A writer on another thread cannot take the store's lock while the
    query walks the graph."""
    store.ingest(make_event("ep", ts=T0, content="Kestrel incident report"))
    store.graph.insert_memory("Kestrel postmortem summary",
                              EMB.embed("Kestrel postmortem summary"),
                              frozenset({"other"}), ("Kestrel",), T0)
    walk, taken = store.graph.walk, []

    def probe():
        if store.lock.acquire(blocking=False):
            store.lock.release()
            taken.append(True)
        else:
            taken.append(False)

    def probed_walk(*args, **kwargs):
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        return walk(*args, **kwargs)

    store.graph.walk = probed_walk
    result = hybrid_retrieve(store, "Kestrel incident", now=T0 + hours(1))
    assert [h.memory_id for h in result.hits] == ["ep"]
    assert taken == [False]


def test_hybrid_rejects_k_below_one(store):
    for i in range(5):
        store.ingest(make_event(f"e{i}", ts=T0 + minutes(i),
                                content=f"alpha topic {i}"))
    assert len(hybrid_retrieve(store, "alpha topic", k=1).hits) == 1
    for k in (0, -1, -2):
        with pytest.raises(ValueError):
            hybrid_retrieve(store, "alpha topic", k=k)


def test_recency_boost_decays_with_age(store):
    store.ingest(make_event("old", ts=T0, content="alpha beta gamma"))
    store.ingest(make_event("new", ts=T0 + hours(200), content="alpha beta gamma"))
    result = hybrid_retrieve(store, "alpha beta gamma", now=T0 + hours(201))
    by_id = {h.memory_id: h for h in result.hits}
    assert by_id["new"].recency_boost > by_id["old"].recency_boost
    assert by_id["new"].recency_boost == pytest.approx(
        1.0 + 0.2 * math.exp(-0.01 * 1.0))


def test_hybrid_ranking_matches_independent_scorer():
    """Full-ranking equality against a from-scratch scorer on a seeded
    200-record store, over 100 random queries."""
    rng = random.Random(42)
    vocab = [f"term{i}" for i in range(150)]
    events = []
    for i in range(200):
        content = " ".join(rng.choice(vocab) for _ in range(10))
        events.append(make_event(f"e{i:03d}", ts=T0 + minutes(i),
                                 session=f"s{i % 8}", content=content))
    store = _store_with(events, consolidate_at=T0 + hours(12))
    now = T0 + hours(24)
    config = store.config
    k = config.retrieval_k

    def oracle(query):
        qvec = store.embedder.embed(query)
        tier_rank = {TIER_HOT: 0, TIER_WARM: 1, TIER_GRAPH: 2}
        rows = []
        for rec in store.records.values():
            if rec.state == "tombstone":
                continue
            sim = float(np.dot(qvec, rec.embedding))
            age = hours_between(rec.event.timestamp, now)
            score = sim * (1.0 + 0.2 * math.exp(-0.01 * age))
            rows.append((score, tier_rank[rec.tier],
                         -rec.event.timestamp.timestamp(), rec.id))
        rows.sort(key=lambda r: (-r[0], r[1], r[2], r[3]))
        return [r[3] for r in rows[:k]]

    assert len(store.graph.memories) > 0  # promoted gists exist but are silent
    for q in range(100):
        query = " ".join(rng.choice(vocab) for _ in range(5))
        got = [h.memory_id for h in hybrid_retrieve(store, query, now=now).hits]
        assert got == oracle(query), f"query {q}: {query!r}"


# -- lability and reconsolidation -----------------------------------------

def test_open_lability_counts_access(store):
    store.ingest(make_event("a", ts=T0, content="fact one"))
    handle = open_lability(store, "a", T0 + hours(1))
    assert store.records["a"].access_count == 1
    assert handle.expires_at == T0 + hours(1) + minutes(60)
    assert store.is_labile("a", T0 + hours(1) + minutes(59))
    assert not store.is_labile("a", T0 + hours(2))


def test_open_lability_unknown_id(store):
    with pytest.raises(KeyError):
        open_lability(store, "ghost", T0)


def test_lability_refuses_a_tombstone():
    """Reconsolidation must not write new content into a tombstone, which
    keeps only existence metadata."""
    store = MemoryStore(StoreConfig())
    store.ingest(make_event("a", ts=T0, content="the deploy moved to four"))
    handle = open_lability(store, "a", T0)
    rec = store.records["a"]
    store.replace(replace(rec.with_content(""), state=STATE_TOMBSTONE,
                          fidelity=FidelityLevel.L5))
    before = store.snapshot_json()
    with pytest.raises(AlreadyTombstone):
        open_lability(store, "a", T0 + minutes(1))
    with pytest.raises(AlreadyTombstone):
        reconsolidate(store, handle, "the deploy moved to five", 1.0, T0 + minutes(2))
    assert store.snapshot_json() == before
    assert store.records["a"].content == ""


def test_blend_strength_formula(config):
    # 0.5*confidence + 0.3*severity + 0.2*(1 - recency)
    assert blend_strength(1.0, 1.0, 0.0, config) == 1.0
    assert blend_strength(0.0, 0.0, 1.0, config) == 0.0
    assert blend_strength(0.4, 0.5, 0.8, config) == \
        pytest.approx(0.5 * 0.4 + 0.3 * 0.5 + 0.2 * 0.2)


def test_reconsolidate_outside_window_raises(store):
    store.ingest(make_event("a", ts=T0, content="original claim"))
    handle = open_lability(store, "a", T0)
    with pytest.raises(LabilityExpired):
        reconsolidate(store, handle, "new claim", 0.9,
                      now=T0 + minutes(60))  # window + 1s is also expired
    with pytest.raises(LabilityExpired):
        reconsolidate(store, handle, "new claim", 0.9,
                      now=T0 + minutes(61))


def test_reconsolidate_alpha_zero_is_byte_identical_noop(store):
    store.ingest(make_event("a", ts=T0, content="original claim"))
    before = store.snapshot_json()
    handle = open_lability(store, "a", T0)
    mid = store.snapshot_json()  # access_count changed by the open itself
    # confidence 0, severity 0 (same text), recency 1 -> alpha == 0
    out = reconsolidate(store, handle, "original claim", 0.0, now=T0)
    assert store.snapshot_json() == mid
    assert out.content == "original claim"
    assert before != mid  # sanity: the open itself did record the access


def test_reconsolidate_high_alpha_replaces(store):
    store.ingest(make_event("a", ts=T0, content="the service is healthy"))
    old_vec = store.records["a"].embedding.copy()
    handle = open_lability(store, "a", T0)
    updated = reconsolidate(store, handle,
                            "correction: the service is fully down", 1.0,
                            now=T0 + minutes(5))
    assert updated.content == "correction: the service is fully down"
    assert not np.array_equal(updated.embedding, old_vec)
    assert np.linalg.norm(updated.embedding) == pytest.approx(1.0)


def test_reconsolidate_low_alpha_appends_amendment(store):
    store.ingest(make_event("a", ts=T0, content="deploy at noon"))
    handle = open_lability(store, "a", T0)
    updated = reconsolidate(store, handle, "deploy at noon sharp",
                            confidence=0.3, now=T0 + minutes(5))
    assert updated.content.startswith("deploy at noon")
    assert "[amendment] deploy at noon sharp" in updated.content


def test_reconsolidate_semantic_memory(store):
    mem = store.graph.insert_memory("Granite rollout done",
                                    EMB.embed("Granite rollout done"),
                                    frozenset({"s"}), ("Granite",), T0)
    handle = open_lability(store, mem.id, T0 + hours(1))
    assert mem.access_count == 0  # a value: the store holds its successor
    assert store.graph.memories[mem.id].access_count == 1
    updated = reconsolidate(store, handle, "Granite rollout reverted", 1.0,
                            now=T0 + hours(1) + minutes(5))
    assert updated.gist == "Granite rollout reverted"


def test_reinforce_success_and_failure(store):
    store.ingest(make_event("a", ts=T0, content="some fact"))
    store.records["a"] = replace(store.records["a"], importance=0.97)
    assert reinforce(store, "a", "success") == pytest.approx(1.0)  # clamped
    assert reinforce(store, "a", "failure") == pytest.approx(1.0)
    assert store.records["a"].event.metadata["error_signal"] == "true"
    with pytest.raises(ValueError):
        reinforce(store, "a", "meh")
    with pytest.raises(KeyError):
        reinforce(store, "ghost", "success")


def test_reinforce_refuses_a_tombstone(store):
    """Outcome feedback must not write into a tombstone: a TTL-expired
    record gains no importance and no error tag."""
    store.ingest(make_event("a", ts=T0, content="some fact"))
    assert apply_ttl(store, T0 + hours(100)) == ["a"]
    before = store.snapshot_json()
    for outcome in ("success", "failure"):
        with pytest.raises(AlreadyTombstone):
            reinforce(store, "a", outcome)
    assert store.snapshot_json() == before
