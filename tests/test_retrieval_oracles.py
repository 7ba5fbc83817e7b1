"""Hybrid retrieval against its reference: the walk over the adjacency map
and the graph pathway that weighs each sleep's memories as a group must
give exactly the hits of the walk that scanned every co-occurrence edge
and weighed every reached memory on its own, and the one episodic pass the
hits of one full scan per tier. Stores come from ingest and
`dedup`/`aggressive` sleeps spread over weeks, so that graph memories are
silent, mature, or created after the query's `now`; some are
reconsolidated before the queries, and records ingested after the last
sleep stay in the hot tier. Their embeddings are the sparse `HashEmbedder`
vectors or dense Gaussian ones, which take the embedding index's other
product. Other stores get their graph memories inserted one by one, so
that a walk reaches a sleep's memories only in part, matured memories
share source ids with each other and with episodic hits, and more matured
memories than k tie at the k-th score. Every `Hit` field, floats
included, must be equal, and so must each tier's episodic scan and its
definition. The budget comes from the loaded Hypothesis profile (see
conftest.py)."""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from engram.consolidation import MODE_AGGRESSIVE, MODE_DEDUP, run_consolidation
from engram.embedding import normalize
from engram.graph import priming_weight
from engram.model import TIER_HOT, TIER_WARM, StoreConfig, evolve
from engram.retrieval import (
    TIER_GRAPH,
    _episodic_scan,
    hybrid_retrieve,
    open_lability,
    reconsolidate,
)
from engram.store import MemoryStore

from conftest import T0, hours, make_event, minutes
from oracles import hybrid_reference, scan_oracle

NAMES = ["Alice", "Bob", "Carol", "Kestrel", "Orion", "@dana", "#42"]
PLAIN = ["deploy", "release", "notes", "shipped", "alpha", "beta"]

contents = st.lists(st.sampled_from(NAMES + PLAIN), min_size=2, max_size=6).map(" ".join)
# (contents of one session, the sleep's mode, hours before the session)
sleeps = st.lists(st.tuples(st.lists(contents, min_size=1, max_size=6),
                            st.sampled_from([MODE_DEDUP, MODE_AGGRESSIVE]),
                            st.integers(0, 240)),
                  min_size=1, max_size=4)
# (which graph memory, new content, confidence)
relearns = st.lists(st.tuples(st.integers(0, 50), contents,
                              st.floats(0.0, 1.0, allow_nan=False)),
                    max_size=3)
# (query, k, `now` as (which sleep, hours after it) or None for the logical
# now, session); k up to 30 keeps every hit of most stores, so that no graph
# hit or priming boost is cut off
queries = st.lists(st.tuples(contents, st.integers(1, 30),
                             st.one_of(st.none(), st.tuples(st.integers(0, 3),
                                                            st.integers(-30, 400))),
                             st.sampled_from([None, "s0", "s1", "elsewhere"])),
                   min_size=1, max_size=4)


class GaussianEmbedder:
    """A dense stand-in for a remote embedder: a unit Gaussian vector
    seeded by the text's sha256, so that no entry of a query is zero."""

    dimension = 24

    def embed(self, text: str) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")
        return normalize(np.random.default_rng(seed).standard_normal(self.dimension))


def build_store(sessions, relearned, maturation, embedder=None, pending=()):
    """A store fed `sessions`, each consolidated 20 minutes after its last
    event, with the `relearned` graph memories reconsolidated at the end
    and the `pending` contents ingested after it, into the hot tier.
    Returns the store and the time of each sleep."""
    store = MemoryStore(StoreConfig(cluster_distance=0.8,
                                    maturation_enabled=maturation), embedder)
    clock, serial, slept = T0, 0, []
    for texts, mode, gap in sessions:
        clock += hours(gap)
        for text in texts:
            clock += minutes(1)
            serial += 1
            store.ingest(make_event(f"e{serial}", ts=clock, session=f"s{serial % 2}",
                                    content=text))
        slept.append(clock + minutes(20))
        run_consolidation(store, slept[-1], mode=mode)
    memory_ids = sorted(store.graph.memories)
    for pick, text, confidence in relearned:
        if memory_ids:
            handle = open_lability(store, memory_ids[pick % len(memory_ids)], clock)
            reconsolidate(store, handle, text, confidence, clock)
    for text in pending:
        clock += minutes(1)
        serial += 1
        store.ingest(make_event(f"e{serial}", ts=clock, session=f"s{serial % 2}",
                                content=text))
    return store, slept


def assert_matches_reference(store, query, k, now, session):
    got = hybrid_retrieve(store, query, k, now, session_id=session)
    want = hybrid_reference(store, query, k, now, session_id=session)
    assert got == want
    qvec = store.embedder.embed(query)
    for tier, in_session in ((TIER_HOT, session), (TIER_WARM, None), (None, None)):
        assert _episodic_scan(store, qvec, k, got.as_of, tier=tier, session_id=in_session) \
            == scan_oracle(store, qvec, k, got.as_of, tier=tier, session_id=in_session)
    return got


@given(sessions=sleeps, relearned=relearns, asked=queries, maturation=st.booleans(),
       dense=st.booleans(), pending=st.lists(contents, max_size=4))
@example(sessions=[(["Alice deploy Kestrel", "Alice Kestrel release"], MODE_AGGRESSIVE, 0),
                   (["Bob Orion notes", "Alice Orion shipped"], MODE_AGGRESSIVE, 200)],
         relearned=[(1, "Alice Orion moved", 0.9)],
         asked=[("Alice Kestrel", 6, (1, 0), None), ("Orion", 4, (1, -1), "s1")],
         maturation=True, dense=False, pending=[])
def test_hybrid_retrieve_equals_the_reference(sessions, relearned, asked, maturation,
                                              dense, pending):
    store, slept = build_store(sessions, relearned, maturation,
                               GaussianEmbedder() if dense else None, pending)
    for query, k, when, session in asked:
        now = None if when is None else slept[when[0] % len(slept)] + hours(when[1])
        assert_matches_reference(store, query, k, now, session)


def test_reference_scenario_reaches_every_graph_branch():
    """The hand-built case takes every branch of the graph pathway: a
    memory two sleeps old surfaces one hop away as a graph hit, one from
    the last sleep but one stays silent and primes the episodic hit sharing
    its entity, and the last sleep's memory, created after `now`, is
    skipped."""
    store, slept = build_store(
        [(["Kestrel launch window", "Kestrel fuel check", "Kestrel crew roster"],
          MODE_AGGRESSIVE, 0),
         (["Orion launch window with Kestrel pad", "Orion fuel check for Kestrel crew"],
          MODE_AGGRESSIVE, 300),
         (["Orion alpha", "Alice beta"], MODE_DEDUP, 1)],
        [], maturation=True)
    assert store.graph.neighbors("orion") == [("kestrel", 1)]
    now = slept[-1] - minutes(20)  # the last event
    assert max(m.created_at for m in store.graph.memories.values()) > now
    hits = assert_matches_reference(store, "Orion alpha", 4, now, None).hits
    assert [(h.memory_id, h.tier, h.hop_distance) for h in hits] == \
        [("e6", "warm", None), ("e7", "warm", None), ("sem-000000", TIER_GRAPH, 1)]
    assert hits[0].priming_boost > 1.0


def test_memories_of_one_sleep_each_prime_their_own_entities():
    """Two silent memories from one sleep share a priming weight but not an
    entity: each primes the episodic hit that names its own entity."""
    store, slept = build_store(
        [(["Kestrel launch window opens", "Kestrel fuel check done",
           "Orion crew roster ready", "Orion cargo list final"], MODE_AGGRESSIVE, 0),
         (["Kestrel status", "Orion status"], MODE_DEDUP, 1)],
        [], maturation=True)
    now = slept[-1] - minutes(20)  # the last event
    first, second = (store.graph.memories[m] for m in ("sem-000000", "sem-000001"))
    assert (first.entities, second.entities) == (("Kestrel",), ("Orion",))
    assert first.created_at == second.created_at
    assert priming_weight(first.created_at, now, store.config) > 0.0
    hits = assert_matches_reference(store, "Kestrel Orion status", 4, now, None).hits
    assert sorted(h.memory_id for h in hits) == ["e5", "e6"]
    assert all(h.priming_boost > 1.0 for h in hits)


# Graphs built memory by memory. A memory names one step of a path of
# entities or one of a second component, so a walk from one seed reaches a
# sleep's memories only in part when they lie in the other component or
# more than `max_hops` steps along the path. Source ids come from a small
# pool holding the records' ids, so memories share them with each other
# and with episodic hits. Gists come from a few texts, so several matured
# memories of one sleep score the same, and a small k cuts inside a tie.
PATH = ["Alice", "Bob", "Carol", "Dana", "Eve"]
STEPS = [tuple(PATH[i:i + 2]) for i in range(len(PATH) - 1)] + \
    [("Alice",), ("Eve",), ("Orion",), ("Orion", "Kestrel")]
GISTS = ["deploy notes", "release notes", "alpha deploy", "beta shipped notes"]
SOURCES = ["e1", "e2", "e3", "x1", "x2", "x3"]
NOW = T0 + hours(500)
# (gist, entities, source ids, hours before NOW): 0 and 60 are silent, 200
# and 400 matured, -5 after NOW
memories = st.lists(st.tuples(st.sampled_from(GISTS), st.sampled_from(STEPS),
                              st.frozensets(st.sampled_from(SOURCES), min_size=1,
                                            max_size=2),
                              st.sampled_from([0, 60, 200, 400, -5])),
                    max_size=14)
records = st.lists(st.tuples(st.lists(st.sampled_from(PATH + ["Orion"] + PLAIN),
                                      min_size=1, max_size=4).map(" ".join),
                             st.booleans()),
                   min_size=1, max_size=3)


def graph_store(contents, mems, maturation=True):
    """A store with a record `e{i}` per (content, warm) pair, encoded a
    minute apart from T0 and moved to the warm tier when `warm`, and the
    graph memories (gist, entities, source ids, hours before NOW) inserted
    straight into its graph."""
    store = MemoryStore(StoreConfig(maturation_enabled=maturation))
    for i, (text, warm) in enumerate(contents, start=1):
        rec = store.ingest(make_event(f"e{i}", ts=T0 + minutes(i), content=text))
        if warm:
            store.records[rec.id] = evolve(rec, tier=TIER_WARM)
    for gist, names, sources, age in mems:
        store.graph.insert_memory(gist, store.embedder.embed(gist), sources, names,
                                  NOW - hours(age))
    return store


@given(contents=records, mems=memories, maturation=st.booleans(),
       asked=st.lists(st.tuples(st.sampled_from(GISTS + PATH + ["Orion notes"]),
                                st.integers(1, 5)), min_size=1, max_size=3))
@example(contents=[("Alice deploy", False), ("Eve deploy notes", True)],
         mems=[("deploy notes", ("Alice", "Bob"), frozenset({"x1"}), 60),
               ("release notes", ("Eve",), frozenset({"x2"}), 60),
               ("deploy notes", ("Bob",), frozenset({"x1", "x3"}), 200),
               ("deploy notes", ("Alice",), frozenset({"e2"}), 200),
               ("deploy notes", ("Alice",), frozenset({"x2"}), 400),
               ("deploy notes", ("Alice",), frozenset({"x3"}), 400)],
         maturation=True, asked=[("deploy notes", 2)])
def test_graph_pathway_equals_the_reference(contents, mems, maturation, asked):
    store = graph_store(contents, mems, maturation)
    for query, k in asked:
        assert_matches_reference(store, query, k, NOW, None)


def test_a_partly_reached_sleep_primes_with_its_reached_members_only():
    """Two silent memories of one sleep: the walk from Alice reaches the
    one naming Alice and Bob, not the one naming Eve in another component.
    The warm hit naming Eve is not a seed at k = 2, and no reached memory
    primes it."""
    store = graph_store(
        [("Alice deploy release", False), ("Alice notes", False),
         ("Eve deploy release", True)],
        [("Alice Bob summary", ("Alice", "Bob"), frozenset({"x1"}), 60),
         ("Eve summary", ("Eve",), frozenset({"x2"}), 60)])
    hits = assert_matches_reference(store, "deploy release", 2, NOW, None).hits
    assert [(h.memory_id, h.priming_boost > 1.0) for h in hits] == \
        [("e1", True), ("e3", False)]


def test_a_gist_sharing_a_source_with_one_taken_before_it_is_skipped():
    """Three matured memories reached at hop 0: the first is taken, the
    second shares its source x1 and is skipped, and the third shares a
    source with the episodic hit e1 and is skipped too."""
    store = graph_store(
        [("Alice", False)],
        [("deploy notes", ("Alice",), frozenset({"x1"}), 400),
         ("deploy notes", ("Alice",), frozenset({"x1", "x2"}), 400),
         ("deploy notes", ("Alice",), frozenset({"e1", "x3"}), 400)])
    hits = assert_matches_reference(store, "deploy notes", 5, NOW, None).hits
    assert [h.memory_id for h in hits] == ["sem-000000", "e1"]


def test_graph_hits_tied_at_the_kth_score_are_cut_by_the_rank_key():
    """Four matured memories of one sleep with one gist tie on the final
    score, below a later memory with the same gist and a larger recency
    boost. At k = 2 the cut falls inside the tie and keeps the one the
    merged ranking puts first, the lowest id; at k = 3 it keeps two."""
    store = graph_store(
        [("Alice", False)],
        [("deploy notes", ("Alice",), frozenset({f"x{i}"}), 400) for i in range(4)]
        + [("deploy notes", ("Alice",), frozenset({"x9"}), 200)])
    hits = assert_matches_reference(store, "deploy notes", 2, NOW, None).hits
    assert [h.memory_id for h in hits] == ["sem-000004", "sem-000000"]
    hits = assert_matches_reference(store, "deploy notes", 3, NOW, None).hits
    assert [h.memory_id for h in hits] == ["sem-000004", "sem-000000", "sem-000001"]
    assert hits[0].final_score > hits[1].final_score == hits[2].final_score
