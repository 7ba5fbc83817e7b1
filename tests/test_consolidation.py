import math
import random
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engram import consolidation
from engram.consolidation import (
    MODE_AGGRESSIVE,
    MODE_NONE,
    REASON_CAUSAL_INVERSION,
    REASON_OUT_OF_ORDER,
    _pair_distances,
    cluster,
    exact_dedup,
    make_gist,
    near_dedup,
    promote,
    run_consolidation,
    validate_temporal,
)
from engram.embedding import HashEmbedder
from engram.errors import DuplicateId
from engram.forgetting import degrade, run_forgetting
from engram.graph import KnowledgeGraph
from engram.model import (
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    TIER_WARM,
    EpisodicRecord,
    FidelityLevel,
    StoreConfig,
)
from engram.retrieval import open_lability, reconsolidate
from engram.store import MemoryStore

from conftest import T0, assert_tombstone_of, hours, make_event, make_record, minutes
from oracles import cluster_reference

EMB = HashEmbedder(256, 0)


def _random_records(n, seed, vocab=200, words=8):
    """Seeded records over a smallish vocabulary so collisions/similarities
    actually occur."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        content = " ".join(f"w{rng.randrange(vocab)}" for _ in range(words))
        out.append(make_record(EMB, f"r{i:03d}", content,
                               ts=T0 + minutes(i), importance=rng.random()))
    return out


# -- temporal validation --------------------------------------------------

def test_validate_temporal_admits_in_order():
    events = [make_event(f"e{i}", ts=T0 + minutes(i)) for i in range(5)]
    admitted_ids = set()
    admitted, anomalous, wm = validate_temporal(events, None, admitted_ids)
    assert [e.id for e in admitted] == [e.id for e in events]
    assert anomalous == []
    assert wm == events[-1].timestamp


def test_validate_temporal_flags_out_of_order_beyond_skew():
    late_ok = make_event("ok", ts=T0 - minutes(4))     # within 5-min skew
    too_late = make_event("late", ts=T0 - minutes(6))
    admitted, anomalous, _ = validate_temporal(
        [late_ok, too_late], watermark=T0, admitted_ids=set())
    assert [e.id for e in admitted] == ["ok"]
    assert anomalous == [(too_late, REASON_OUT_OF_ORDER)]


def test_validate_temporal_flags_unseen_cause():
    a = make_event("a", ts=T0)
    b = make_event("b", ts=T0 + minutes(1), causes=("a",))
    c = make_event("c", ts=T0 + minutes(2), causes=("ghost",))
    admitted, anomalous, _ = validate_temporal(
        [a, b, c], watermark=None, admitted_ids=set())
    assert [e.id for e in admitted] == ["a", "b"]
    assert anomalous == [(c, REASON_CAUSAL_INVERSION)]


def test_validate_temporal_cause_in_same_batch_order_matters():
    b = make_event("b", ts=T0 + minutes(1), causes=("a",))
    a = make_event("a", ts=T0)
    admitted, anomalous, _ = validate_temporal(
        [b, a], watermark=None, admitted_ids=set())
    # arrival order: b cites a before a was admitted
    assert [e.id for e in admitted] == ["a"]
    assert [(e.id, r) for e, r in anomalous] == [("b", REASON_CAUSAL_INVERSION)]


# -- exact dedup ----------------------------------------------------------

def test_exact_dedup_keeps_earliest_and_merges():
    a = make_record(EMB, "a", "same text", ts=T0 + minutes(1))
    b = make_record(EMB, "b", "same text", ts=T0)
    c = make_record(EMB, "c", "different entirely", ts=T0 + minutes(2))
    survivors, removed = exact_dedup([a, b, c])
    assert [r.id for r in survivors] == ["b", "c"]
    assert [r.id for r in removed] == ["a"]
    b2 = survivors[0]
    assert set(b2.source_ids) == {"a", "b"}
    assert b2.access_count == 1


def exact_dedup_oracle(batch):
    """Brute force: group by content, earliest (ts, id) survives."""
    groups = {}
    for rec in batch:
        groups.setdefault(rec.content, []).append(rec)
    survivors, removed = set(), set()
    for members in groups.values():
        members = sorted(members, key=lambda r: (r.event.timestamp, r.id))
        survivors.add(members[0].id)
        removed.update(r.id for r in members[1:])
    return survivors, removed


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 60))
def test_exact_dedup_matches_oracle(seed, n):
    batch = _random_records(n, seed, vocab=5, words=2)  # force collisions
    survivors, removed = exact_dedup(batch)
    oracle_s, oracle_r = exact_dedup_oracle(batch)
    assert {r.id for r in survivors} == oracle_s
    assert {r.id for r in removed} == oracle_r


# -- near dedup -----------------------------------------------------------

def near_dedup_oracle(batch, threshold):
    """O(n^2) reference: walk timestamp order, keep a record only if no kept
    record is similar at/above threshold."""
    ordered = sorted(batch, key=lambda r: (r.event.timestamp, r.id))
    kept = []
    removed = []
    for rec in ordered:
        if any(float(np.dot(k.embedding, rec.embedding)) >= threshold
               for k in kept):
            removed.append(rec.id)
        else:
            kept.append(rec)
    return [r.id for r in kept], removed


def test_near_dedup_matches_oracle_200_records():
    batch = _random_records(200, seed=11, vocab=60, words=8)
    survivors, removed = near_dedup(batch, 0.559)
    oracle_kept, oracle_removed = near_dedup_oracle(batch, 0.559)
    assert [r.id for r in survivors] == oracle_kept
    assert [r.id for r in removed] == oracle_removed


def test_near_dedup_survivor_merges_sources_and_importance():
    a = make_record(EMB, "a", "red green blue yellow", ts=T0, importance=0.2)
    b = make_record(EMB, "b", "red green blue yellow purple", ts=T0 + minutes(1),
                    importance=0.9)
    survivors, removed = near_dedup([a, b], 0.559)
    assert [r.id for r in survivors] == ["a"]
    assert [r.id for r in removed] == ["b"]
    assert set(survivors[0].source_ids) == {"a", "b"}
    assert survivors[0].importance == 0.9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([0.4, 0.559, 0.7]))
def test_near_dedup_invariants(seed, threshold):
    """Survivors are pairwise below the threshold, and every removed record
    was absorbed into exactly one survivor's source set."""
    batch = _random_records(40, seed, vocab=40, words=6)
    survivors, removed = near_dedup(batch, threshold)
    for i, a in enumerate(survivors):
        for b in survivors[i + 1:]:
            assert float(np.dot(a.embedding, b.embedding)) < threshold
    absorbed = [src for r in survivors for src in r.source_ids
                if src != r.id]
    assert sorted(absorbed) == sorted(r.id for r in removed)


# -- clustering -----------------------------------------------------------

def cluster_oracle(batch, cutoff):
    """Naive O(n^3) average-linkage: recompute every pair average from raw
    distances each round; ties broken by smallest sorted id pair."""
    records = sorted(batch, key=lambda r: r.id)
    dist0 = {}
    for i, a in enumerate(records):
        for j in range(i + 1, len(records)):
            b = records[j]
            dist0[(a.id, b.id)] = 1.0 - float(np.dot(a.embedding, b.embedding))

    def raw(x, y):
        return dist0[(x, y)] if (x, y) in dist0 else dist0[(y, x)]

    clusters = {r.id: [r.id] for r in records}
    while len(clusters) > 1:
        best_key, best_d = None, None
        names = sorted(clusters)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                d = math.fsum(raw(x, y) for x in clusters[a]
                              for y in clusters[b]) / (
                    len(clusters[a]) * len(clusters[b]))
                if best_d is None or (d, (a, b)) < (best_d, best_key):
                    best_key, best_d = (a, b), d
        if best_d > cutoff:
            break
        a, b = best_key
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return sorted(sorted(m) for m in clusters.values())


def test_cluster_matches_oracle_200_records():
    batch = _random_records(200, seed=13, vocab=50, words=8)
    got = [sorted(r.id for r in grp) for grp in cluster(batch, 0.404)]
    assert sorted(got) == cluster_oracle(batch, 0.404)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([0.2, 0.404, 0.6, 0.9]))
def test_cluster_matches_oracle_random(seed, cutoff):
    batch = _random_records(25, seed, vocab=30, words=6)
    got = [sorted(r.id for r in grp) for grp in cluster(batch, cutoff)]
    assert sorted(got) == cluster_oracle(batch, cutoff)


def test_cluster_small_inputs():
    assert cluster([], 0.4) == []
    one = _random_records(1, 0)
    assert [[r.id for r in g] for g in cluster(one, 0.4)] == [["r000"]]


def test_cluster_partition_property():
    batch = _random_records(60, seed=3, vocab=30, words=6)
    groups = cluster(batch, 0.404)
    ids = sorted(r.id for g in groups for r in g)
    assert ids == sorted(r.id for r in batch)


class ScaledEmbedder:
    """HashEmbedder vectors scaled off unit norm by a factor drawn from the
    text, so that distances fall outside [0, 2]; equal texts still embed
    equally."""

    SCALES = (0.25, 0.7, 1.0, 1.9, 4.0)

    def embed(self, text):
        return EMB.embed(text) * self.SCALES[len(text) % len(self.SCALES)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 60),
       st.sampled_from([0.0, 0.404, 0.5, 0.8, 2.5]), st.booleans())
def test_cluster_equals_reference(data, n, cutoff, scaled):
    embedder = ScaledEmbedder() if scaled else EMB
    vocab = data.draw(st.integers(3, 30), label="vocab")
    ids = data.draw(st.permutations(range(n)), label="ids")
    contents: list[str] = []
    batch = []
    for k in range(n):
        if contents and data.draw(st.integers(0, 3)) == 0:
            content = data.draw(st.sampled_from(contents))  # an exact tie
        else:
            words = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1,
                                       max_size=6))
            content = " ".join(f"w{w}" for w in words)
        contents.append(content)
        batch.append(EpisodicRecord(event=make_event(f"r{ids[k]:02d}", content=content),
                                    embedding=embedder.embed(content)))
    got = [[r.id for r in g] for g in cluster(batch, cutoff)]
    assert got == [[r.id for r in g] for g in cluster_reference(batch, cutoff)]


def test_cluster_averages_are_exact_sums():
    """r3 and r4 lie at the same three distances from {r0, r1, r2}, in
    opposite member order: the exact averages tie and the smaller id wins.
    Summing the distances in merge order in float64 breaks the tie the
    other way, and r4 would join the cluster instead."""
    a, b, c = 0.49, 0.065, 0.31
    vectors = [[1, 0, 0, 0.9, 0], [0, 1, 0, 0.9, 0], [0, 0, 1, 0.9, 0],
               [a, b, c, 0.3, 1.0], [c, b, a, 0.3, -1.0]]
    batch = [EpisodicRecord(event=make_event(f"r{k}"), embedding=np.array(v, dtype=float))
             for k, v in enumerate(vectors)]
    want = [["r0", "r1", "r2", "r3"], ["r4"]]
    assert [[r.id for r in g] for g in cluster_reference(batch, 0.5)] == want
    assert [[r.id for r in g] for g in cluster(batch, 0.5)] == want


@pytest.mark.parametrize("dim", [1, 7, 64, 256, 1000])
def test_pair_distances_equal_per_pair_dot(dim):
    """`cluster` relies on each row-wise (1, d) @ (d, 1) product being the
    `np.dot` of the two rows, bit for bit."""
    rng = np.random.default_rng(dim)
    emb = rng.standard_normal((40, dim)) * rng.uniform(0.01, 100.0, (40, 1))
    got = _pair_distances(emb)
    for i in range(40):
        for j in range(40):
            want = 1.0 - float(np.dot(emb[i], emb[j])) if i < j else math.inf
            assert got[i, j].hex() == want.hex(), (i, j)


# -- gist + promotion -----------------------------------------------------

def test_make_gist_top_m_by_importance():
    config = StoreConfig()
    recs = [make_record(EMB, f"g{i}", f"note number {i}", ts=T0 + minutes(i),
                        importance=i / 10) for i in range(5)]
    draft = make_gist(recs, config)
    # top-3 by importance: g4, g3, g2
    assert draft.gist == "note number 4\nnote number 3\nnote number 2"
    assert draft.source_ids == frozenset({f"g{i}" for i in range(5)})


def test_make_gist_truncates_to_token_cap():
    config = StoreConfig(gist_max_tokens=4)
    recs = [make_record(EMB, "g", "x" * 100, importance=1.0)]
    draft = make_gist(recs, config)
    assert len(draft.gist) == 16  # 4 tokens * 4 chars


def test_promote_idempotent_by_source_set():
    g = KnowledgeGraph()
    config = StoreConfig()
    recs = [make_record(EMB, "p1", "Alice fixed the bug", importance=1.0)]
    draft = make_gist(recs, config)
    m1 = promote(draft, g, EMB, T0)
    m2 = promote(draft, g, EMB, T0 + hours(5))
    assert m1 is m2
    assert len(g.memories) == 1
    assert m1.created_at == T0  # maturation clock not reset


# -- full pipeline --------------------------------------------------------

def _ingest(store, events):
    for ev in events:
        store.ingest(ev)


def test_run_consolidation_accounting(store):
    events = [make_event(f"e{i}", ts=T0 + minutes(i),
                         content=f"item {i} " +
                         " ".join(f"u{i}{j}" for j in range(6)))
              for i in range(10)]
    events.append(make_event("dup", ts=T0 + minutes(10),
                             content=events[3].content))
    _ingest(store, events)
    report = run_consolidation(store, T0 + hours(1))
    assert report.input_count == 11
    assert report.accounting_holds()
    assert report.exact_dups_removed == 1
    assert report.near_dups_removed == 0
    # classification buckets computed over all 11, one lost to dedup
    assert report.promoted + report.retained + report.pruned == 10
    assert math.floor(0.2 * 11) - 1 <= report.pruned <= math.floor(0.2 * 11)
    assert report.promoted >= math.ceil(0.2 * 11) - 1


def test_run_consolidation_state_transitions(store):
    _ingest(store, [make_event(f"e{i}", ts=T0 + minutes(i),
                               content=f"completely distinct payload {i} "
                                       + " ".join(f"t{i}{j}" for j in range(6)))
                    for i in range(5)])
    run_consolidation(store, T0 + hours(1))
    states = {r.state for r in store.records.values()}
    assert STATE_PENDING not in states
    assert states <= {STATE_RETAINED, STATE_PROMOTED, STATE_TOMBSTONE}
    for r in store.records.values():
        if r.state in (STATE_RETAINED, STATE_PROMOTED):
            assert r.tier == "warm"


def test_run_consolidation_second_run_is_noop(store):
    _ingest(store, [make_event(f"e{i}", ts=T0 + minutes(i),
                               content=f"payload {i} " +
                               " ".join(f"q{i}{j}" for j in range(6)))
                    for i in range(8)])
    run_consolidation(store, T0 + hours(1))
    before = store.snapshot_json()
    report = run_consolidation(store, T0 + hours(1))
    assert report.input_count == 0
    assert report.accounting_holds()
    # second pass admits nothing and changes no record (batch counter aside)
    after_store = MemoryStore.from_state_dict(
        __import__("json").loads(store.snapshot_json()))
    after_store.batch_seq = 0
    before_store = MemoryStore.from_state_dict(__import__("json").loads(before))
    before_store.batch_seq = 0
    assert before_store.snapshot_json() == after_store.snapshot_json()


def test_a_sleep_takes_the_records_encoded_by_its_now(store):
    _ingest(store, [make_event(f"e{i}", ts=T0 + hours(i),
                               content=f"payload {i} " +
                               " ".join(f"p{i}{j}" for j in range(6)))
                    for i in range(6)])
    past = T0 + hours(2) + minutes(30)
    first = run_consolidation(store, past)
    assert first.input_count == 3 and first.accounting_holds()
    later = ["e3", "e4", "e5"]
    assert [r.id for r in store.records.values() if r.state == STATE_PENDING] == later
    # forgetting at the same past `now` ranks only the records encoded by then
    pending = [store.records[k] for k in later]
    run_forgetting(store, past, budget=1)
    assert [store.records[k] for k in later] == pending
    rest = run_consolidation(store, T0 + hours(6))
    assert rest.input_count == 3 and rest.accounting_holds()
    assert all(r.state != STATE_PENDING for r in store.records.values())


def test_run_consolidation_quarantines_and_readmits(store):
    a = make_event("a", ts=T0, content="alpha base event")
    b = make_event("b", ts=T0 + minutes(1), causes=("a",),
                   content="beta follows alpha")
    orphan = make_event("orphan", ts=T0 + minutes(2), causes=("missing",),
                        content="cites a ghost")
    _ingest(store, [a, b, orphan])
    r1 = run_consolidation(store, T0 + hours(1))
    assert r1.quarantined == 1
    assert "orphan" in store.quarantine
    assert store.records.get("orphan") is None
    # quarantine expires (15 min) with the cause still missing: dropped
    r2 = run_consolidation(store, T0 + hours(2))
    assert r2.quarantine_dropped == ["orphan"]
    assert "orphan" not in store.quarantine


def test_run_consolidation_readmits_resolved_causal_inversion(store):
    late_child = make_event("child", ts=T0, causes=("parent",),
                            content="refers to the parent event")
    _ingest(store, [late_child])
    run_consolidation(store, T0 + minutes(1))
    assert "child" in store.quarantine

    # parent arrives and is admitted while the child is still quarantined
    parent = make_event("parent", ts=T0 + minutes(2),
                        content="the parent arrives late")
    _ingest(store, [parent])
    run_consolidation(store, T0 + minutes(10))
    assert "child" in store.quarantine
    assert "parent" in store.admitted_ids

    # next batch after quarantine expiry re-validates and re-admits
    report = run_consolidation(store, T0 + hours(1))
    assert "child" not in store.quarantine
    assert store.records["child"].state in (STATE_RETAINED, STATE_PROMOTED)
    assert report.accounting_holds()
    assert store.total_ingested == 2  # re-admission is not new input


@pytest.mark.parametrize("offset_s, reused", [
    (1, "the y event text"),  # removed as y's copy: re-admission found the id taken
    (-1, "an unrelated note"),  # retained: re-admission moved it retained -> promoted
])
def test_a_reused_quarantined_id_never_stops_consolidation(store, offset_s, reused):
    x = make_event("x", ts=T0, causes=("c",), content="x cites c before c arrives")
    store.ingest(x)
    run_consolidation(store, T0 + minutes(1))
    assert "x" in store.quarantine
    store.ingest(make_event("y", ts=T0 + minutes(2), content="the y event text"))
    with pytest.raises(DuplicateId):
        store.ingest(make_event("x", ts=T0 + minutes(2) + timedelta(seconds=offset_s),
                                content=reused))
    store.ingest(make_event("c", ts=T0 + minutes(3), content="c is the cause"))
    run_consolidation(store, T0 + minutes(4))
    # the quarantine expires at 16 min: x is re-admitted, and every later
    # sleep still runs
    for at in (minutes(25), minutes(50), hours(3)):
        report = run_consolidation(store, T0 + at)
        assert report.accounting_holds()
    assert "x" not in store.quarantine
    assert store.records["x"].event.causes == ("c",)
    assert store.total_ingested == 3


def test_run_consolidation_dedups_against_existing_store(store):
    _ingest(store, [make_event("orig", ts=T0, content="the canonical statement")])
    run_consolidation(store, T0 + hours(1))
    _ingest(store, [make_event("copy", ts=T0 + hours(2),
                               content="the canonical statement")])
    report = run_consolidation(store, T0 + hours(3))
    assert report.exact_dups_removed == 1
    assert "copy" not in store.records
    assert "copy" in store.records["orig"].source_ids


def test_dedup_finds_a_degraded_stored_record_by_its_content(store):
    # a degraded record keeps the embedding of its full text, so a new copy
    # of its shortened text is no near candidate; it is still an exact copy
    full = "supercalifragilisticexpialidocious antidisestablishmentarianism x1 x2 x3 x4"
    stored = replace(make_record(store.embedder, "orig", full, ts=T0),
                     state=STATE_RETAINED, tier=TIER_WARM)
    store.records["orig"] = stored = degrade(stored)
    assert stored.fidelity == FidelityLevel.L1 and stored.content != full
    copy = store.ingest(make_event("copy", ts=T0 + hours(2), content=stored.content))
    assert float(np.dot(copy.embedding, stored.embedding)) < store.config.near_dedup_threshold
    report = run_consolidation(store, T0 + hours(3))
    assert report.exact_dups_removed == 1 and report.near_dups_removed == 0
    assert report.removed_existing == 0
    assert "copy" not in store.records
    assert store.records["orig"].source_ids == ("orig", "copy")
    assert store.records["orig"].access_count == stored.access_count + 1


def test_dedup_never_removes_a_stored_record_for_a_new_copy(store):
    # `a` arrives after `b` is stored, stamped earlier but inside the skew
    # tolerance: the stored record survives and absorbs the new copy
    _ingest(store, [make_event("b", ts=T0 + minutes(3),
                               content="the canonical statement")])
    run_consolidation(store, T0 + hours(1))
    assert store.records["b"].state == STATE_PROMOTED
    _ingest(store, [make_event("a", ts=T0, content="the canonical statement")])
    report = run_consolidation(store, T0 + hours(1))
    assert report.removed_existing == 0
    assert report.exact_dups_removed == 1
    assert report.accounting_holds()
    assert "a" not in store.records
    assert store.records["b"].state == STATE_PROMOTED
    assert store.records["b"].source_ids == ("b", "a")


def test_dedup_keeps_two_stored_records_that_became_equal(store):
    # reconsolidation gives the stored `a` the promoted `b`'s content; the
    # next sleep decides only its (empty) batch and removes neither
    fillers = [make_event(f"f{i}", ts=T0 + minutes(2 + i),
                          content=f"filler note {i} about lunch plans")
               for i in range(8)]
    _ingest(store, [make_event("a", ts=T0, content="the deploy moved to friday after review"),
                    make_event("b", ts=T0 + minutes(1),
                               content="kestrel billing invoices are late again")] + fillers)
    run_consolidation(store, T0 + hours(1))
    assert store.records["a"].state == STATE_RETAINED
    assert store.records["b"].state == STATE_PROMOTED
    handle = open_lability(store, "a", T0 + hours(1))
    reconsolidate(store, handle, store.records["b"].content, 1.0, T0 + hours(1))
    assert store.records["a"].content == store.records["b"].content
    report = run_consolidation(store, T0 + hours(2))
    assert report.removed_existing == 0
    assert report.accounting_holds()
    assert store.records["b"].state == STATE_PROMOTED
    assert store.records["a"].source_ids == ("a",)
    assert store.records["b"].source_ids == ("b",)


def test_mode_none_keeps_everything(store):
    _ingest(store, [make_event(f"e{i}", ts=T0 + minutes(i),
                               content="identical content every time")
                    for i in range(6)])
    report = run_consolidation(store, T0 + hours(1), mode=MODE_NONE)
    assert report.retained == 6
    assert report.removed == 0
    assert store.active_count() == 6


def test_mode_aggressive_merges_clusters(store):
    config = store.config
    base = "alpha beta gamma delta epsilon zeta"
    _ingest(store, [
        make_event("c1", ts=T0, content=base + " one"),
        make_event("c2", ts=T0 + minutes(1), content=base + " two"),
        make_event("c3", ts=T0 + minutes(2),
                   content="wholly unrelated payload qq ww ee rr tt yy"),
    ])
    # keep near-dedup out of the way so clustering does the merging
    config.near_dedup_threshold = 0.99
    report = run_consolidation(store, T0 + hours(1), mode=MODE_AGGRESSIVE)
    assert report.clusters_formed == 1
    assert store.records["c1"].state == STATE_TOMBSTONE
    assert store.records["c2"].state == STATE_TOMBSTONE
    merged = [m for m in store.graph.memories.values()
              if m.source_ids >= {"c1", "c2"}]
    assert len(merged) == 1


def test_merged_cluster_members_become_tombstones_of_existence_metadata(monkeypatch):
    # at the shipped cluster_distance, 0.404, a pair close enough to merge is
    # already a near duplicate; at 0.8 the pair below merges
    store = MemoryStore(StoreConfig(cluster_distance=0.8))
    _ingest(store, [
        make_event("c1", ts=T0, content="Alice shipped the Kestrel release notes"),
        make_event("c2", ts=T0 + minutes(1), content="Bob reviewed the Kestrel deploy plan"),
    ])
    scored = {}
    write = store.replace

    def spy(record):
        if record.state != STATE_TOMBSTONE:
            scored[record.id] = record
        write(record)

    monkeypatch.setattr(store, "replace", spy)
    report = run_consolidation(store, T0 + hours(1), mode=MODE_AGGRESSIVE)
    assert report.clusters_formed == 1 and report.near_dups_removed == 0
    for rid in ("c1", "c2"):
        assert scored[rid].entities and scored[rid].score_breakdown
        assert_tombstone_of(store, scored[rid])


def test_run_consolidation_rolls_back_on_failure(store, monkeypatch):
    _ingest(store, [make_event(f"e{i}", ts=T0 + minutes(i),
                               content=f"row {i} " +
                               " ".join(f"z{i}{j}" for j in range(5)))
                    for i in range(5)])
    before = store.snapshot_json()
    real = consolidation.score_record
    calls = []

    def fail_third(*args):
        calls.append(args[0].id)
        if len(calls) == 3:
            # two scored records of the batch are already written
            assert store.snapshot_json() != before
            raise RuntimeError("scoring failed")
        return real(*args)

    monkeypatch.setattr(consolidation, "score_record", fail_third)
    with pytest.raises(RuntimeError, match="scoring failed"):
        run_consolidation(store, T0 + hours(1))
    assert len(calls) == 3
    assert store.snapshot_json() == before


def test_unknown_mode_rejected(store):
    for mode in ("nope", "dedup-adaptive"):
        with pytest.raises(ValueError):
            run_consolidation(store, T0, mode=mode)
