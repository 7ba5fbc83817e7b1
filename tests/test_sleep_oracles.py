"""The sleep's fast passes against their oracles: step 4's dedup of the new
batch against the whole-store dedup loop, the forget ranking against
criterion 3's `interference`, and the single-write budget walk against the
walk that degraded and wrote one step at a time. The budgets come from the
loaded Hypothesis profile (see conftest.py)."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given
from hypothesis import strategies as st

from engram import consolidation
from engram.consolidation import run_consolidation
from engram.embedding import HashEmbedder
from engram.forgetting import degrade, forget_to_budget, rank_forget_candidates
from engram.graph import extract_entities
from engram.model import (
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    EpisodicRecord,
    FidelityLevel,
    StoreConfig,
)
from engram.store import MemoryStore

from conftest import T0, hours, make_event, minutes
from oracles import forget_ranking, stepwise_budget_walk, whole_store_dedup

VOCAB = ["alpha", "beta", "gamma", "kestrel", "deploy", "release", "Alice", "Bob"]
EMB = HashEmbedder(256, 0)

words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).map(" ".join)
stored_records = st.lists(
    st.tuples(words, st.sampled_from([STATE_RETAINED, STATE_PROMOTED]),
              st.integers(0, 30), st.floats(0.0, 1.0), st.integers(0, 3)),
    max_size=10)
batch_records = st.lists(st.tuples(words, st.integers(0, 30), st.floats(0.0, 1.0)),
                         min_size=1, max_size=10)


def _record(eid, content, offset, **fields):
    event = make_event(eid, ts=T0 + minutes(offset), content=content)
    return EpisodicRecord(event=event, embedding=EMB.embed(content), **fields)


def _merged(rec):
    return rec.id, rec.source_ids, rec.importance, rec.access_count


@given(stored=stored_records, batch=batch_records, tombstones=st.lists(words, max_size=3),
       threshold=st.sampled_from([0.3, 0.559, 0.8]))
def test_step_4_equals_the_whole_store_pass(stored, batch, tombstones, threshold):
    """On any store, colliding stored records included, step 4 of
    `run_consolidation` removes the batch records the whole-store pass
    removes, in its order, and leaves every survivor merged as it does."""
    store = MemoryStore(StoreConfig(near_dedup_threshold=threshold))
    for i, (content, state, offset, importance, access) in enumerate(stored):
        rec = _record(f"s{i}", content, offset, state=state, importance=importance,
                      access_count=access, source_ids=(f"s{i}", f"old{i}"))
        store.records[rec.id] = rec
    for i, content in enumerate(tombstones):
        # a tombstone is never a candidate
        rec = _record(f"t{i}", content, i, state=STATE_TOMBSTONE)
        store.records[rec.id] = replace(rec.with_content(""), fidelity=FidelityLevel.L5)
    for i, (content, offset, importance) in enumerate(batch):
        # arrival order: a record more than the skew behind is quarantined
        rec = _record(f"b{i}", content, offset, importance=importance)
        store.records[rec.id] = rec

    seen = {}
    exact_dedup, near_dedup = consolidation.exact_dedup, consolidation.near_dedup

    def exact_spy(pool):
        # the store as step 4 finds it, with the scored batch
        new = [r for r in pool if r.state == STATE_PENDING]
        seen["oracle"] = whole_store_dedup(store, new, threshold)
        seen["exact"] = exact_dedup(pool)
        return seen["exact"]

    def near_spy(pool, near_threshold):
        seen["near"] = near_dedup(pool, near_threshold)
        return seen["near"]

    consolidation.exact_dedup, consolidation.near_dedup = exact_spy, near_spy
    try:
        report = run_consolidation(store, T0 + hours(1))
    finally:
        consolidation.exact_dedup, consolidation.near_dedup = exact_dedup, near_dedup

    oracle_survivors, oracle_exact, oracle_near = seen["oracle"]
    survivors, near_removed = seen["near"]
    assert [r.id for r in seen["exact"][1]] == [r.id for r in oracle_exact]
    assert [r.id for r in near_removed] == [r.id for r in oracle_near]
    assert report.exact_dups_removed == len(oracle_exact)
    assert report.near_dups_removed == len(oracle_near)
    assert report.removed_existing == 0 and report.accounting_holds()
    assert [_merged(r) for r in survivors if r.state == STATE_PENDING] == \
        [_merged(r) for r in oracle_survivors if r.state == STATE_PENDING]
    # every stored record stays, merged as the oracle merges it, and the
    # batch survivors keep their merged fields through classification
    for rec in oracle_survivors:
        assert _merged(store.records[rec.id]) == _merged(rec)
    assert all(r.id not in store.records for r in oracle_exact + oracle_near)


@given(records=st.lists(
    st.tuples(words, st.sampled_from([STATE_PENDING, STATE_RETAINED, STATE_PROMOTED,
                                      STATE_TOMBSTONE]),
              st.integers(0, 3), st.floats(0.0, 1.0), st.booleans()),
    max_size=14),
    later=st.integers(-4, 400))
# five equal records: each priority sums four terms weighted 0.4 or 0.6,
# whose plain float sum would depend on their order
@example(records=[("alpha", STATE_PENDING, 0, 0.0, False)] * 5, later=0)
# `now` one hour after the first record and two before the second
@example(records=[("alpha", STATE_RETAINED, 0, 0.5, False),
                  ("alpha beta", STATE_PENDING, 3, 0.5, False)], later=-2)
def test_forget_priorities_are_interference_over_decayed_importance(records, later):
    """Each priority is criterion 3's `interference` over the live records,
    divided by the decayed importance plus EPSILON, exactly; the ranking
    orders the eligible records as the oracle does. A `now` before some
    records leaves those out of the ranking."""
    store = MemoryStore()
    now = T0 + hours(3 + later)
    for i, (content, state, offset, importance, labile) in enumerate(records):
        # several records share an encoding time: the id decides direction
        rec = _record(f"r{i % 4}-{i}", content, 60 * offset, state=state,
                      importance=importance)
        if state == STATE_TOMBSTONE:
            rec = replace(rec.with_content(""), fidelity=FidelityLevel.L5)
        store.records[rec.id] = rec
        if labile:
            store.labile_until[rec.id] = now + minutes(1)
    got = [(prio, dec, rec.id) for prio, dec, rec in rank_forget_candidates(store, now)]
    assert got == forget_ranking(store, now)


LADDER_VOCAB = VOCAB + ["shipped.", "done!", "Kestrel", "why?", "@carol", "#42"]
walked_records = st.lists(
    st.tuples(st.lists(st.sampled_from(LADDER_VOCAB), min_size=1, max_size=24).map(" ".join),
              st.sampled_from([STATE_PENDING, STATE_RETAINED, STATE_PROMOTED]),
              st.integers(0, 4), st.integers(0, 6), st.floats(0.0, 1.0), st.booleans()),
    min_size=1, max_size=14)


def _walk_store(records, now):
    """A store holding `records`, each degraded to its drawn level (L0 to
    L4), with the drawn ones labile at `now`."""
    store = MemoryStore()
    for i, (content, state, level, offset, importance, labile) in enumerate(records):
        rec = _record(f"w{i}", content, 30 * offset, state=state, importance=importance,
                      entities=extract_entities(content))
        for _ in range(level):
            rec = degrade(rec)
        store.records[rec.id] = rec
        if labile:
            store.labile_until[rec.id] = now + minutes(1)
    return store


@given(records=walked_records, later=st.integers(-2, 200), share=st.floats(0.0, 1.2))
@example(records=[("Alice shipped. Bob deploy release done! kestrel", STATE_RETAINED,
                   0, 0, 0.5, False)] * 3, later=0, share=0.0)
@example(records=[("Alice shipped. Bob deploy", STATE_RETAINED, 1, 0, 0.5, False),
                  ("Alice shipped. Bob deploy done!", STATE_PENDING, 0, 6, 0.5, False)],
         later=-2, share=0.0)
def test_budget_walk_equals_the_stepwise_walk(records, later, share):
    """On any store, at any budget from 1 to above its token total,
    `forget_to_budget` leaves the store byte for byte as the walk that
    degrades and writes one step at a time, and reports the same steps,
    tombstones and totals."""
    now = T0 + hours(3 + later)
    stepwise, single = _walk_store(records, now), _walk_store(records, now)
    budget = max(1, round(share * single.active_tokens()))
    want = stepwise_budget_walk(stepwise, budget, now)
    got = forget_to_budget(single, budget, now)
    assert got == want
    assert single.snapshot_json() == stepwise.snapshot_json()
