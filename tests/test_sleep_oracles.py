"""The sleep's two indexed passes against their pairwise oracles: dedup of
the new batch against the whole-store dedup it replaced, and the forget
ranking against criterion 3's `interference`. The budgets come from the
loaded Hypothesis profile (see conftest.py)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from engram.consolidation import dedup_batch
from engram.embedding import HashEmbedder
from engram.forgetting import rank_forget_candidates
from engram.model import (
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    EpisodicRecord,
    FidelityLevel,
)
from engram.store import MemoryStore

from conftest import T0, hours, make_event, minutes
from oracles import forget_ranking, whole_store_dedup

VOCAB = ["alpha", "beta", "gamma", "kestrel", "deploy", "release", "Alice", "Bob"]
EMB = HashEmbedder(256, 0)

words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).map(" ".join)
stored_records = st.lists(
    st.tuples(words, st.sampled_from([STATE_RETAINED, STATE_PROMOTED]),
              st.integers(0, 30), st.floats(0.0, 1.0), st.integers(0, 3)),
    max_size=10)
batch_records = st.lists(st.tuples(words, st.integers(0, 30), st.floats(0.0, 1.0)),
                         min_size=1, max_size=10)
bystanders = st.lists(st.tuples(words, st.sampled_from([STATE_PENDING, STATE_TOMBSTONE])),
                      max_size=3)


def _record(eid, content, offset, **fields):
    event = make_event(eid, ts=T0 + minutes(offset), content=content)
    return EpisodicRecord(event=event, embedding=EMB.embed(content), **fields)


def _merged(rec):
    return rec.id, rec.source_ids, rec.importance, rec.access_count, rec.state


def _collides(rec, kept, threshold):
    return any(rec.content == k.content
               or float(np.dot(rec.embedding, k.embedding)) >= threshold
               for k in kept)


@given(stored=stored_records, batch=batch_records, others=bystanders,
       threshold=st.sampled_from([0.3, 0.559, 0.8]))
def test_dedup_batch_equals_the_whole_store_pass(stored, batch, others, threshold):
    """Where no two stored records collide, deciding only the batch gives
    the whole-store pass's survivors, absorbers and merged fields."""
    store = MemoryStore()
    kept = []
    for i, (content, state, offset, importance, access) in enumerate(stored):
        rec = _record(f"s{i}", content, offset, state=state, importance=importance,
                      access_count=access, source_ids=(f"s{i}", f"old{i}"))
        if not _collides(rec, kept, threshold):
            kept.append(rec)
            store.records[rec.id] = rec
    for i, (content, state) in enumerate(others):
        # pending outside the batch, or tombstones: neither is a candidate
        rec = _record(f"o{i}", content, i, state=state)
        store.records[rec.id] = rec
    new = []
    for i, (content, offset, importance) in enumerate(batch):
        rec = _record(f"b{i}", content, offset, importance=importance)
        store.records[rec.id] = rec
        new.append(rec)
    new.sort(key=lambda r: (r.event.timestamp, r.id))
    batch_ids = {r.id for r in new}

    oracle_survivors, oracle_exact, oracle_near = whole_store_dedup(store, new, threshold)
    assert all(r.id in batch_ids for r in oracle_exact + oracle_near)
    survivors, absorbers, exact_removed, near_removed = dedup_batch(store, new, threshold)

    assert [r.id for r in exact_removed] == [r.id for r in oracle_exact]
    assert [r.id for r in near_removed] == [r.id for r in oracle_near]
    assert [_merged(r) for r in survivors] == \
        [_merged(r) for r in oracle_survivors if r.id in batch_ids]
    assert {k: _merged(r) for k, r in absorbers.items()} == \
        {r.id: _merged(r) for r in oracle_survivors
         if r.id not in batch_ids and _merged(r) != _merged(store.records[r.id])}


@given(records=st.lists(
    st.tuples(words, st.sampled_from([STATE_PENDING, STATE_RETAINED, STATE_PROMOTED,
                                      STATE_TOMBSTONE]),
              st.integers(0, 3), st.floats(0.0, 1.0), st.booleans()),
    max_size=14),
    later=st.integers(0, 400))
# five equal records: each priority sums four terms weighted 0.4 or 0.6, and
# the rounded float sum depends on their order
@example(records=[("alpha", STATE_PENDING, 0, 0.0, False)] * 5, later=0)
def test_forget_priorities_are_interference_over_decayed_importance(records, later):
    """Each priority is criterion 3's `interference` over the live records,
    divided by the decayed importance plus EPSILON, exactly; the ranking
    orders the eligible records as the oracle does."""
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
