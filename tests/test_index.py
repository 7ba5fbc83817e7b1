"""The store's derived state and its lifecycle. The index-backed episodic
scan must equal its definition bit for bit; `MemoryStore.near` must hold
every record that reaches the threshold, so the frequency factor taken over
its candidates equals `frequency_factor` over the whole pool; and the
snapshot text spliced from memoized values must equal the encoding of the
whole state, under any sequence of operations; the float32 margin must
bound the float32 error; hybrid retrieval must equal its reference, and
the graph's adjacency map must hold exactly the co-occurrence edges, and
its query state must equal one built from its memories. Along
the way the lifecycle invariants hold: each record's state moves one way
along the lattice, dedup never removes a stored record, a promoted record
only ever becomes a tombstone, and a failed sleep job leaves the snapshot
as it was."""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from engram import forgetting
from engram.codec import encode
from engram.consolidation import MODES, run_consolidation
from engram.embedding import HashEmbedder, dot_error_bound
from engram.errors import AlreadyTombstone, LabilityExpired
from engram.forgetting import rank_forget_candidates, run_forgetting, tombstone
from engram.graph import QueryState
from engram.model import (
    LEGAL_MOVES,
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    TIER_HOT,
    TIER_WARM,
    EpisodicRecord,
    StoreConfig,
    estimate_tokens,
)
from engram.retrieval import (
    _episodic_scan,
    hybrid_retrieve,
    open_lability,
    reconsolidate,
    reinforce,
)
from engram.scoring import frequency_factor
from engram.store import EmbeddingIndex, MemoryStore

from conftest import T0, hours, make_event, minutes
from oracles import (
    derived_by_walk,
    derived_kept,
    hybrid_reference,
    live_records,
    query_state_view,
    scan_oracle,
)

VOCAB = ["alpha", "beta", "gamma", "kestrel", "deploy", "release", "Alice", "Bob"]
SESSIONS = ["s0", "s1", "s2"]
STATES = [STATE_RETAINED, STATE_PROMOTED, STATE_PENDING, STATE_TOMBSTONE]
KEPT = (STATE_RETAINED, STATE_PROMOTED)
EMB = HashEmbedder(256, 0)


def bits(hits):
    """Ids, base similarities to the bit, and order."""
    return [(h.memory_id, h.base_sim.hex(), h.tier, h.timestamp, h.content,
             h.source_ids) for h in hits]


def assert_scan_matches(store, query, k, now, **filters):
    qvec = store.embedder.embed(query)
    got = _episodic_scan(store, qvec, k, now, **filters)
    assert bits(got) == bits(scan_oracle(store, qvec, k, now, **filters))


def expected_frequencies(store, batch, threshold):
    """`frequency_factor` per batch record over the whole pool: every
    earlier retained/promoted record and batch record."""
    pool = [r for r in store.records.values() if r.state in KEPT] + list(batch)
    out = []
    for rec in batch:
        earlier = [r for r in pool if (r.encoded_at, r.id) < (rec.encoded_at, rec.id)]
        out.append(frequency_factor(rec, earlier, threshold))
    return out


def engine_frequencies(store, batch, threshold):
    """The frequency factor as step 2 of `run_consolidation` takes it:
    `frequency_factor` over the earlier ones of each record's `near`
    candidates."""
    return [frequency_factor(rec, [o for o in candidates
                                   if (o.encoded_at, o.id) < (rec.encoded_at, rec.id)],
                             threshold)
            for rec, candidates in zip(batch, store.near(batch, threshold, KEPT))]


def assert_frequencies_match(store, batch, threshold):
    assert engine_frequencies(store, batch, threshold) == \
        expected_frequencies(store, batch, threshold)


def assert_near_complete(store, records, threshold):
    """For `states=None` and for the retained and promoted states, `near`
    gives each of `records` the stored record of every id in its pool whose
    float64 `np.dot` with it reaches `threshold`, and nothing from outside
    the pool. The pool is the live records, or those in the states plus
    `records`."""
    live = live_records(store)
    query_ids = {r.id for r in records}
    for states in (None, KEPT):
        pool = [r for r in live
                if states is None or r.state in states or r.id in query_ids]
        pool_ids = {r.id for r in pool}
        for rec, got in zip(records, store.near(records, threshold, states), strict=True):
            got_ids = [o.id for o in got]
            assert len(set(got_ids)) == len(got_ids)
            assert set(got_ids) <= pool_ids
            assert all(o is store.records[o.id] for o in got)
            reach = {o.id for o in pool
                     if float(np.dot(o.embedding, rec.embedding)) >= threshold}
            assert reach <= set(got_ids)


class Injected(RuntimeError):
    pass


words = st.lists(st.sampled_from(VOCAB), max_size=4).map(" ".join)
# days before a forgetting run: often none, so that records are still inside
# their TTL and a budget walk has live records to degrade; sometimes 31, past
# the 720 h warm TTL, so that retained and promoted records expire
sleep_gap = st.one_of(st.just(0), st.integers(0, 40), st.just(31))


def ranking_key(ranked):
    return [(prio, decayed, rec.id) for prio, decayed, rec in ranked]


def inject_failure(obj, nth, method="replace", after=False):
    """Make the `nth` call of `obj.method` (by default `store.replace`)
    raise `Injected`, before it runs or, with `after`, once it has run;
    returns the undo."""
    calls = [0]
    write = getattr(obj, method)

    def failing(*args):
        calls[0] += 1
        fail = calls[0] == nth
        if fail and not after:
            raise Injected(f"{method} {nth}")
        write(*args)
        if fail:
            raise Injected(f"{method} {nth}")

    setattr(obj, method, failing)
    return lambda: delattr(obj, method)


class IndexMachine(RuleBasedStateMachine):
    """Random lifecycles of a small store. After every step, and for each
    drawn query, the index-backed scan equals `scan_oracle` and
    `hybrid_retrieve` equals `hybrid_reference`; after every step, the
    graph's `adjacent` map is symmetric and its query state the one built
    from `memories`, `snapshot_json` equals the
    canonical dump of `state_dict`, the running live count and token total
    equal their full sums, the pending
    ids (in order) and the content holders equal a walk over every record,
    the admitted ids' order lists each of them once, every id once
    promoted is still stored, promoted or a tombstone, every id's state
    moved along `LEGAL_MOVES`, and every tombstone is in the form
    `forgetting.tombstone` builds. A forgetting run meets its budget
    whenever the records it may not touch fit in it, a sleep at a past
    `now` leaves alone what was encoded after it, a sleep inside an outer
    transaction that raises leaves the snapshot as it was, a lapsed lability
    window changes nothing, and a reload through a file or in memory gives
    back the same snapshot. The record map's newest encoding time, and with
    it `logical_now`, equals a walk over every record and memory."""

    @initialize()
    def start(self):
        self.store = MemoryStore(StoreConfig(cluster_distance=0.8))
        self.clock = T0
        self.serial = 0
        self.promoted: set[str] = set()
        self.states: dict[str, str] = {}  # id -> state after the last step
        self.written: set[str] = set()  # ids `direct_write` wrote this step

    def live_ids(self):
        return sorted(r.id for r in live_records(self.store))

    @rule(content=words, session=st.sampled_from(SESSIONS),
          step=st.integers(0, 90), late=st.booleans(), inverted=st.booleans())
    def ingest(self, content, session, step, late, inverted):
        self.clock += minutes(step)
        self.serial += 1
        # a late event lands in quarantine; one citing the next event's id
        # is a causal inversion, re-admitted once that event is admitted
        causes = (f"e{self.serial + 1}",) if inverted else ()
        ts = self.clock - hours(3) if late else self.clock
        self.store.ingest(make_event(f"e{self.serial}", ts=ts, session=session,
                                     content=content, causes=causes))

    @rule(contents=st.lists(words, min_size=2, max_size=6),
          session=st.sampled_from(SESSIONS))
    def ingest_session(self, contents, session):
        # a run of in-order events, so that sleeps meet stored records
        for content in contents:
            self.clock += minutes(1)
            self.serial += 1
            self.store.ingest(make_event(f"e{self.serial}", ts=self.clock,
                                         session=session, content=content))

    @rule(shared=st.sampled_from(VOCAB), size=st.integers(2, 4),
          session=st.sampled_from(SESSIONS))
    def ingest_overlapping(self, shared, size, session):
        # contents that share one word of three: similarity near 1/3, below
        # near-dedup's threshold and within cluster distance 0.8, so an
        # aggressive batch merges them
        for _ in range(size):
            self.clock += minutes(1)
            self.serial += 1
            content = f"{shared} note{self.serial} item{self.serial}"
            self.store.ingest(make_event(f"e{self.serial}", ts=self.clock,
                                         session=session, content=content))

    @rule(names=st.lists(st.sampled_from(["Alice", "Bob", "Carol"]), min_size=2,
                         max_size=3, unique=True),
          size=st.integers(1, 3), session=st.sampled_from(SESSIONS))
    def ingest_linked(self, names, size, session):
        # records that name two or three entities, so that a sleep's gists
        # add co-occurrence edges to the graph
        for _ in range(size):
            self.clock += minutes(1)
            self.serial += 1
            content = " and ".join(names) + f" note{self.serial}"
            self.store.ingest(make_event(f"e{self.serial}", ts=self.clock,
                                         session=session, content=content))

    @precondition(lambda self: any(r.state in KEPT for r in self.store.records.values()))
    @rule(data=st.data(), session=st.sampled_from(SESSIONS))
    def ingest_copy(self, data, session):
        # the content of a stored retained or promoted record, degraded ones
        # included: step 4 absorbs the copy, and the stored record stays
        kept = sorted(k for k, r in self.store.records.items() if r.state in KEPT)
        source = self.store.records[data.draw(st.sampled_from(kept))]
        self.clock += minutes(1)
        self.serial += 1
        self.store.ingest(make_event(f"e{self.serial}", ts=self.clock, session=session,
                                     content=source.content))

    @rule(mode=st.sampled_from(MODES), pending=st.booleans())
    def consolidate(self, mode, pending):
        if pending:
            self.clock += minutes(20)  # past the quarantine TTL
        report = run_consolidation(self.store, self.clock, mode=mode)
        assert report.accounting_holds()
        assert report.removed_existing == 0

    @rule(budget=st.one_of(st.none(), st.integers(1, 80)), days=sleep_gap)
    def forget(self, budget, days):
        self.clock += hours(24 * days)
        store = self.store
        promoted = {k: r for k, r in store.records.items() if r.state == STATE_PROMOTED}
        walk = forgetting.forget_to_budget

        def checked_walk(store, budget_tokens, now, ranked=None):
            # a ranking handed on from the interference step is still exact
            if ranked is not None:
                assert ranking_key(ranked) == ranking_key(rank_forget_candidates(store, now))
            return walk(store, budget_tokens, now, ranked)

        forgetting.forget_to_budget = checked_walk
        try:
            report = run_forgetting(store, self.clock, budget=budget)
        finally:
            forgetting.forget_to_budget = walk
        # forgetting leaves a promoted record alone, but for its TTL
        for rid, rec in promoted.items():
            after = store.records[rid]
            assert after is rec or (rid in report.expired_ids
                                    and after.state == STATE_TOMBSTONE)
        # the budget holds whenever the records the walk may not touch,
        # promoted and labile, fit in it
        fixed = sum(estimate_tokens(r.content) for r in live_records(store)
                    if r.state == STATE_PROMOTED or store.is_labile(r.id, self.clock))
        if budget is not None and fixed <= budget:
            assert report.tokens_after <= budget
            assert report.tokens_after == store.active_tokens()

    @precondition(lambda self: live_records(self.store) or self.store.graph.memories)
    @rule(data=st.data(), content=words,
          confidence=st.floats(0.0, 1.0, allow_nan=False),
          lapse=st.one_of(st.none(), st.just(0), st.integers(1, 120)))
    def relearn(self, data, content, confidence, lapse):
        # a live record or a graph memory, whose new embedding the graph's
        # query state must take
        rid = data.draw(st.sampled_from(self.live_ids() + sorted(self.store.graph.memories)))
        handle = open_lability(self.store, rid, self.clock)
        if lapse is None:
            reconsolidate(self.store, handle, content, confidence, self.clock)
            return
        # `lapse` minutes after the window closed, often at its very end:
        # too late, and a no-op
        self.clock = handle.expires_at + minutes(lapse)
        before = self.store.snapshot_json()
        with pytest.raises(LabilityExpired):
            reconsolidate(self.store, handle, content, confidence, self.clock)
        assert self.store.snapshot_json() == before

    @rule(back=st.integers(1, 6), mode=st.sampled_from(MODES),
          budget=st.one_of(st.none(), st.integers(1, 80)))
    def sleep_in_the_past(self, back, mode, budget):
        # a sleep at a `now` before the clock takes only the records encoded
        # by then: a pending record encoded later stays as it is, and
        # forgetting touches no record encoded later
        now = self.clock - hours(back)
        store = self.store
        later = [r for r in store.records.values()
                 if r.encoded_at > now and r.state == STATE_PENDING]
        assert run_consolidation(store, now, mode=mode).accounting_holds()
        assert all(store.records[r.id] is r for r in later)
        later = [r for r in store.records.values() if r.encoded_at > now]
        run_forgetting(store, now, budget=budget)
        assert all(store.records[r.id] is r for r in later)

    @rule(mode=st.sampled_from(MODES), budget=st.one_of(st.none(), st.integers(1, 80)),
          days=sleep_gap, commit=st.booleans())
    def sleep_in_a_transaction(self, mode, budget, days, commit):
        # a sleep, consolidation then forgetting, each its own transaction
        # inside an outer one that commits or raises; a raise undoes both
        # jobs, the ids their commits admitted included
        store = self.store
        self.clock += hours(24 * days)
        before = store.snapshot_json()
        admitted, order = set(store.admitted_ids), list(store.admitted_ids.order)
        try:
            with store.transaction():
                assert run_consolidation(store, self.clock, mode=mode).accounting_holds()
                run_forgetting(store, self.clock, budget=budget)
                if not commit:
                    raise Injected("after the sleep")
        except Injected:
            assert store.snapshot_json() == before
            assert store.admitted_ids == admitted and store.admitted_ids.order == order

    @precondition(lambda self: self.store.records)
    @rule(data=st.data(), outcome=st.sampled_from(["success", "failure"]))
    def feedback(self, data, outcome):
        store = self.store
        rid = data.draw(st.sampled_from(sorted(store.records)))
        rec = store.records[rid]
        if rec.state == STATE_TOMBSTONE:
            with pytest.raises(AlreadyTombstone):
                reinforce(store, rid, outcome)
            assert store.records[rid] is rec
            return
        importance = reinforce(store, rid, outcome)
        after = store.records[rid]
        assert after.state == rec.state and after.content == rec.content
        if outcome == "success":
            assert importance == min(1.0, rec.importance + store.config.reinforce_step)
        else:
            assert importance == rec.importance
            assert after.event.metadata["error_signal"] == "true"

    @precondition(lambda self: self.store.records)
    @rule(data=st.data(), change=st.sampled_from(
        ["tier", "importance", "embedding", "session", "tombstone", "delete"]))
    def direct_write(self, data, change):
        records = self.store.records
        rid = data.draw(st.sampled_from(sorted(records)))
        rec = records[rid]
        self.written.add(rid)
        if change == "delete":
            del records[rid]
            self.promoted.discard(rid)
            return
        if change == "tier":
            new = replace(rec, tier=TIER_WARM if rec.tier == TIER_HOT else TIER_HOT)
        elif change == "importance":
            new = replace(rec, importance=data.draw(st.floats(-1.0, 1.0)))
        elif change == "embedding":
            if rec.state == STATE_TOMBSTONE:
                return  # a tombstone has no embedding to rewrite
            new = replace(rec, embedding=EMB.embed(data.draw(words)))
        elif change == "session":
            session = data.draw(st.sampled_from(SESSIONS))
            new = replace(rec, event=replace(rec.event, session_id=session))
        else:
            new = tombstone(rec)
        records[rid] = new

    @rule(mode=st.sampled_from(MODES), nth=st.integers(1, 4), at_edge=st.booleans())
    def failed_batch(self, mode, nth, at_edge):
        store = self.store
        before = store.snapshot_json()
        # a failure at a graph edge comes after that edge's writes, so the
        # rollback must not keep a row the failed batch wrote
        undo = (inject_failure(store.graph, nth, "_add_edge", after=True) if at_edge
                else inject_failure(store, nth))
        try:
            run_consolidation(store, self.clock, mode=mode)
        except Injected:
            assert store.snapshot_json() == before
        finally:
            undo()

    @rule(budget=st.one_of(st.none(), st.integers(1, 80)), days=sleep_gap,
          nth=st.integers(1, 6))
    def failed_forgetting(self, budget, days, nth):
        self.clock += hours(24 * days)
        store = self.store
        before = store.snapshot_json()
        undo = inject_failure(store, nth)
        try:
            run_forgetting(store, self.clock, budget=budget)
        except Injected:
            assert store.snapshot_json() == before
        finally:
            undo()

    @rule(through_file=st.booleans())
    def reload(self, through_file):
        text = self.store.snapshot_json()
        if through_file:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "store.json")
                self.store.save_snapshot(path)
                self.store = MemoryStore.load_snapshot(path)
        else:
            self.store = MemoryStore.from_state_dict(json.loads(text))
        assert self.store.snapshot_json() == text

    @rule(query=words, k=st.integers(1, 6), back=st.integers(0, 6),
          tier=st.sampled_from([None, TIER_HOT, TIER_WARM, "cold"]),
          session=st.sampled_from([None, "s0", "s1", "elsewhere"]),
          window=st.one_of(st.none(), st.tuples(st.integers(0, 300), st.integers(0, 300))),
          importance=st.sampled_from([None, 0.0, 0.2, 0.45]))
    def query(self, query, k, back, tier, session, window, importance):
        now = self.clock - hours(back)  # a past as_of hides what came after
        time_range = None
        if window is not None:
            lo, span = window
            time_range = (T0 + minutes(lo), T0 + minutes(lo + span))
        assert_scan_matches(self.store, query, k, now, time_range=time_range,
                            session_id=session, tier=tier, importance_filter=importance)
        assert hybrid_retrieve(self.store, query, k, now, session_id=session) == \
            hybrid_reference(self.store, query, k, now, session_id=session)

    @invariant()
    def scans_match(self):
        for query in ("alpha beta", "kestrel"):
            for tier in (TIER_HOT, TIER_WARM):
                assert_scan_matches(self.store, query, 3, self.clock, tier=tier)

    @invariant()
    def index_holds_live_rows_only(self):
        """The index has one row per live record, and each row holds its
        record: the float32 column of its embedding, its importance and
        its tier."""
        index = self.store.embedding_index()
        assert len(index) == self.store.active_count()
        assert sorted(index.keys) == self.live_ids()
        assert [index.row(key) for key in index.keys] == list(range(len(index)))
        records = [self.store.records[key] for key in index.keys]
        assert all(v is r.embedding
                   for v, r in zip(index.embeddings.vectors, records, strict=True))
        if records:
            embeddings = np.array([r.embedding for r in records], dtype=np.float32)
            assert np.array_equal(index.embeddings.matrix[:, :len(index)], embeddings.T)
            assert index.column("importance").tolist() == [r.importance for r in records]
            every = np.ones(len(index), dtype=bool)
            for tier in (TIER_HOT, TIER_WARM):
                assert index.where(every, tier=tier).tolist() == \
                    [row for row, r in enumerate(records) if r.tier == tier]

    @invariant()
    def logical_now_is_the_full_walk(self):
        store = self.store
        encoded = [r.encoded_at for r in store.records.values()]
        assert store.records.newest() == max(encoded, default=None)
        times = encoded + [m.created_at for m in store.graph.memories.values()]
        if store.watermark is not None:
            times.append(store.watermark)
        assert store.logical_now() == max(times, default=None)

    @invariant()
    def totals_are_the_full_sums(self):
        live = live_records(self.store)
        assert self.store.active_count() == len(live)
        assert self.store.active_tokens() == sum(estimate_tokens(r.content)
                                                 for r in live)

    @invariant()
    def kept_maps_are_the_full_walk(self):
        assert derived_kept(self.store.records) == derived_by_walk(self.store.records)
        admitted = self.store.admitted_ids
        assert len(admitted.order) == len(admitted) and set(admitted.order) == admitted

    @invariant()
    def query_state_is_a_rebuild(self):
        """The query state the graph keeps current through inserts,
        replacements, rollbacks and reloads equals one built from its
        memories. Reading it here builds it when missing, so that every
        later step keeps it current."""
        graph = self.store.graph
        assert query_state_view(graph.query_state()) == \
            query_state_view(QueryState(graph.memories.values()))

    @invariant()
    def adjacency_is_the_edge_map(self):
        """`co_occurs` is read off `adjacent`, taking each edge once from
        its lesser endpoint's row, so rebuilding `adjacent` from it gives
        `adjacent` back only if each edge is in both endpoints' rows, with
        one weight: the check that `adjacent` is symmetric."""
        graph = self.store.graph
        rebuilt: dict[str, dict[str, int]] = {}
        for (a, b), weight in graph.co_occurs.items():
            rebuilt.setdefault(a, {})[b] = weight
            rebuilt.setdefault(b, {})[a] = weight
        assert graph.adjacent == rebuilt

    @invariant()
    def tombstones_hold_existence_metadata_only(self):
        # records are `eq=False` values: compare their encodings
        for rec in self.store.records.values():
            if rec.state == STATE_TOMBSTONE:
                assert encode(tombstone(rec)) == encode(rec)

    @invariant()
    def snapshot_is_the_canonical_state(self):
        assert self.store.snapshot_json() == json.dumps(
            self.store.state_dict(), sort_keys=True, separators=(",", ":"))

    @invariant()
    def promoted_ids_stay(self):
        records = self.store.records
        for rid in self.promoted:
            assert rid in records
            assert records[rid].state in (STATE_PROMOTED, STATE_TOMBSTONE)
        self.promoted.update(k for k, r in records.items() if r.state == STATE_PROMOTED)

    @invariant()
    def states_move_one_way(self):
        # an id leaves the store only while pending: dedup absorbs and
        # quarantine takes pending records alone; `direct_write` bypasses
        # the lattice on purpose, so the ids it wrote are skipped
        records = self.store.records
        for rid, before in self.states.items():
            if rid in self.written:
                continue
            if rid in records:
                assert records[rid].state in LEGAL_MOVES[before], rid
            else:
                assert before == STATE_PENDING, rid
        self.states = {k: r.state for k, r in records.items()}
        self.written = set()

    @invariant()
    def frequencies_match(self):
        pending = sorted((r for r in self.store.records.values()
                          if r.state == STATE_PENDING),
                         key=lambda r: (r.event.timestamp, r.id))
        assert_frequencies_match(self.store, pending,
                                 self.store.config.near_dedup_threshold)

    @invariant()
    def near_is_complete(self):
        assert_near_complete(self.store, live_records(self.store),
                             self.store.config.interference_threshold)


TestIndexMachine = IndexMachine.TestCase
# examples and steps come from the loaded profile (conftest.py)
TestIndexMachine.settings = settings(deadline=None,
                                     suppress_health_check=[HealthCheck.too_slow])


def test_scan_drops_a_negative_importance_at_a_zero_filter():
    store = MemoryStore()
    for eid in ("a", "b"):
        store.ingest(make_event(eid, ts=T0, content="alpha beta"))
    store.records["a"] = replace(store.records["a"], importance=-0.5)
    assert_scan_matches(store, "alpha", 5, T0 + hours(1))
    assert [h.memory_id for h in _episodic_scan(
        store, store.embedder.embed("alpha"), 5, T0 + hours(1))] == ["b"]


def test_scan_ranks_scores_one_ulp_apart():
    """Scores one ulp apart round to the same float32: all stay candidates
    and the float64 rescoring orders them."""
    store = MemoryStore()
    t = 0.6
    firsts = [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)]
    for i, first in enumerate(firsts * 3):
        vec = np.zeros(256)
        vec[0], vec[1 + i] = first, 0.5
        event = make_event(f"r{i}", ts=T0 + minutes(i), content=f"row {i}")
        store.records[event.id] = EpisodicRecord(event=event, embedding=vec)
    qvec = np.zeros(256)
    qvec[0] = 1.0
    for k in range(1, 10):
        got = _episodic_scan(store, qvec, k, T0 + hours(1))
        assert bits(got) == bits(scan_oracle(store, qvec, k, T0 + hours(1)))
    assert [h.memory_id for h in _episodic_scan(store, qvec, 3, T0 + hours(1))] == \
        ["r8", "r5", "r2"]


def test_scan_keeps_rows_the_float32_product_ranks_lower():
    """Rows 1e-7 apart: the float32 product ranks them in another order
    than float64 does, and the margin keeps the float64 top-k among the
    candidates."""
    rng = np.random.default_rng(1)
    base = rng.standard_normal(64)
    base /= np.linalg.norm(base)
    rows = base + 1e-7 * rng.standard_normal((40, 64))
    s64 = np.array([float(np.dot(base, r)) for r in rows])
    s32 = rows.astype(np.float32) @ base.astype(np.float32)
    # a float64 top-3 row scores below the third-highest float32 score
    assert s32[np.argsort(-s64)[:3]].min() < np.sort(s32)[-3]
    store = MemoryStore()
    for i, row in enumerate(rows):
        event = make_event(f"r{i:02d}", ts=T0, content=f"row {i}")
        store.records[event.id] = EpisodicRecord(event=event, embedding=row)
    for k in (1, 3, 5):
        got = _episodic_scan(store, base, k, T0)
        assert bits(got) == bits(scan_oracle(store, base, k, T0))


def _threshold_record(eid, first, axis, ts, state):
    vec = np.zeros(256)
    vec[0] = first
    vec[axis] = np.sqrt(1.0 - first * first)
    event = make_event(eid, ts=ts, content=eid)
    return EpisodicRecord(event=event, embedding=vec, state=state)


def test_frequency_count_at_the_threshold_and_one_ulp_either_side():
    """The float64 dot of the stored record with each new one is exactly the
    threshold, one ulp above it, or one ulp below it."""
    store = MemoryStore()
    t = store.config.near_dedup_threshold
    base = _threshold_record("a", 1.0, 1, T0, STATE_RETAINED)
    store.records["a"] = base
    batch = []
    for i, first in enumerate([t, np.nextafter(t, 1.0), np.nextafter(t, 0.0)]):
        rec = _threshold_record(f"b{i}", first, 2 + i, T0 + hours(1 + i), STATE_PENDING)
        assert float(np.dot(base.embedding, rec.embedding)) == first
        store.records[rec.id] = rec
        batch.append(rec)
    assert engine_frequencies(store, batch, t) == [0.5, 0.5, 1.0]
    assert_frequencies_match(store, batch, t)
    assert_near_complete(store, batch, t)
    assert_near_complete(store, [base], t)


def test_frequency_counts_skip_pending_records_outside_the_batch():
    store = MemoryStore()
    for i, state in enumerate([STATE_RETAINED, STATE_PROMOTED, STATE_PENDING,
                               STATE_TOMBSTONE, STATE_PENDING]):
        event = make_event(f"r{i}", ts=T0 + minutes(i), content="same words")
        store.records[event.id] = EpisodicRecord(
            event=event, embedding=EMB.embed("same words"), state=state)
    batch = [store.records["r4"]]
    assert engine_frequencies(store, batch, 0.9) == [1.0 / 3.0]
    assert_frequencies_match(store, batch, 0.9)


@settings(max_examples=80, deadline=None)
@given(contents=st.lists(words, min_size=1, max_size=14),
       states=st.lists(st.sampled_from(STATES), min_size=14, max_size=14),
       offsets=st.lists(st.integers(0, 3), min_size=14, max_size=14),
       threshold=st.sampled_from([0.0, 0.3, 0.559, 0.8, 1.0]))
def test_frequency_counts_match_the_pairwise_loop(contents, states, offsets, threshold):
    store = MemoryStore()
    for i, content in enumerate(contents):
        event = make_event(f"r{i % 5}-{i}", ts=T0 + hours(offsets[i]), content=content)
        store.records[event.id] = EpisodicRecord(event=event, embedding=EMB.embed(content),
                                                 state=states[i])
    batch = sorted((r for r in store.records.values() if r.state == STATE_PENDING),
                   key=lambda r: (r.event.timestamp, r.id))
    assert_frequencies_match(store, batch, threshold)


@given(contents=st.lists(words, min_size=1, max_size=14),
       states=st.lists(st.sampled_from(STATES), min_size=14, max_size=14),
       picks=st.lists(st.booleans(), min_size=14, max_size=14),
       threshold=st.sampled_from([-1.0, 0.0, 0.3, 0.542, 0.559, 0.8, 1.0]))
def test_near_holds_every_record_that_reaches_the_threshold(contents, states, picks,
                                                            threshold):
    store = MemoryStore()
    for i, content in enumerate(contents):
        event = make_event(f"r{i}", ts=T0 + minutes(i), content=content)
        store.records[event.id] = EpisodicRecord(event=event, embedding=EMB.embed(content),
                                                 state=states[i])
    records = [r for r, pick in zip(store.records.values(), picks)
               if pick and r.state != STATE_TOMBSTONE]
    assert_near_complete(store, records, threshold)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 1e-20, 1e-42, 1e-300, 1e15]),
       sparse=st.booleans(), sparse_query=st.booleans())
def test_dot_error_bound_holds(d, seed, scale, sparse, sparse_query):
    """|float32 product - float64 dot| stays within the bound, for dense and
    sparse vectors, and at scales whose entries or products fall below the
    float32 normal range: for the dense product, and for each of the
    embedding index's. A query with non-zero entries in under a quarter of
    the dimensions takes the product over those dimensions only; a denser
    one takes the whole mat-vec, or gathers the columns of two rows."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(d)
    if sparse_query:
        q[rng.random(d) < 0.8] = 0.0
    rows = rng.standard_normal((40, d)) * scale
    rows[0] = q * scale  # the largest possible score for this norm
    if sparse:
        rows[rng.random((40, d)) < 0.8] = 0.0
    s32 = (rows.astype(np.float32) @ q.astype(np.float32)).astype(np.float64)
    s64 = np.array([float(np.dot(q, row)) for row in rows])
    bound = np.array([dot_error_bound(d, float(np.linalg.norm(q)), float(np.linalg.norm(row)))
                      for row in rows])
    assert (abs(s32 - s64) <= bound).all()
    index = EmbeddingIndex()
    index.write([(f"r{i}", EpisodicRecord(event=make_event(f"r{i}"), embedding=row))
                 for i, row in enumerate(rows)])
    for picked in (np.arange(len(rows)), np.array([5, 0])):
        by_index = index.embeddings.scores(q, picked).astype(np.float64)
        assert (abs(by_index - s64[picked]) <= bound[picked]).all()


@settings(max_examples=50, deadline=None)
@given(size=st.integers(1, 30), data=st.data())
def test_removals_in_one_sync_leave_the_rows_of_one_by_one_removals(size, data):
    """Rows dropped in one sync move the last row into each hole in turn,
    as syncing after each removal does, and every row keeps its record's
    embedding and fields."""
    stores = [MemoryStore(), MemoryStore()]
    for i in range(size):
        vec = np.zeros(16)
        vec[i % 16], vec[(3 * i + 1) % 16] = 1.0 + i, -0.5
        for store in stores:
            event = make_event(f"r{i:02d}", ts=T0 + minutes(i))
            store.records[event.id] = EpisodicRecord(event=event, embedding=vec)
            store.embedding_index()
    gone = data.draw(st.lists(st.sampled_from(sorted(stores[0].records)), unique=True))
    batched, stepped = stores
    for key in gone:
        del batched.records[key]
        del stepped.records[key]
        stepped.embedding_index()
    index, reference = batched.embedding_index(), stepped.embedding_index()
    assert index.keys == reference.keys
    assert np.array_equal(index.embeddings.matrix[:, :len(index)],
                          reference.embeddings.matrix[:, :len(index)])
    assert index.embeddings.norms[:len(index)].tolist() == \
        reference.embeddings.norms[:len(index)].tolist()
    for name in ("encoded", "timestamp", "importance", "tier", "session", "state"):
        assert index.column(name).tolist() == reference.column(name).tolist()
    for row, key in enumerate(index.keys):
        assert index.row(key) == row
        assert np.array_equal(index.embeddings.matrix[:, row],
                              batched.records[key].embedding.astype(np.float32))


def test_scan_cuts_at_the_kth_score_inside_a_tie_group():
    """2,400 rows over six distinct scores, 400 rows each: for k inside a tie
    group and at either edge of one, the candidates are exactly the rows
    that score at least the k-th highest (the scores lie far apart next to
    the float32 margin), and the scan equals its definition, ties broken by
    timestamp and id."""
    store = MemoryStore()
    for i in range(2400):
        vec = np.zeros(256)
        vec[0], vec[7], vec[1 + i % 5] = 0.1 * (i % 3), 0.2 * (i % 2), 0.5
        event = make_event(f"r{i:04d}", ts=T0 + minutes(i % 7), content=f"row {i}")
        store.records[event.id] = EpisodicRecord(event=event, embedding=vec)
    qvec = np.zeros(256)
    qvec[0], qvec[7] = 0.8, 0.6
    index = store.embedding_index()
    rows = np.flatnonzero(index.visible(T0 + hours(1)))
    scores = index.embeddings.scores(qvec, rows)
    assert len(np.unique(scores)) == 6
    for k in (1, 10, 399, 400, 401, 1000, 1999):
        kth = np.sort(scores)[len(rows) - k]
        assert index.top_candidates(qvec, [rows], k)[0].tolist() == \
            rows[scores >= kth].tolist()
        got = _episodic_scan(store, qvec, k, T0 + hours(1))
        assert bits(got) == bits(scan_oracle(store, qvec, k, T0 + hours(1)))


def test_index_is_derived_and_rebuilt_after_a_load():
    store = MemoryStore()
    for i in range(5):
        store.ingest(make_event(f"e{i}", ts=T0 + minutes(i), content=f"alpha {i}"))
    run_consolidation(store, T0 + hours(1))
    assert len(store.embedding_index()) == store.active_count()
    state = store.state_dict()
    loaded = MemoryStore.from_state_dict(json.loads(store.snapshot_json()))
    assert loaded.state_dict() == state
    assert len(loaded._index) == 0  # built on the first scan, not at load
    assert_scan_matches(loaded, "alpha 3", 2, T0 + hours(1))
    assert len(loaded._index) == loaded.active_count()



def test_array_rank_keys_order_as_rank_key():
    """The scan ranks its candidates from the index's columns: the `stamp`
    column must be `timestamp()` bit for bit, and the order must be
    `_rank_key`'s. Event times 1 us apart and shared by two records each,
    at T0, in year 1 and in year 9999; two scores, and a query dimension
    that half the rows lack (settled at +0.0), in both tiers. In years 1
    and 9999 a count of microseconds passes 2^53: there `micros / 1e6` in
    float64 rounds twice and misses `timestamp()`, and times 1 us apart
    share one `timestamp()`, so the id breaks their tie."""
    store = MemoryStore()
    far_past = datetime(1, 1, 1, tzinfo=timezone.utc)
    far_future = datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc)
    us = timedelta(microseconds=1)
    times = [t for off in range(41) for t in (T0 + off * us, far_past + off * us,
                                               far_future - off * us)]
    names = [f"r{i:03d}" for i in range(2 * len(times))]
    random.Random(5).shuffle(names)
    for i, name in enumerate(names):
        vec = np.zeros(256)
        vec[0], vec[1 + i % 200] = 0.5 * (i % 3 == 0), 0.5
        event = make_event(name, ts=times[i // 2], content=name)
        store.records[name] = EpisodicRecord(event=event, embedding=vec,
                                             tier=(TIER_HOT, TIER_WARM)[i % 5 == 0],
                                             ttl_expires_at=far_future)
    index = store.embedding_index()
    stamps = [store.records[key].event.timestamp.timestamp() for key in index.keys]
    assert index.column("stamp").tobytes() == np.array(stamps).tobytes()
    assert (index.column("timestamp") / 1e6 != index.column("stamp")).any()
    assert len(set(stamps)) < len(set(times))
    qvec = np.zeros(256)
    qvec[0] = 1.0
    for k in (1, 2, 3, 5, 10, 41, 82, 100, 200, len(names)):
        got = _episodic_scan(store, qvec, k, far_future)
        assert bits(got) == bits(scan_oracle(store, qvec, k, far_future))


def test_an_entry_that_underflows_in_float32_is_rescored():
    """A record and a graph memory whose embeddings meet the query only at
    an entry of 1e-300, which is zero in float32: each is rescored, not
    settled at +0.0, so it ranks above the candidates that score exactly
    0.0, as in the reference. Both are the oldest and hold the largest id,
    so at 0.0 they would rank last."""
    store = MemoryStore(StoreConfig(maturation_enabled=False))
    qvec = store.embedder.embed("Kestrel")
    (dim,) = qvec.nonzero()[0]
    others = [d for d in range(256) if d != dim]
    for i in range(6):
        vec = np.zeros(256)
        vec[others[i]] = 1.0
        if i == 5:
            vec[dim] = 1e-300 * np.sign(qvec[dim])
        event = make_event(f"r{i}", ts=T0 + hours(5 - i), content=f"Kestrel note {i}")
        store.records[event.id] = EpisodicRecord(event=event, embedding=vec,
                                                 entities=("Kestrel",))
        vec = vec.copy()
        vec[others[i]], vec[others[i + 10]] = 0.0, 1.0
        store.graph.insert_memory(f"Kestrel gist {i}", vec, frozenset({f"src{i}"}),
                                  ("Kestrel",), T0 + hours(5 - i))
    now = T0 + hours(6)
    scan = _episodic_scan(store, qvec, 2, now)
    assert bits(scan) == bits(scan_oracle(store, qvec, 2, now))
    assert scan[0].memory_id == "r5" and scan[0].base_sim > 0.0
    got = hybrid_retrieve(store, "Kestrel", 2, now)
    assert got == hybrid_reference(store, "Kestrel", 2, now)
    assert {h.memory_id for h in got.hits} == {"r5", "sem-000005"}
