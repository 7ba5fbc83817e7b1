import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engram.consolidation import run_consolidation
from engram.embedding import HashEmbedder, normalize
from engram.errors import AlreadyTombstone
from engram.forgetting import (
    apply_ttl,
    degradation_due,
    degrade,
    forget_to_budget,
    interference,
    rank_forget_candidates,
    run_forgetting,
    tombstone,
)
from engram.model import (
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    EpisodicRecord,
    FidelityLevel,
    StoreConfig,
    estimate_tokens,
)
from engram.store import MemoryStore

from conftest import T0, assert_tombstone_of, hours, make_event, make_record, minutes

EMB = HashEmbedder(256, 0)


def _vec_record(eid, vec, ts, importance=0.5):
    ev = make_event(eid=eid, ts=ts, content=f"synthetic {eid}")
    return EpisodicRecord(event=ev, embedding=normalize(np.array(vec)),
                          importance=importance)


def _basis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def _mix(dim, i, j, sim):
    """Unit vector with cosine `sim` against basis(i)."""
    v = sim * _basis(dim, i) + np.sqrt(1 - sim * sim) * _basis(dim, j)
    return v


# -- interference fixtures -------------------------------------------------

def test_interference_single_retroactive_contributor():
    mem = _vec_record("m", _basis(8, 0), T0)
    newer = _vec_record("n", _mix(8, 0, 1, 0.9), T0 + hours(1))
    a = interference(mem, [newer], threshold=0.542)
    assert a.interference == pytest.approx(0.6 * 0.9, abs=1e-12)
    assert a.contributors == [("n", "retroactive", pytest.approx(0.9))]


def test_interference_mixed_fixture():
    # newer sim 0.8 (0.6 weight) + older sim 0.6 (0.4 weight) = 0.48 + 0.24
    mem = _vec_record("m", _basis(8, 0), T0)
    newer = _vec_record("n", _mix(8, 0, 1, 0.8), T0 + hours(1))
    older = _vec_record("o", _mix(8, 0, 2, 0.6), T0 - hours(1))
    a = interference(mem, [newer, older], threshold=0.542)
    assert a.interference == pytest.approx(0.72, abs=1e-12)


def test_interference_threshold_gates_contributors():
    mem = _vec_record("m", _basis(8, 0), T0)
    weak = _vec_record("w", _mix(8, 0, 1, 0.5), T0 + hours(1))
    a = interference(mem, [weak], threshold=0.542)
    assert a.interference == 0.0
    assert a.contributors == []


def test_interference_ignores_self():
    mem = _vec_record("m", _basis(8, 0), T0)
    assert interference(mem, [mem], threshold=0.542).interference == 0.0


@settings(max_examples=250, deadline=None)
@given(st.floats(0.55, 1.0), st.integers(0, 2**16))
def test_interference_asymmetry_property(sim, seed):
    """The same similar record contributes (0.6 - 0.4) * sim more when it is
    newer than when it is older."""
    import random
    rng = random.Random(seed)
    dt = rng.uniform(0.1, 100.0)
    mem = _vec_record("m", _basis(8, 0), T0)
    as_newer = _vec_record("x", _mix(8, 0, 1, sim), T0 + hours(dt))
    as_older = _vec_record("x", _mix(8, 0, 1, sim), T0 - hours(dt))
    retro = interference(mem, [as_newer], 0.542).interference
    pro = interference(mem, [as_older], 0.542).interference
    got_sim = float(np.dot(as_newer.embedding, mem.embedding))
    assert retro - pro == pytest.approx((0.6 - 0.4) * got_sim, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.542, 1.0), st.integers(-3, 3)),
                min_size=2, max_size=5))
def test_interference_is_one_float_for_every_order(contributors):
    """The sum is correctly rounded, so no order of `others` moves a bit."""
    mem = _vec_record("m", _basis(8, 0), T0)
    others = [_vec_record(f"o{i}", _mix(8, 0, i + 1, sim), T0 + hours(dt))
              for i, (sim, dt) in enumerate(contributors)]
    want = interference(mem, others, 0.542).interference
    for order in itertools.permutations(others):
        assert interference(mem, order, 0.542).interference == want


# -- TTL -------------------------------------------------------------------

def test_apply_ttl_tombstones_expired(store):
    store.ingest(make_event("old", ts=T0, content="will expire"))
    store.ingest(make_event("new", ts=T0 + hours(23), content="still fresh"))
    expired = apply_ttl(store, T0 + hours(24, ) + minutes(1))
    assert expired == ["old"]
    assert store.records["old"].state == STATE_TOMBSTONE
    assert store.records["old"].content == ""
    assert store.records["new"].state != STATE_TOMBSTONE


def test_apply_ttl_leaves_a_tombstone_of_existence_metadata(store):
    store.ingest(make_event("p", ts=T0, metadata={"outcome": "success"},
                            content="Alice closed the Meridian incident"))
    run_consolidation(store, T0 + hours(1))
    before = store.records["p"]
    assert before.entities and before.score_breakdown
    assert apply_ttl(store, before.ttl_expires_at + minutes(1)) == ["p"]
    assert_tombstone_of(store, before)


def test_tombstones_share_one_read_only_zero_vector(store):
    for eid in ("a", "b"):
        store.ingest(make_event(eid, ts=T0, content=f"note {eid}"))
    first, second = (tombstone(store.records[eid]) for eid in ("a", "b"))
    assert first.embedding is second.embedding
    assert not first.embedding.flags.writeable
    assert first.embedding.shape == (256,) and not first.embedding.any()
    for rec in (first, second):
        store.replace(rec)
        assert_tombstone_of(store, rec)


def test_apply_ttl_expires_promoted_episodic_copy_keeps_gist(store):
    store.ingest(make_event("p", ts=T0, metadata={"outcome": "success"},
                            content="Alice closed the Meridian incident"))
    run_consolidation(store, T0 + hours(1))
    rec = store.records["p"]
    assert rec.state == STATE_PROMOTED
    gists_before = len(store.graph.memories)
    assert gists_before == 1

    expired = apply_ttl(store, rec.ttl_expires_at + minutes(1))
    assert "p" in expired
    assert store.records["p"].state == STATE_TOMBSTONE
    # the semantic copy persists
    assert len(store.graph.memories) == gists_before


# -- degradation ladder ----------------------------------------------------

def test_degrade_walks_ladder():
    content = "First sentence about Alice. Then lots more detail follows here."
    rec = make_record(EMB, "d", content, ts=T0)
    rec = EpisodicRecord(event=rec.event, embedding=rec.embedding,
                         entities=("Alice",))
    tokens0 = estimate_tokens(rec.content)

    l1 = degrade(rec)
    assert l1.fidelity == FidelityLevel.L1
    assert estimate_tokens(l1.content) <= int(tokens0 * 0.75) + 1
    assert content.startswith(l1.content)

    l2 = degrade(l1)
    assert l2.fidelity == FidelityLevel.L2

    l3 = degrade(l2)
    assert l3.fidelity == FidelityLevel.L3
    assert "Alice" in l3.content  # first sentence + entities

    l4 = degrade(l3)
    assert l4.fidelity == FidelityLevel.L4
    assert l4.content == "comment: Alice"

    l5 = degrade(l4)
    assert l5.fidelity == FidelityLevel.L5
    assert l5.content == ""
    assert l5.state == STATE_TOMBSTONE
    assert l5.id == rec.id  # existence metadata preserved

    with pytest.raises(AlreadyTombstone):
        degrade(l5)


def test_degrade_from_l4_leaves_a_tombstone_of_existence_metadata(store):
    rec = make_record(EMB, "d", "Alice met Bob about Meridian", ts=T0,
                      metadata={"outcome": "success"}, causes=("c",))
    before = replace(rec, fidelity=FidelityLevel.L4, state=STATE_RETAINED,
                     entities=("Alice", "Bob"), score_breakdown={"surprise": 0.4},
                     access_count=2, source_ids=("d", "d2"))
    store.records["d"] = degrade(before)
    assert_tombstone_of(store, before)


def test_degradation_due_requires_age_and_low_importance():
    config = StoreConfig()
    young_low = make_record(EMB, "a", "x", ts=T0, importance=0.1)
    old_high = make_record(EMB, "b", "x", ts=T0, importance=0.99)
    old_low = make_record(EMB, "c", "x", ts=T0, importance=0.1)
    now = T0 + hours(200)  # past the 168h L0 gate
    assert not degradation_due(young_low, T0 + hours(10), config)
    assert not degradation_due(old_high, now, config)
    assert degradation_due(old_low, now, config)


# -- candidate ranking and budget -----------------------------------------

def _seeded_store(records):
    store = MemoryStore(StoreConfig(embed_dimension=8))
    for rec in records:
        store.records[rec.id] = rec
        store.total_ingested += 1
    return store


def test_rank_forget_candidates_matches_reference():
    recs = [
        _vec_record("a", _basis(8, 0), T0, importance=0.9),
        _vec_record("b", _mix(8, 0, 1, 0.9), T0 + hours(1), importance=0.2),
        _vec_record("c", _basis(8, 2), T0, importance=0.2),
    ]
    store = _seeded_store(recs)
    now = T0 + hours(2)
    ranked = rank_forget_candidates(store, now)
    config = store.config
    for prio, decayed, rec in ranked:
        ref = interference(rec, [r for r in recs if r.id != rec.id],
                           config.interference_threshold)
        from engram.model import decayed_importance
        ref_dec = decayed_importance(rec.importance, rec.encoded_at, now,
                                     config.lambda_decay)
        assert prio == pytest.approx(ref.interference / (ref_dec + 1e-6))
    # b: high interference, low importance -> most forgettable
    assert ranked[0][2].id == "b"


def test_rank_skips_promoted_and_labile():
    recs = [
        _vec_record("a", _basis(8, 0), T0),
        _vec_record("b", _mix(8, 0, 1, 0.9), T0 + hours(1)),
    ]
    store = _seeded_store(recs)
    from dataclasses import replace
    store.records["a"] = replace(store.records["a"], state=STATE_PROMOTED)
    store.labile_until["b"] = T0 + hours(3)
    assert rank_forget_candidates(store, T0 + hours(2)) == []


def test_forget_to_budget_walks_one_record_at_a_time(store):
    filler = [make_event(f"f{i}", ts=T0 + minutes(i), content="short note")
              for i in range(3)]
    keeper = make_event("keep", ts=T0, metadata={"outcome": "success"},
                        content="Juniper launch decision " +
                        " ".join(f"kw{j}" for j in range(20)))
    for ev in filler + [keeper]:
        store.ingest(ev)
    run_consolidation(store, T0 + hours(1))
    tokens = store.active_tokens()
    keep_tokens = estimate_tokens(store.records["keep"].content)
    report = forget_to_budget(store, keep_tokens + 2, T0 + hours(2))
    assert report.tokens_after == store.active_tokens()
    assert store.active_tokens() <= keep_tokens + 2
    assert report.budget_steps >= 1
    assert store.records["keep"].state != STATE_TOMBSTONE
    # the walk stops as soon as the budget is met: at most one record touched
    touched = [r for r in store.records.values()
               if r.fidelity > FidelityLevel.L0]
    assert len(touched) == 1


def test_forget_to_budget_noop_when_under_budget(store):
    store.ingest(make_event("a", ts=T0, content="tiny"))
    report = forget_to_budget(store, 10_000, T0 + hours(1))
    assert report.budget_steps == 0
    assert store.records["a"].fidelity == FidelityLevel.L0


def test_forget_to_budget_rejects_nonpositive(store):
    with pytest.raises(ValueError):
        forget_to_budget(store, 0, T0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16))
def test_budget_tokens_monotone_in_budget(seed):
    """Bigger budgets never end with fewer surviving tokens."""
    import random
    rng = random.Random(seed)
    totals = []
    for budget in (100, 400, 1600):
        store = MemoryStore(StoreConfig())
        for i in range(30):
            words = " ".join(f"v{seed}w{i}x{j}" for j in range(rng.randint(4, 20)))
            store.ingest(make_event(f"e{i:02d}", ts=T0 + minutes(i),
                                    content=words))
        run_consolidation(store, T0 + hours(1))
        report = forget_to_budget(store, budget, T0 + hours(2))
        assert report.tokens_after == store.active_tokens()
        # may end above budget only when promoted minima alone exceed it
        if store.active_tokens() > budget:
            assert all(r.state in (STATE_PROMOTED, STATE_TOMBSTONE)
                       for r in store.records.values())
        totals.append(store.active_tokens())
    assert totals == sorted(totals)


# -- full pass -------------------------------------------------------------

def test_run_forgetting_spares_error_signals(store):
    a = _vec_record("a", _basis(8, 0), T0, importance=0.1)
    b = _vec_record("b", _mix(8, 0, 1, 0.95), T0 + hours(1), importance=0.1)
    store = _seeded_store([a, b])
    from dataclasses import replace
    ev = store.records["a"].event
    store.records["a"] = replace(
        store.records["a"],
        event=replace(ev, metadata={"error_signal": "true"}),
        state=STATE_RETAINED,
        ttl_expires_at=T0 + hours(10_000))
    store.records["b"] = replace(store.records["b"], state=STATE_RETAINED,
                                 ttl_expires_at=T0 + hours(10_000))
    now = T0 + hours(400)  # old enough for the L0 age gate, importance decayed
    report = run_forgetting(store, now)
    assert store.records["a"].fidelity == FidelityLevel.L0  # spared
    assert store.records["b"].fidelity == FidelityLevel.L1  # degraded once


def test_run_forgetting_stops_at_the_priority_floor():
    """The interference step degrades only records whose priority is above
    the floor: "c" interferes with nothing, so at floor 0 it stays whole
    though it is old and unimportant, and at floor 1e9 nothing moves."""
    from dataclasses import replace
    for floor, degraded in ((0.0, {"a", "b"}), (1e9, set())):
        recs = [
            _vec_record("a", _basis(8, 0), T0, importance=0.1),
            _vec_record("b", _mix(8, 0, 1, 0.95), T0 + hours(1), importance=0.1),
            _vec_record("c", _basis(8, 2), T0, importance=0.1),
        ]
        store = _seeded_store([replace(r, state=STATE_RETAINED,
                                       ttl_expires_at=T0 + hours(10_000))
                               for r in recs])
        store.config.forget_priority_floor = floor
        report = run_forgetting(store, T0 + hours(400))
        assert report.interference_degraded == len(degraded)
        assert {k for k, r in store.records.items()
                if r.fidelity == FidelityLevel.L1} == degraded


def test_run_forgetting_never_hard_deletes(store):
    for i in range(10):
        store.ingest(make_event(f"e{i}", ts=T0 + minutes(i),
                                content=f"note {i} " +
                                " ".join(f"n{i}{j}" for j in range(8))))
    run_consolidation(store, T0 + hours(1))
    ids_before = set(store.records)
    run_forgetting(store, T0 + hours(5000), budget=10)
    assert set(store.records) == ids_before  # tombstones, never deletions
