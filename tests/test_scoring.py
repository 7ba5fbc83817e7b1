import math

import pytest
from hypothesis import given, settings, strategies as st

from engram.embedding import HashEmbedder
from engram.errors import EmptyBatch
from engram.graph import KnowledgeGraph
from engram.model import StoreConfig
from engram.scoring import (
    FIVE_FACTOR_DEFAULTS,
    apply_authority_downweight,
    classify,
    composite_importance,
    entity_salience_factor,
    frequency_factor,
    outcome_factor,
    recency_factor,
    score_record,
    surprise_factor,
)

from conftest import T0, hours, make_event, make_record

EMB = HashEmbedder(256, 0)


def test_default_weights_sum_to_one():
    assert sum(FIVE_FACTOR_DEFAULTS.values()) == pytest.approx(1.0)


def test_recency_factor_decays():
    assert recency_factor(T0, T0, 0.001) == 1.0
    assert recency_factor(T0, T0 + hours(693.147), 0.001) == \
        pytest.approx(0.5, abs=1e-6)


def test_frequency_factor_counts_similar():
    a = make_record(EMB, "a", "alpha beta gamma delta")
    b = make_record(EMB, "b", "alpha beta gamma delta")
    c = make_record(EMB, "c", "totally unrelated words here")
    assert frequency_factor(a, [], 0.559) == 1.0
    assert frequency_factor(a, [b], 0.559) == pytest.approx(0.5)
    assert frequency_factor(a, [b, c], 0.559) == pytest.approx(0.5)


def test_surprise_factor():
    v = EMB.embed("one")
    assert surprise_factor(v, None) == 1.0
    assert surprise_factor(v, v) == pytest.approx(0.0)


def test_outcome_factor():
    assert outcome_factor(make_event(metadata={"outcome": "success"})) == 1.0
    assert outcome_factor(make_event(metadata={"outcome": "failure"})) == 0.25
    assert outcome_factor(make_event()) == 0.0


def test_entity_salience_uses_graph_max():
    g = KnowledgeGraph()
    g.insert_memory("Alice met Bob", EMB.embed("Alice met Bob"),
                    frozenset({"e1"}), ("Alice", "Bob"), T0)
    g.insert_memory("Alice again", EMB.embed("Alice again"),
                    frozenset({"e2"}), ("Alice",), T0)
    assert entity_salience_factor((), g) == 0.0
    assert entity_salience_factor(("Alice",), g) == 1.0
    assert 0.0 < entity_salience_factor(("Bob",), g) <= 1.0


def test_composite_hand_example():
    factors = {"recency": 1.0, "frequency": 0.5, "surprise": 1.0,
               "entity_salience": 0.0, "outcome": 1.0}
    composite, breakdown = composite_importance(factors)
    # 0.25*1 + 0.25*0.5 + 0.20*1 + 0.15*0 + 0.15*1
    assert composite == pytest.approx(0.725)
    assert breakdown["composite"] == composite


def test_composite_missing_factor():
    with pytest.raises(KeyError):
        composite_importance({"recency": 1.0})


@given(st.dictionaries(
    st.sampled_from(sorted(FIVE_FACTOR_DEFAULTS)),
    st.floats(0.0, 1.0), min_size=5, max_size=5),
    st.sampled_from(sorted(FIVE_FACTOR_DEFAULTS)),
    st.floats(0.0, 0.5))
def test_composite_monotone_in_each_factor(factors, name, bump):
    """Raising any single factor never lowers the composite."""
    lo, _ = composite_importance(factors)
    raised = dict(factors)
    raised[name] = min(1.0, raised[name] + bump)
    hi, _ = composite_importance(raised)
    assert hi >= lo - 1e-12


@given(st.dictionaries(
    st.sampled_from(sorted(FIVE_FACTOR_DEFAULTS)),
    st.floats(0.0, 1.0), min_size=5, max_size=5))
def test_composite_bounded(factors):
    composite, _ = composite_importance(factors)
    assert -1e-12 <= composite <= 1.0 + 1e-12


def test_authority_downweight():
    config = StoreConfig()
    auto = make_event(actor="automation", metadata={"authority": "0.1"})
    assert apply_authority_downweight(0.8, auto, surprise=0.2,
                                     config=config) == pytest.approx(0.4)
    # surprising automation events keep full weight
    assert apply_authority_downweight(0.8, auto, surprise=0.9,
                                     config=config) == 0.8
    human = make_event(actor="user")
    assert apply_authority_downweight(0.8, human, surprise=0.2,
                                     config=config) == 0.8
    trusted = make_event(actor="automation", metadata={"authority": "0.9"})
    assert apply_authority_downweight(0.8, trusted, surprise=0.2,
                                     config=config) == 0.8


def test_score_record_breakdown_complete():
    config = StoreConfig()
    rec = make_record(EMB, "a", "Alice shipped the fix",
                      metadata={"outcome": "success"})
    composite, breakdown = score_record(rec, T0, [], None, KnowledgeGraph(),
                                        config)
    assert set(breakdown) == set(FIVE_FACTOR_DEFAULTS) | {"composite"}
    assert breakdown["composite"] == composite
    assert 0.0 <= composite <= 1.0


# -- classification -------------------------------------------------------

def _batch(n, seed=0):
    import random
    rng = random.Random(seed)
    return [make_record(EMB, f"r{i:03d}", f"content {i}",
                        ts=T0 + hours(rng.random()),
                        importance=rng.random()) for i in range(n)]


def test_classify_rejects_empty():
    with pytest.raises(EmptyBatch):
        classify([])


def test_classify_fractions_exact():
    for n in (1, 2, 3, 4, 5, 10, 99, 100):
        cls = classify(_batch(n))
        assert len(cls.promote) == math.ceil(0.2 * n)
        assert len(cls.prune) == math.floor(0.2 * n)
        assert len(cls.retain) == n - len(cls.promote) - len(cls.prune)


def test_classify_orders_by_importance():
    cls = classify(_batch(20))
    lowest_promoted = min(r.importance for r in cls.promote)
    assert all(r.importance <= lowest_promoted for r in cls.retain)
    highest_pruned = max(r.importance for r in cls.prune)
    assert all(r.importance >= highest_pruned for r in cls.retain)


def test_classify_tie_break_older_then_id():
    recs = [
        make_record(EMB, "b", "v", ts=T0, importance=0.5),
        make_record(EMB, "a", "w", ts=T0 + hours(1), importance=0.5),
        make_record(EMB, "c", "x", ts=T0, importance=0.5),
        make_record(EMB, "d", "y", ts=T0 + hours(2), importance=0.5),
        make_record(EMB, "e", "z", ts=T0 + hours(3), importance=0.5),
    ]
    cls = classify(recs)
    # same importance: older encoded_at first, then id
    assert [r.id for r in cls.promote] == ["b"]
    assert [r.id for r in cls.retain] == ["c", "a", "d"]
    assert [r.id for r in cls.prune] == ["e"]


@settings(max_examples=50)
@given(st.integers(1, 100), st.integers(0, 2**16))
def test_classify_partition_is_exact(n, seed):
    batch = _batch(n, seed)
    cls = classify(batch)
    ids = [r.id for r in cls.promote + cls.retain + cls.prune]
    assert sorted(ids) == sorted(r.id for r in batch)
    assert len(set(ids)) == n


def test_classify_deterministic_across_shuffles():
    import random
    batch = _batch(30, seed=5)
    baseline = classify(batch)
    shuffled = batch[:]
    random.Random(9).shuffle(shuffled)
    again = classify(shuffled)
    assert [r.id for r in baseline.promote] == [r.id for r in again.promote]
    assert [r.id for r in baseline.prune] == [r.id for r in again.prune]
