import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from engram.calibration import (
    CalibrationCorpus,
    Turn,
    derive_profile,
    derive_thresholds,
    generate_corpus,
    percentile,
    roc_auc,
    similarity_distributions,
)
from engram.embedding import HashEmbedder
from engram.errors import DegenerateLabels, InsufficientSamples
from engram.model import StoreConfig

from oracles import similarity_distributions_by_pair_loop

EMB = HashEmbedder(256, 0)


# -- percentile ------------------------------------------------------------

def test_percentile_hand_examples():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile(list(range(100)), 99) == pytest.approx(98.01)
    assert percentile([5], 0) == 5
    assert percentile([5], 100) == 5


def test_percentile_validation():
    with pytest.raises(InsufficientSamples):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=60),
       st.floats(0, 100))
def test_percentile_bounded_and_monotone(samples, p):
    v = percentile(samples, p)
    assert min(samples) - 1e-9 <= v <= max(samples) + 1e-9
    assert percentile(samples, 0) == min(samples)
    assert percentile(samples, 100) == max(samples)


# -- similarity distributions ---------------------------------------------

def _tiny_corpus():
    sessions = []
    for s in range(4):
        turns = [Turn(text=f"topic {s} item {i} detail", label="substantive",
                      position=i) for i in range(3)]
        sessions.append((f"s{s}", turns))
    return CalibrationCorpus(sessions=sessions)


def test_distribution_pair_combinatorics():
    """2 sessions x 2 turns: 6 total pairs = 2 within + 4 cross."""
    corpus = CalibrationCorpus(sessions=[
        ("a", [Turn("one", "filler", 0), Turn("two", "filler", 1)]),
        ("b", [Turn("three", "filler", 0), Turn("four", "filler", 1)]),
    ])
    within, cross, all_pairs = similarity_distributions(corpus, EMB)
    assert len(within) == 2
    assert len(cross) == 4
    assert len(all_pairs) == 6
    n = 4
    assert len(all_pairs) == n * (n - 1) // 2


def test_distribution_counts_on_corpus():
    corpus = _tiny_corpus()
    within, cross, all_pairs = similarity_distributions(corpus, EMB)
    n = 12
    assert len(all_pairs) == n * (n - 1) // 2
    assert len(within) == 4 * 3  # 4 sessions x C(3,2)


def test_distributions_equal_the_pair_loop():
    """One stacked product per turn gives the per-pair loop's lists, float
    for float, on a generated corpus plus a session of a single turn."""
    corpus = generate_corpus(sessions=12)
    corpus.sessions.append(("lone", [Turn("a single turn on saffron", "substantive", 0)]))
    got = similarity_distributions(corpus, EMB)
    want = similarity_distributions_by_pair_loop(corpus, EMB)
    assert [[x.hex() for x in dist] for dist in got] == \
        [[x.hex() for x in dist] for dist in want]
    assert len(got[2]) == 121 * 120 // 2


# -- thresholds ------------------------------------------------------------

def threshold_oracle(within, cross, all_pairs):
    """Independent nearest-rank-with-interpolation percentile computation."""

    def pct(xs, p):
        xs = sorted(xs)
        rank = p / 100 * (len(xs) - 1)
        lo, hi = math.floor(rank), math.ceil(rank)
        return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)

    return pct(all_pairs, 99), 1 - pct(within, 95), pct(within, 90)


def test_derive_thresholds_matches_oracle_on_shipped_corpus():
    corpus = generate_corpus(seed=0)
    within, cross, all_pairs = similarity_distributions(corpus, EMB)
    got = derive_thresholds(within, cross, all_pairs)
    want = threshold_oracle(within, cross, all_pairs)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-12)


def test_derive_thresholds_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        derive_thresholds([0.1] * 5, [0.2] * 30, [0.1] * 35)


def test_shipped_defaults_are_fixed_constants():
    """The stock thresholds ship as defaults; calibration does not silently
    overwrite them."""
    c = StoreConfig()
    assert (c.near_dedup_threshold, c.cluster_distance,
            c.interference_threshold) == (0.559, 0.404, 0.542)


# -- ROC AUC ---------------------------------------------------------------

def auc_oracle(scores, labels):
    """Exhaustive pair counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


def test_roc_auc_hand_cases():
    assert roc_auc([0.1, 0.9], [0, 1]) == 1.0
    assert roc_auc([0.9, 0.1], [0, 1]) == 0.0
    assert roc_auc([0.1, 0.9, 0.6, 0.4], [0, 1, 0, 1]) == 0.75
    assert roc_auc([0.2, 0.8, 0.5, 0.5], [0, 1, 0, 1]) == 0.875  # one tie
    assert roc_auc([0.5, 0.5], [0, 1]) == 0.5


def test_roc_auc_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        roc_auc([0.1], [1, 0])


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1)),
    min_size=2, max_size=500).filter(
        lambda rows: len({y for _, y in rows}) == 2))
def test_roc_auc_matches_pair_counting(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    assert roc_auc(scores, labels) == pytest.approx(
        auc_oracle(scores, labels), abs=1e-12)


# -- profile ---------------------------------------------------------------

def test_derive_profile_deterministic():
    corpus = generate_corpus(seed=0)
    p1 = derive_profile(corpus, HashEmbedder(256, 0))
    p2 = derive_profile(generate_corpus(seed=0), HashEmbedder(256, 0))
    assert p1.to_json() == p2.to_json()
    assert p1.corpus_fingerprint == corpus.fingerprint()


def test_generate_corpus_seeded_and_labeled():
    c1 = generate_corpus(seed=7)
    c2 = generate_corpus(seed=7)
    c3 = generate_corpus(seed=8)
    assert c1.fingerprint() == c2.fingerprint()
    assert c1.fingerprint() != c3.fingerprint()
    labels = {t.label for _sid, t in c1.all_turns()}
    assert labels == {"substantive", "filler"}


def test_corpus_jsonl_roundtrip():
    corpus = generate_corpus(sessions=3, seed=1)
    again = CalibrationCorpus.from_jsonl(corpus.to_jsonl())
    assert again.fingerprint() == corpus.fingerprint()

