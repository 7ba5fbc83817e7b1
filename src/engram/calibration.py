"""Synthetic calibration: similarity-distribution percentile rules.

The shipped thresholds (0.559 / 0.404 / 0.542) come from an unpublished
corpus; this module re-derives them from any labeled corpus,
deterministically, with no benchmark exposure. The scorer's weights are
fixed (`scoring.FIVE_FACTOR_DEFAULTS`); `roc_auc` measures how well a
signal separates substantive turns from filler. Each pair's similarity is
its `np.dot`, bit for bit, from one stacked product per turn.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .codec import encode
from .embedding import row_dots
from .errors import DegenerateLabels, InsufficientSamples

LABEL_SUBSTANTIVE = "substantive"
LABEL_FILLER = "filler"


@dataclass
class Turn:
    text: str
    label: str
    position: int


@dataclass
class CalibrationCorpus:
    sessions: list[tuple[str, list[Turn]]]

    def all_turns(self) -> list[tuple[str, Turn]]:
        return [(sid, t) for sid, turns in self.sessions for t in turns]

    def fingerprint(self) -> str:
        payload = json.dumps(
            [[sid, [encode(t) for t in turns]] for sid, turns in self.sessions],
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_jsonl(self) -> str:
        lines = []
        for sid, turns in self.sessions:
            for t in turns:
                lines.append(json.dumps({"session_id": sid, **encode(t)},
                                        sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "CalibrationCorpus":
        sessions: dict[str, list[Turn]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            sessions.setdefault(d["session_id"], []).append(
                Turn(text=d["text"], label=d["label"], position=d["position"]))
        return cls(sessions=list(sessions.items()))


@dataclass
class CalibrationProfile:
    near_dedup_threshold: float
    cluster_distance: float
    interference_threshold: float
    corpus_fingerprint: str

    def to_json(self) -> str:
        return json.dumps(encode(self), sort_keys=True, separators=(",", ":"))


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks, inclusive endpoints."""
    if not samples:
        raise InsufficientSamples("empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must lie in [0, 100]")
    ordered = sorted(samples)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def similarity_distributions(corpus: CalibrationCorpus, embedder
                             ) -> tuple[list[float], list[float], list[float]]:
    """All unordered turn pairs in (i, j) order, split by session
    membership; |all| equals |within| + |cross| by construction. One
    `row_dots` product scores each turn's pairs with the later turns."""
    turns = corpus.all_turns()
    vecs = np.array([embedder.embed(t.text) for _sid, t in turns])
    sessions = np.array([sid for sid, _t in turns])
    within: list[float] = []
    cross: list[float] = []
    for i in range(len(turns) - 1):
        sims = row_dots(vecs[i + 1:], vecs[i])
        same = sessions[i + 1:] == sessions[i]
        within += sims[same].tolist()
        cross += sims[~same].tolist()
    return within, cross, within + cross


def derive_thresholds(within: Sequence[float], cross: Sequence[float],
                      all_pairs: Sequence[float]) -> tuple[float, float, float]:
    """Percentile rules: near-dedup = P99 of all pairs, cluster distance =
    1 - P95 of within-session, interference = P90 of within-session."""
    for name, dist in (("within", within), ("cross", cross), ("all", all_pairs)):
        if len(dist) < 20:
            raise InsufficientSamples(f"{name} distribution has {len(dist)} pairs (<20)")
    return (percentile(all_pairs, 99.0),
            1.0 - percentile(within, 95.0),
            percentile(within, 90.0))


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUC: probability a random positive outscores a random
    negative, ties counted one half."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align")
    n_pos = sum(1 for y in labels if y)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need both positive and negative labels")
    # rank-sum with midranks for ties
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = midrank
        i = j + 1
    rank_sum_pos = sum(r for r, y in zip(ranks, labels) if y)
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def derive_profile(corpus: CalibrationCorpus, embedder) -> CalibrationProfile:
    within, cross, all_pairs = similarity_distributions(corpus, embedder)
    near, cluster_d, interf = derive_thresholds(within, cross, all_pairs)
    return CalibrationProfile(
        near_dedup_threshold=near,
        cluster_distance=cluster_d,
        interference_threshold=interf,
        corpus_fingerprint=corpus.fingerprint(),
    )


# -- deterministic template corpus generator ------------------------------

_TOPIC_KEYWORDS = {
    "travel": ["itinerary", "flights", "lisbon", "museum", "harbor", "trains"],
    "cooking": ["fermentation", "sourdough", "braise", "saffron", "skillet", "umami"],
    "fitness": ["intervals", "cadence", "deadlift", "recovery", "tempo", "mobility"],
    "finance": ["portfolio", "rebalance", "index", "dividend", "ledger", "accrual"],
    "gardening": ["compost", "perennial", "trellis", "mulch", "pruning", "loam"],
    "music": ["chord", "voicing", "arpeggio", "tempo", "phrasing", "cadence"],
    "astronomy": ["aperture", "nebula", "transit", "occultation", "parallax", "albedo"],
    "woodwork": ["dovetail", "chisel", "grain", "varnish", "mortise", "kerf"],
    "chess": ["gambit", "endgame", "zugzwang", "fianchetto", "tempo", "blunder"],
    "photography": ["aperture", "bokeh", "exposure", "histogram", "tripod", "grading"],
    "cycling": ["derailleur", "cadence", "puncture", "gravel", "drafting", "wattage"],
    "pottery": ["glaze", "kiln", "slip", "wedging", "bisque", "throwing"],
    "languages": ["declension", "cognate", "idiom", "phoneme", "syntax", "fluency"],
    "hiking": ["switchback", "ridgeline", "cairn", "scree", "traverse", "basecamp"],
}

_FILLER_PHRASES = [
    "ok thanks", "sounds good", "sure", "got it", "great, thanks!",
    "makes sense", "will do", "ok", "thanks again", "perfect",
]


def generate_corpus(topics: Optional[Sequence[str]] = None,
                    sessions: int = 50,
                    turns_per_session: int = 10,
                    substantive_ratio: float = 0.78,
                    seed: int = 0) -> CalibrationCorpus:
    """Template-based labeled corpus: substantive turns are long
    keyword-rich sentences, filler turns short generic phrases, and topics
    return across sessions. Fully deterministic for a given seed."""
    rng = random.Random(seed)
    topics = list(topics or _TOPIC_KEYWORDS)
    out: list[tuple[str, list[Turn]]] = []
    for s in range(sessions):
        topic = topics[s % len(topics)]
        keywords = _TOPIC_KEYWORDS.get(topic, [topic])
        turns: list[Turn] = []
        for pos in range(turns_per_session):
            if rng.random() < substantive_ratio:
                picks = rng.sample(keywords, k=min(3, len(keywords)))
                extra = rng.randint(100, 999)
                text = (f"For the {topic} plan we compared {picks[0]} against "
                        f"{picks[1]} and settled on adjusting the {picks[2]} "
                        f"setup, noting reference value {extra} for next time.")
                label = LABEL_SUBSTANTIVE
            else:
                text = rng.choice(_FILLER_PHRASES)
                label = LABEL_FILLER
            turns.append(Turn(text=text, label=label, position=pos))
        out.append((f"session-{s:03d}", turns))
    return CalibrationCorpus(sessions=out)

