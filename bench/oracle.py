"""Checks made apart from the program: an independent query embedder, a
brute-force ranking oracle, hit-list properties and ground-truth metrics.

Nothing here compares against a stored copy of earlier output; every check
recomputes what the method must produce from its documented formula.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

TIER_PRIORITY = {"hot": 0, "warm": 1, "graph": 2}
SIM_TOL = 1e-9

_TOKEN_RE = re.compile(r"[#@]?[\w'-]+")


def embed(text: str, dimension: int, seed: int) -> np.ndarray:
    """Signed feature hashing with keyed blake2b, written from the embedding
    layer's documented rule: bucket = h mod d, sign = bit 32 of h, empty
    text maps to the first basis vector, the result has unit norm."""
    key = seed.to_bytes(8, "little", signed=True)
    vec = np.zeros(dimension, dtype=np.float64)
    for tok in _TOKEN_RE.findall(text.lower()):
        h = int.from_bytes(hashlib.blake2b(tok.encode("utf-8"), digest_size=8,
                                           key=key).digest(), "little")
        vec[h % dimension] += 1.0 if (h >> 32) & 1 else -1.0
    if float(np.linalg.norm(vec)) < 1e-12:
        vec[0] = 1.0
    return vec / float(np.linalg.norm(vec))


def query_vector(store, query: str) -> np.ndarray:
    return embed(query, store.config.embed_dimension, store.config.embed_seed)


def _hours(earlier, later) -> float:
    return (later - earlier).total_seconds() / 3600.0


def recency_boost(config, timestamp, now) -> float:
    age_h = max(_hours(timestamp, now), 0.0)
    return 1.0 + config.recency_boost_beta * math.exp(
        -config.recency_boost_lambda * age_h)


def rank_key(score: float, tier: str, timestamp, memory_id: str):
    """Documented tie order: higher score, then hot > warm > graph, then the
    newer timestamp, then the smaller id."""
    return (-score, TIER_PRIORITY[tier], -timestamp.timestamp(), memory_id)


def check_hits(store, result, query: str, now, k: int) -> list[str]:
    """Properties every hit list must have. Returns a list of violations.

    At most k hits, sorted in the documented order; no tombstoned record;
    no gist whose source is already present above it; every base_sim equals
    the cosine recomputed here; every final score equals base_sim times the
    recency boost recomputed here times the priming boost (1 for gists).
    """
    errs: list[str] = []
    hits = result.hits
    if len(hits) > k:
        errs.append(f"{query!r}: {len(hits)} hits > k={k}")
    q = query_vector(store, query)
    keys = [rank_key(h.final_score, h.tier, h.timestamp, h.memory_id) for h in hits]
    if keys != sorted(keys):
        errs.append(f"{query!r}: hits not in rank order")
    present: set[str] = set()
    for h in hits:
        if h.tier == "graph":
            mem = store.graph.memories.get(h.memory_id)
            if mem is None:
                errs.append(f"{query!r}: unknown gist {h.memory_id}")
                continue
            emb = mem.embedding
            if present.intersection(h.source_ids):
                errs.append(f"{query!r}: gist {h.memory_id} repeats a present source")
            if h.priming_boost != 1.0:
                errs.append(f"{query!r}: gist {h.memory_id} primed")
        else:
            rec = store.records.get(h.memory_id)
            if rec is None or rec.state == "tombstone":
                errs.append(f"{query!r}: hit {h.memory_id} is missing or a tombstone")
                continue
            emb = rec.embedding
            present.add(h.memory_id)
        present.update(h.source_ids)
        sim = float(np.dot(q, emb))
        if abs(sim - h.base_sim) > SIM_TOL:
            errs.append(f"{query!r}: {h.memory_id} base_sim {h.base_sim!r} != {sim!r}")
        boost = recency_boost(store.config, h.timestamp, now)
        if abs(boost - h.recency_boost) > SIM_TOL:
            errs.append(f"{query!r}: {h.memory_id} recency {h.recency_boost!r} != {boost!r}")
        want = h.base_sim * h.recency_boost * h.priming_boost
        if abs(want - h.final_score) > SIM_TOL:
            errs.append(f"{query!r}: {h.memory_id} final score is not the product")
    return errs


class EpisodicIndex:
    """Brute-force numpy view of the store's non-tombstone records, built
    once per store state."""

    def __init__(self, store, now):
        recs = [r for r in store.records.values() if r.state != "tombstone"]
        lam = store.config.lambda_decay
        floor = store.config.importance_filter
        recs = [r for r in recs
                if r.importance * math.exp(-lam * _hours(r.encoded_at, now)) >= floor]
        self.records = recs
        self.matrix = (np.stack([r.embedding for r in recs]) if recs
                       else np.zeros((0, store.config.embed_dimension)))


def oracle_top_k(store, index: EpisodicIndex, query: str, now, k: int
                 ) -> list[tuple[str, float]]:
    """Ranking written from the retrieval formula for a store without
    semantic memories: the k most similar records of each tier (documented
    tie order), merged, scored sim x recency boost, sorted, cut to k."""
    sims = index.matrix @ query_vector(store, query)
    pool = []
    for tier in ("hot", "warm"):
        rows = [(float(sims[i]), r) for i, r in enumerate(index.records)
                if r.tier == tier]
        rows.sort(key=lambda sr: rank_key(sr[0], tier, sr[1].event.timestamp, sr[1].id))
        pool.extend(rows[:k])
    scored = [(s * recency_boost(store.config, r.event.timestamp, now), r)
              for s, r in pool]
    scored.sort(key=lambda sr: rank_key(sr[0], sr[1].tier, sr[1].event.timestamp,
                                        sr[1].id))
    return [(r.id, s) for s, r in scored[:k]]


def same_ranking(got: list[tuple[str, float]], want: list[tuple[str, float]],
                 tol: float = 1e-12) -> bool:
    """Equal id lists, except that two ids may swap where their scores agree
    to within `tol` (a matrix product and a dot product may round the last
    bit differently)."""
    if len(got) != len(want):
        return False
    want_score = dict(want)
    for (gid, gs), (wid, ws) in zip(got, want):
        if abs(gs - ws) > tol:
            return False
        if gid != wid and abs(want_score.get(gid, math.inf) - gs) > tol:
            return False
    return True


def target_found(result, target_id: str) -> bool:
    """The planted target counts when it is a hit itself or sits in a hit's
    source ids (a dedup survivor that absorbed it, or a gist built from it)."""
    return any(h.memory_id == target_id or target_id in h.source_ids
               for h in result.hits)


def retention_counts(store, manifest) -> tuple[int, int]:
    """(referenced, retained): retained records are non-tombstone at
    fidelity L3 or better; referenced ones are those the ground truth marks
    future-referenced. Retention precision is their ratio."""
    retained = [r for r in store.records.values()
                if r.state != "tombstone" and int(r.fidelity) <= 3]
    truth = manifest.ground_truth
    referenced = sum(1 for r in retained
                     if r.id in truth and truth[r.id].future_referenced)
    return referenced, len(retained)


def active_tokens(store) -> int:
    """ceil(chars / 4) summed over non-tombstone records."""
    return sum(-(-len(r.content) // 4) for r in store.records.values()
               if r.state != "tombstone")


def untouchable_tokens(store, now) -> int:
    """Tokens budget forgetting may not remove: promoted or labile records."""
    total = 0
    for r in store.records.values():
        if r.state == "tombstone":
            continue
        until = store.labile_until.get(r.id)
        if r.state == "promoted" or (until is not None and now < until):
            total += -(-len(r.content) // 4)
    return total
