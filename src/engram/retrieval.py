"""Hybrid retrieval across hot/warm episodic tiers and the semantic graph,
plus post-retrieval reconsolidation.

Ranking: final = base_sim * (1 + beta * exp(-lambda_r * age_h)) * priming.
Exact score ties break by tier priority (hot > warm > graph), then newer
timestamp, then id. A semantic gist is dropped from results whenever one of
its source episodic records is already present.

The episodic tiers are one product over the store's embedding index. The
graph pathway takes one priming weight and one recency boost per sleep its
walk reaches, and scores the matured memories in one product over the
graph's query state; past the walk's sets of reached ids, its cost follows
the sleeps, not the memories. The index and the query state each hold an
`EmbeddingMatrix`, whose `bound` and `exact_scores` both pathways use.
Both rank the candidates that can make the top k as arrays: a candidate
that shares no non-zero dimension with the query scores +0.0 without a
product, one stacked product scores the rest exactly as `np.dot` does, and
one lexsort over `_rank_keys`, the array form of `_rank_key`, picks the k
winners. Only the winners read their records or memories and become
`Hit`s. Lability, reconsolidation and reinforcement share one lookup of
their target, `_target`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Callable, Optional, Sequence

import numpy as np

from .embedding import normalize
from .errors import AlreadyTombstone, LabilityExpired
from .graph import SemanticMemory, priming_weight
from .model import (
    STATE_TOMBSTONE,
    TIER_HOT,
    TIER_WARM,
    decayed_importance,
    evolve,
    hours_between,
)
from .store import EmbeddingIndex, MemoryStore

log = logging.getLogger("engram.retrieval")

TIER_GRAPH = "graph"
_TIER_PRIORITY = {TIER_HOT: 0, TIER_WARM: 1, TIER_GRAPH: 2}


@dataclass
class Hit:
    memory_id: str
    tier: str
    base_sim: float
    recency_boost: float = 1.0
    priming_boost: float = 1.0
    final_score: float = 0.0
    timestamp: datetime = None  # type: ignore[assignment]
    content: str = ""
    source_ids: tuple[str, ...] = ()
    hop_distance: Optional[int] = None


@dataclass
class RetrievalResult:
    query: str
    k: int
    as_of: datetime
    hits: list[Hit] = field(default_factory=list)


@dataclass
class LabilityHandle:
    memory_id: str
    opened_at: datetime
    expires_at: datetime


def _rank_key(hit: Hit):
    return (-hit.final_score, _TIER_PRIORITY[hit.tier],
            -hit.timestamp.timestamp(), hit.memory_id)


def _rank_keys(rows: np.ndarray, scores: np.ndarray, stamps: np.ndarray,
               tiers: Optional[np.ndarray] = None) -> np.ndarray:
    """`_rank_key` of `rows` but the id, as `_winners` reads it: the rows
    `stamps[rows]`, the negated tier priorities `tiers[rows]` (the index's
    tier codes) when tiers differ, and `scores`."""
    keys = np.empty((2 if tiers is None else 3, len(rows)))
    stamps.take(rows, out=keys[0])
    if tiers is not None:
        np.negative(tiers[rows], out=keys[1])
    keys[-1] = scores
    return keys


def _winners(n: int, keys: Callable[[], np.ndarray], name: Callable[[int], str],
             k: int) -> Sequence[int]:
    """The positions of the k best of `n` candidates, in no set order: the
    greatest by the rows of the 2-D array `keys()`, compared from the last
    row back, then the least by `name(i)`. With the rows of `_rank_keys`,
    that is `_rank_key` order; ids are unique, so the order is total.

    With at most k candidates all of them win, and no key is read. Else
    one lexsort ranks them by the keys, and names are read only when the
    ties of the k-th key run past the cut, and then of those ties alone."""
    if n <= k:
        return range(n)
    keys = keys()
    order = np.lexsort(keys)  # the best last
    loser, last = keys[:, order[n - k - 1:n - k + 1]].T.tolist()
    if loser != last:
        return order[n - k:].tolist()
    tied = (keys == keys[:, order[n - k], None]).all(axis=0)
    ahead = [i for i in order[n - k:].tolist() if not tied[i]]
    return ahead + sorted(tied.nonzero()[0].tolist(), key=name)[:k - len(ahead)]


def _top_hits(store: MemoryStore, index: EmbeddingIndex, qvec: np.ndarray,
              groups: list[np.ndarray], k: int, now: datetime,
              importance_filter: Optional[float] = None) -> list[list[Hit]]:
    """For each of `groups`, disjoint arrays of embedding-index rows: the
    top-k of its rows whose decayed importance passes the filter, by
    `_rank_key` on the float64 `np.dot(qvec, embedding)`.

    One float32 product picks every group's candidates
    (`EmbeddingIndex.top_candidates`), and one ranking step settles them
    as arrays (`EmbeddingMatrix.exact_scores`): a candidate that shares no
    non-zero dimension with the query scores +0.0 without a product, and
    one stacked product over the embeddings the index holds rescores the
    rest. `_winners` then takes each group's k best by the `_rank_keys` of
    the index's time stamp and tier columns. Only the winners read their
    records and become `Hit`s, which sort by `_rank_key`."""
    if importance_filter is None:
        importance_filter = store.config.importance_filter
    lam = store.config.lambda_decay
    records, keys = store.records, index.keys
    importance = index.column("importance")
    passing = []
    for rows in groups:
        # a non-negative importance decays to a non-negative value, which a
        # filter <= 0 always passes; every other row is decided exactly
        if importance_filter > 0.0:
            undecided = range(len(rows))
        elif not len(rows) or importance[rows].min() >= 0.0:
            undecided = ()
        else:
            undecided = (~(importance[rows] >= 0.0)).nonzero()[0]
        dropped = []
        for i in undecided:
            rec = records[keys[rows[i]]]
            if decayed_importance(rec.importance, rec.encoded_at, now,
                                  lam) < importance_filter:
                dropped.append(i)
        passing.append(np.delete(rows, dropped) if dropped else rows)
    candidates = index.top_candidates(qvec, passing, k)
    rows = np.concatenate(candidates)
    at = rows.tolist()
    sims = index.embeddings.exact_scores(qvec, rows)
    stamp, tier = index.column("stamp"), index.column("tier")
    out, lo = [], 0
    for group in candidates:
        hi = lo + len(group)
        hits = []
        for i in _winners(hi - lo, lambda: _rank_keys(rows[lo:hi], sims[lo:hi], stamp, tier),
                          lambda i: keys[at[lo + i]], k):
            rec = records[keys[at[lo + i]]]
            sim = float(sims[lo + i])
            hits.append(Hit(memory_id=rec.id, tier=rec.tier, base_sim=sim, final_score=sim,
                            timestamp=rec.event.timestamp, content=rec.content,
                            source_ids=rec.source_ids))
        hits.sort(key=_rank_key)
        out.append(hits)
        lo = hi
    return out


def _episodic_scan(store: MemoryStore, qvec: np.ndarray, k: int,
                   now: datetime,
                   time_range: Optional[tuple[datetime, datetime]] = None,
                   session_id: Optional[str] = None,
                   tier: Optional[str] = None,
                   importance_filter: Optional[float] = None) -> list[Hit]:
    """Top-k of the visible records passing the filters, by `_rank_key` on
    the float64 `np.dot(qvec, embedding)`. The store's embedding index
    applies the filters as array masks and picks candidates with one float32
    product; only the candidates are rescored."""
    with store.lock:
        index = store.embedding_index()
        rows = index.where(index.visible(now, time_range), tier=tier,
                           session_id=session_id)
        return _top_hits(store, index, qvec, [rows], k, now, importance_filter)[0]


def episodic_search(store: MemoryStore, query: str, k: int,
                    now: datetime,
                    time_range: Optional[tuple[datetime, datetime]] = None,
                    session_id: Optional[str] = None,
                    tier: Optional[str] = None,
                    importance_filter: Optional[float] = None) -> list[Hit]:
    """Exact cosine scan over non-tombstone episodic records passing the
    temporal/session filters, top-k by similarity. Records encoded after
    `now` are not visible."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return _episodic_scan(store, store.embedder.embed(query), k, now,
                          time_range, session_id, tier, importance_filter)


def hybrid_retrieve(store: MemoryStore, query: str, k: Optional[int] = None,
                    now: Optional[datetime] = None,
                    session_id: Optional[str] = None) -> RetrievalResult:
    """Hot-tier session hits, then warm episodic hits, then graph traversal
    seeded by entities of the top episodic hits; merged, deduplicated by
    source-id overlap, recency-boosted and primed, truncated to k. The query
    is embedded once. `now` defaults to the store's logical now. A query is
    point-in-time: records encoded and memories created after `now` are not
    visible to it. Everything after the embedding runs under the store's
    lock, so no writer changes the store mid-query.

    The episodic tiers take one pass (`_top_hits`): one selection of the
    visible rows, split by tier code (the hot tier also by session), one
    float32 product and bound for both, and one ranking step that makes
    hits of each tier's k best only. The graph pathway (`_graph_pathway`)
    weighs each sleep's memories once, as a group, and ranks its matured
    candidates the same way. `now` defaults to `logical_now`, which the
    store keeps without a walk over its records."""
    config = store.config
    if k is None:
        k = config.retrieval_k
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    qvec = store.embedder.embed(query)
    with store.lock:
        if now is None:
            now = store.logical_now() or datetime.now(timezone.utc)
        index = store.embedding_index()
        visible = index.visible(now)
        # each record has one tier, so the hot and warm hits are disjoint
        hot, warm = _top_hits(store, index, qvec,
                              [index.where(visible, tier=TIER_HOT,
                                           session_id=session_id),
                               index.where(visible, tier=TIER_WARM)], k, now)
        episodic_hits = hot + warm

        # graph pathway seeded by entities of the strongest episodic hits
        seed_entities: dict[str, None] = {}
        for hit in episodic_hits[:k]:
            for name in store.records[hit.memory_id].entities:
                seed_entities.setdefault(name, None)
        # merge + dedupe: an episodic copy beats its own semantic gist
        covered_sources: set[str] = set()
        for hit in episodic_hits:
            covered_sources.update(hit.source_ids)
            covered_sources.add(hit.memory_id)
        graph_hits, silent_by_entity = _graph_pathway(
            store, qvec, seed_entities, covered_sources, k, now)

        # silent memories prime episodic results sharing an entity
        for hit in episodic_hits:
            hit.recency_boost = _recency_boost(hit.timestamp, now, config)
            if silent_by_entity:
                best = max((silent_by_entity.get(n.casefold(), 0.0)
                            for n in store.records[hit.memory_id].entities),
                           default=0.0)
                if best > 0.0:
                    hit.priming_boost = 1.0 + config.priming_gamma * best
            hit.final_score = hit.base_sim * hit.recency_boost * hit.priming_boost

    merged = episodic_hits + graph_hits
    merged.sort(key=_rank_key)
    return RetrievalResult(query=query, k=k, as_of=now, hits=merged[:k])


def _recency_boost(timestamp: datetime, now: datetime, config) -> float:
    age_h = max(hours_between(timestamp, now), 0.0)
    return 1.0 + config.recency_boost_beta * math.exp(-config.recency_boost_lambda * age_h)


def _graph_pathway(store: MemoryStore, qvec: np.ndarray, seed_entities: dict[str, None],
                   covered: set[str], k: int, now: datetime
                   ) -> tuple[list[Hit], dict[str, float]]:
    """The graph hits a query can return, and the priming weight of each
    case-folded entity name, from the memories the walk from
    `seed_entities` reaches that were created by `now`. `covered` holds the
    episodic hits' ids and source ids; a matured memory sharing one with it,
    or with a memory taken before it in (hops, id) order, is skipped, and
    the sources of each memory taken join it.

    The work follows the sleeps: each reached group of one `created_at`
    takes one priming weight. A silent group primes with its name union
    when the walk reached all of it, and with its reached members' names
    otherwise; a matured group's members take one recency boost. Only the
    memories that share a source id with another memory are checked in
    order; the others are skipped by a lookup of each covered id. One
    float32 product over the query state's `EmbeddingMatrix` scores every
    matured candidate, and the matrix's `bound` keeps each one whose final
    score may be among the k best. Those are ranked as arrays: the
    matrix's `exact_scores` settles a memory that
    shares no non-zero dimension with the query at +0.0 and scores the rest
    in one stacked product, the final score is that times the recency
    boost, and `_winners` takes the k best by the `_rank_keys` of final
    score and creation time, then id, from the query state's columns.
    Graph hits share a tier, so those k are the only ones that can make
    the top k: only they read their memories and become `Hit`s, unsorted,
    since `hybrid_retrieve` sorts them with the episodic hits."""
    graph, config = store.graph, store.config
    if not seed_entities:
        return [], {}
    levels = graph.walk(seed_entities, config.max_hops)
    reached = set().union(*levels)
    if not reached:
        return [], {}
    state = graph.query_state()
    silent: dict[str, float] = {}
    matured = np.zeros(len(state.ids), dtype=bool)  # by row: a candidate hit
    boost = np.zeros(len(state.ids))  # by row: a candidate's recency boost
    for created, group in state.groups.items():
        if created > now:
            continue
        whole = group.ids <= reached
        if not whole:
            members = group.ids & reached
            if not members:
                continue
        weight = priming_weight(created, now, config)
        if weight == 0.0:  # matured: surfaces as hits of its own
            rows = group.rows if whole else [state.rows[m] for m in members]
            matured[rows] = True
            boost[rows] = _recency_boost(created, now, config)
            continue
        keys = group.keys if whole else {name.casefold() for m in members
                                         for name in graph.memories[m].entities}
        for key in keys:
            if weight > silent.get(key, 0.0):
                silent[key] = weight

    skipped = [m for src in covered for m in state.by_source.get(src, ())]
    contested = state.shared & reached
    for _d, mem_id in sorted((d, m) for d, level in enumerate(levels)
                             for m in contested & level if matured[state.rows[m]]):
        sources = graph.memories[mem_id].source_ids
        if covered.isdisjoint(sources):
            covered.update(sources)
        else:
            skipped.append(mem_id)
    if skipped:
        matured[[state.rows[m] for m in skipped]] = False

    rows = matured.nonzero()[0]
    if not len(rows):
        return [], silent
    if len(rows) > k:
        s = state.embeddings.scores(qvec, rows).astype(np.float64)
        r = boost[rows]
        bound = state.embeddings.bound(qvec, rows)
        # |final - s * r| is within `width`, the products' rounding included
        approx = s * r
        width = np.abs(r) * (bound + 2.0 ** -48 * (np.abs(s) + bound))
        floor = float(np.sort(approx - width)[len(rows) - k])
        if math.isfinite(floor):
            rows = rows[~(approx + width < floor)]
    at = rows.tolist()
    sims = state.embeddings.exact_scores(qvec, rows)
    recency = boost[rows]
    hits = []
    for i in _winners(len(at), lambda: _rank_keys(rows, sims * recency, state.stamps),
                      lambda i: state.ids[at[i]], k):
        mem = graph.memories[state.ids[at[i]]]
        sim, boosted = float(sims[i]), float(recency[i])
        hits.append(Hit(memory_id=mem.id, tier=TIER_GRAPH, base_sim=sim,
                        recency_boost=boosted, final_score=sim * boosted,
                        timestamp=mem.created_at, content=mem.gist,
                        source_ids=tuple(sorted(mem.source_ids)),
                        hop_distance=next(d for d, level in enumerate(levels)
                                          if mem.id in level)))
    return hits, silent


def _target(store: MemoryStore, memory_id: str):
    """The live record `memory_id`, else the graph memory of that id. A
    tombstone raises `AlreadyTombstone`, an unknown id `KeyError`."""
    rec = store.records.get(memory_id)
    if rec is not None:
        if rec.state == STATE_TOMBSTONE:
            raise AlreadyTombstone(memory_id)
        return rec
    mem = store.graph.memories.get(memory_id)
    if mem is None:
        raise KeyError(memory_id)
    return mem


def open_lability(store: MemoryStore, memory_id: str,
                  now: datetime) -> LabilityHandle:
    """Mark a retrieved memory labile for the configured window and record
    the access. A tombstone raises `AlreadyTombstone`."""
    window = timedelta(minutes=store.config.lability_window_min)
    with store.lock:
        target = _target(store, memory_id)
        if isinstance(target, SemanticMemory):
            store.graph.replace_memory(evolve(target, access_count=target.access_count + 1))
        else:
            store.replace(evolve(target, access_count=target.access_count + 1,
                                 last_accessed=now))
        expires = now + window
        store.labile_until[memory_id] = expires
    return LabilityHandle(memory_id=memory_id, opened_at=now, expires_at=expires)


def blend_strength(confidence: float, severity: float,
                   recency_factor: float, config) -> float:
    alpha = (config.blend_confidence_w * confidence +
             config.blend_severity_w * severity +
             config.blend_recency_w * (1.0 - recency_factor))
    return min(max(alpha, 0.0), 1.0)


def reconsolidate(store: MemoryStore, handle: LabilityHandle,
                  new_content: str, confidence: float,
                  now: datetime):
    """Blend new information into a labile memory.

    Contradiction severity is the embedding distance between old and new
    content; blend strength alpha weighs confidence, severity, and how stale
    the memory is. alpha > 0.5 replaces the content outright, otherwise the
    new content is appended as an amendment. Outside the window this is a
    signaled no-op. A record tombstoned since the handle opened raises
    `AlreadyTombstone` and is left as it is.
    """
    if now >= handle.expires_at:
        raise LabilityExpired(handle.memory_id)
    config = store.config
    new_vec = store.embedder.embed(new_content)

    with store.lock:
        target = _target(store, handle.memory_id)
        is_memory = isinstance(target, SemanticMemory)
        old_content, encoded_at = ((target.gist, target.created_at) if is_memory
                                   else (target.content, target.encoded_at))

        severity = min(max(1.0 - float(np.dot(new_vec, target.embedding)), 0.0), 1.0)
        if severity < 1e-9:  # identical content up to float residue
            severity = 0.0
        # a `now` before the encoding reads as no time elapsed
        recency = decayed_importance(1.0, encoded_at, max(now, encoded_at), config.lambda_decay)
        alpha = blend_strength(confidence, severity, recency, config)
        log.info("reconsolidate %s alpha=%.4f confidence=%.3f severity=%.3f recency=%.3f",
                 handle.memory_id, alpha, confidence, severity, recency)
        if alpha == 0.0:
            return target

        blended = normalize((1.0 - alpha) * target.embedding + alpha * new_vec)
        if alpha > 0.5:
            content = new_content
        else:
            content = old_content + "\n[amendment] " + new_content
        if is_memory:
            updated = evolve(target, gist=content, embedding=blended)
            store.graph.replace_memory(updated)
        else:
            updated = target.with_content(content, embedding=blended)
            store.replace(updated)
        return updated


def reinforce(store: MemoryStore, memory_id: str, outcome: str) -> float:
    """Outcome feedback: success nudges importance up (clamped at 1);
    failure leaves the score but tags the record as an error signal so the
    interference path never deletes it. A tombstone raises
    `AlreadyTombstone` and is left as it is; a graph memory or an unknown
    id raises `KeyError`."""
    with store.lock:
        rec = _target(store, memory_id)
        if isinstance(rec, SemanticMemory):
            raise KeyError(memory_id)
        if outcome == "success":
            updated = evolve(rec, importance=min(1.0, rec.importance +
                                                 store.config.reinforce_step))
        elif outcome == "failure":
            metadata = dict(rec.event.metadata)
            metadata["error_signal"] = "true"
            updated = evolve(rec, event=evolve(rec.event, metadata=metadata))
        else:
            raise ValueError(f"unknown outcome {outcome!r}")
        store.replace(updated)
        return updated.importance
