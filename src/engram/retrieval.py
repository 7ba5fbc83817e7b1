"""Hybrid retrieval across hot/warm episodic tiers and the semantic graph,
plus post-retrieval reconsolidation.

Ranking: final = base_sim * (1 + beta * exp(-lambda_r * age_h)) * priming.
Exact score ties break by tier priority (hot > warm > graph), then newer
timestamp, then id. A semantic gist is dropped from results whenever one of
its source episodic records is already present.

The episodic tiers are one product over the store's embedding index. The
graph pathway takes one priming weight and one recency boost per sleep its
walk reaches, scores the matured memories in one product over the graph's
query state, and rescores only those that can make the top k; past the
walk's sets of reached ids, its cost follows the sleeps, not the memories.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Optional

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
from .store import EmbeddingIndex, MemoryStore, dot_error_bound

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


def _top_hits(store: MemoryStore, index: EmbeddingIndex, qvec: np.ndarray,
              groups: list[np.ndarray], k: int, now: datetime,
              importance_filter: Optional[float] = None) -> list[list[Hit]]:
    """For each of `groups`, disjoint arrays of embedding-index rows: the
    top-k of its rows whose decayed importance passes the filter, by
    `_rank_key` on the float64 `np.dot(qvec, embedding)`. One float32
    product picks every group's candidates; only the candidates are
    rescored, and only the top k of each become `Hit`s."""
    if importance_filter is None:
        importance_filter = store.config.importance_filter
    lam = store.config.lambda_decay
    records, keys = store.records, index.keys
    importance = index.column("importance")
    passing = []
    for rows in groups:
        # a non-negative importance decays to a non-negative value, which a
        # filter <= 0 always passes; every other row is decided exactly
        undecided = (np.flatnonzero(~(importance[rows] >= 0.0))
                     if importance_filter <= 0.0 else range(len(rows)))
        dropped = []
        for i in undecided:
            rec = records[keys[rows[i]]]
            if decayed_importance(rec.importance, rec.encoded_at, now,
                                  lam) < importance_filter:
                dropped.append(i)
        passing.append(np.delete(rows, dropped) if dropped else rows)
    out = []
    for rows in index.top_candidates(qvec, passing, k):
        ranked = []
        for row in rows.tolist():
            rec = records[keys[row]]
            sim = float(np.dot(qvec, rec.embedding))
            event = rec.event
            # `_rank_key` of the hit this record would make; ids are unique,
            # so the sort never compares past the id
            ranked.append((-sim, _TIER_PRIORITY[rec.tier], -event.timestamp.timestamp(),
                           event.id, sim, rec))
        ranked.sort()
        out.append([Hit(memory_id=rid, tier=rec.tier, base_sim=sim, final_score=sim,
                        timestamp=rec.event.timestamp, content=rec.content,
                        source_ids=rec.source_ids)
                    for _s, _p, _t, rid, sim, rec in ranked[:k]])
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

    The episodic tiers take one pass: one selection of the visible rows,
    split by tier code (the hot tier also by session), and one float32
    product and bound for both. The graph pathway (`_graph_pathway`) weighs
    each sleep's memories once, as a group, and makes hits of its k best
    candidates only."""
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
    float32 product scores every matured candidate, `dot_error_bound` keeps
    each one whose final score may be among the k best, and only those are
    rescored with the float64 `np.dot`. Graph hits share a tier, so the k
    best of them by `_rank_key` are the only ones that can make the top k:
    only those become `Hit`s."""
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

    rows = np.flatnonzero(matured)
    if len(rows) > k:
        s = state.scores(qvec, rows).astype(np.float64)
        r = boost[rows]
        bound = dot_error_bound(state.matrix.shape[0], math.sqrt(float(np.dot(qvec, qvec))),
                                float(state.norms[rows].max()))
        # |final - s * r| is within `width`, the products' rounding included
        approx = s * r
        width = np.abs(r) * (bound + 2.0 ** -48 * (np.abs(s) + bound))
        floor = float(np.sort(approx - width)[len(rows) - k])
        if math.isfinite(floor):
            rows = rows[~(approx + width < floor)]
    ranked = []
    for row in rows.tolist():
        mem = graph.memories[state.ids[row]]
        sim = float(np.dot(qvec, mem.embedding))
        recency = float(boost[row])
        final = sim * recency
        # `_rank_key` of the hit this memory would make, past its tier; ids
        # are unique, so the sort never compares past the id
        ranked.append((-final, -mem.created_at.timestamp(), mem.id, final, sim, recency, mem))
    ranked.sort()
    hits = [Hit(memory_id=mem_id, tier=TIER_GRAPH, base_sim=sim, recency_boost=recency,
                final_score=final, timestamp=mem.created_at, content=mem.gist,
                source_ids=tuple(sorted(mem.source_ids)),
                hop_distance=next(d for d, level in enumerate(levels) if mem_id in level))
            for _f, _t, mem_id, final, sim, recency, mem in ranked[:k]]
    return hits, silent


def open_lability(store: MemoryStore, memory_id: str,
                  now: datetime) -> LabilityHandle:
    """Mark a retrieved memory labile for the configured window and record
    the access. A tombstone raises `AlreadyTombstone`."""
    window = timedelta(minutes=store.config.lability_window_min)
    with store.lock:
        rec = store.records.get(memory_id)
        if rec is not None:
            if rec.state == STATE_TOMBSTONE:
                raise AlreadyTombstone(memory_id)
            store.replace(evolve(rec, access_count=rec.access_count + 1,
                                 last_accessed=now))
        else:
            mem = store.graph.memories.get(memory_id)
            if mem is None:
                raise KeyError(memory_id)
            store.graph.replace_memory(evolve(mem, access_count=mem.access_count + 1))
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
        rec = store.records.get(handle.memory_id)
        mem: Optional[SemanticMemory] = None
        if rec is not None:
            if rec.state == STATE_TOMBSTONE:
                raise AlreadyTombstone(handle.memory_id)
            old_vec, old_content, encoded_at = rec.embedding, rec.content, rec.encoded_at
        else:
            mem = store.graph.memories.get(handle.memory_id)
            if mem is None:
                raise KeyError(handle.memory_id)
            old_vec, old_content, encoded_at = mem.embedding, mem.gist, mem.created_at

        severity = min(max(1.0 - float(np.dot(new_vec, old_vec)), 0.0), 1.0)
        if severity < 1e-9:  # identical content up to float residue
            severity = 0.0
        recency = math.exp(-config.lambda_decay * max(hours_between(encoded_at, now), 0.0))
        alpha = blend_strength(confidence, severity, recency, config)
        log.info("reconsolidate %s alpha=%.4f confidence=%.3f severity=%.3f recency=%.3f",
                 handle.memory_id, alpha, confidence, severity, recency)
        if alpha == 0.0:
            return rec if rec is not None else mem

        blended = normalize((1.0 - alpha) * old_vec + alpha * new_vec)
        if alpha > 0.5:
            content = new_content
        else:
            content = old_content + "\n[amendment] " + new_content
        if rec is not None:
            updated = rec.with_content(content, embedding=blended)
            store.replace(updated)
            return updated
        mem = evolve(mem, gist=content, embedding=blended)
        store.graph.replace_memory(mem)
        return mem


def reinforce(store: MemoryStore, memory_id: str, outcome: str) -> float:
    """Outcome feedback: success nudges importance up (clamped at 1);
    failure leaves the score but tags the record as an error signal so the
    interference path never deletes it. A tombstone raises
    `AlreadyTombstone` and is left as it is."""
    with store.lock:
        rec = store.records.get(memory_id)
        if rec is None:
            raise KeyError(memory_id)
        if rec.state == STATE_TOMBSTONE:
            raise AlreadyTombstone(memory_id)
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
