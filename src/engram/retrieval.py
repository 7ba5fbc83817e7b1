"""Hybrid retrieval across hot/warm episodic tiers and the semantic graph,
plus post-retrieval reconsolidation.

Ranking: final = base_sim * (1 + beta * exp(-lambda_r * age_h)) * priming.
Exact score ties break by tier priority (hot > warm > graph), then newer
timestamp, then id. A semantic gist is dropped from results whenever one of
its source episodic records is already present.
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
from .graph import SemanticMemory
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
    product and bound for both. Silent memories are read once per distinct
    (priming weight, entity name), and only the returned graph hits get
    their source ids sorted."""
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
        matured: list[tuple[SemanticMemory, int]] = []
        # a priming weight depends only on created_at, and the memories of
        # one sleep share theirs and mostly their entities: weigh each
        # created_at once, and gather each weight's entity names in a set
        weights: dict[datetime, float] = {}
        silent: dict[float, set[str]] = {}
        if seed_entities:
            for mem, hops in store.graph.traverse(seed_entities, config.max_hops):
                created = mem.created_at
                if created > now:
                    continue
                weight = weights.get(created)
                if weight is None:
                    weight = weights[created] = mem.priming_weight(now, config)
                if weight == 0.0:  # matured: surfaces as a hit of its own
                    matured.append((mem, hops))
                else:
                    silent.setdefault(weight, set()).update(mem.entities)
        # silent memories prime episodic results sharing an entity
        silent_by_entity: dict[str, float] = {}
        for weight, names in silent.items():
            for name in names:
                key = name.casefold()
                if weight > silent_by_entity.get(key, 0.0):
                    silent_by_entity[key] = weight

        # merge + dedupe: an episodic copy beats its own semantic gist
        covered_sources: set[str] = set()
        for hit in episodic_hits:
            covered_sources.update(hit.source_ids)
            covered_sources.add(hit.memory_id)
        merged = list(episodic_hits)
        for mem, hops in matured:
            if not covered_sources.isdisjoint(mem.source_ids):
                continue
            sim = float(np.dot(qvec, mem.embedding))
            # the source-id set is sorted below, for the returned hits only
            merged.append(Hit(memory_id=mem.id, tier=TIER_GRAPH, base_sim=sim,
                              final_score=sim, timestamp=mem.created_at,
                              content=mem.gist, source_ids=mem.source_ids,
                              hop_distance=hops))
            covered_sources.update(mem.source_ids)

        for hit in merged:
            age_h = max(hours_between(hit.timestamp, now), 0.0)
            hit.recency_boost = 1.0 + config.recency_boost_beta * math.exp(
                -config.recency_boost_lambda * age_h)
            if hit.tier != TIER_GRAPH and silent_by_entity:
                best = max((silent_by_entity.get(n.casefold(), 0.0)
                            for n in store.records[hit.memory_id].entities),
                           default=0.0)
                if best > 0.0:
                    hit.priming_boost = 1.0 + config.priming_gamma * best
            hit.final_score = hit.base_sim * hit.recency_boost * hit.priming_boost

    merged.sort(key=_rank_key)
    hits = merged[:k]
    for hit in hits:
        if hit.tier == TIER_GRAPH:
            hit.source_ids = tuple(sorted(hit.source_ids))
    return RetrievalResult(query=query, k=k, as_of=now, hits=hits)


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
