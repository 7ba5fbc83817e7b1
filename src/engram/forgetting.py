"""Forgetting: TTL expiry, interference scoring, the graceful degradation
ladder, and adaptive forgetting down to a token budget.

Forgetting never hard-deletes: records walk the fidelity ladder one level
per step and end as tombstones that keep only existence metadata. Every
tombstone is built by `tombstone`: it keeps the id, the event's timestamp,
session, actor, kind, metadata and causes, `encoded_at`, `last_accessed`,
`ttl_expires_at`, `tier`, `importance`, `access_count` and `source_ids`;
the content, `entities` and `score_breakdown` are emptied and the embedding
is a shared read-only vector of zeros. The semantic copy of a promoted
record survives episodic TTL expiry.

A sleep ranks the forget candidates once (`rank_forget_candidates`): the
interference step and the budget walk share that ranking, which is taken
again only when the interference step has made a tombstone. Each priority
is criterion 3's `interference` over the candidates `MemoryStore.near`
picks from the store's embedding index, so the formula has one
implementation. `interference` sums with `math.fsum`, so a priority does
not depend on the order of the candidates.

Each move down the ladder is written once. `_step` takes a content one
level down, L0 to L5, and `_settle` builds the record a walk ends at: a
`tombstone` at L5, else one `with_content` of the content and fidelity.
`degrade` is one step, settled. The budget walk takes each ranked record
down by `_step` on its content alone, keeps the token total from the steps,
and writes only the record it ends at, however many steps it took.
"""

from __future__ import annotations

import functools
import logging
import math
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional, Sequence

import numpy as np

from .errors import AlreadyTombstone
from .model import (
    STATE_PENDING,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    EpisodicRecord,
    FidelityLevel,
    StoreConfig,
    decayed_importance,
    estimate_tokens,
    hours_between,
)
from .store import MemoryStore

log = logging.getLogger("engram.forgetting")

EPSILON = 1e-6

DIRECTION_RETROACTIVE = "retroactive"  # contributor newer than the memory
DIRECTION_PROACTIVE = "proactive"      # contributor older than the memory


@dataclass
class InterferenceAssessment:
    memory_id: str
    interference: float
    contributors: list[tuple[str, str, float]]  # (id, direction, similarity)


@dataclass
class ForgettingReport:
    ttl_expired: int = 0
    interference_degraded: int = 0
    budget_steps: int = 0
    budget_tombstoned: int = 0
    tokens_after: int = 0
    active_after: int = 0
    expired_ids: list[str] = field(default_factory=list)


def apply_ttl(store: MemoryStore, now: datetime) -> list[str]:
    """Tombstone records whose TTL has passed. The episodic copy of a
    promoted record expires too; its semantic gist persists in the graph."""
    expired = []
    for rec in list(store.records.values()):
        if rec.state == STATE_TOMBSTONE:
            continue
        if now > rec.ttl_expires_at:
            store.replace(tombstone(rec))
            expired.append(rec.id)
    return expired


def interference(memory: EpisodicRecord,
                 others: Sequence[EpisodicRecord],
                 threshold: float,
                 retro_weight: float = 0.6,
                 pro_weight: float = 0.4) -> InterferenceAssessment:
    """Sum of direction-weighted similarities over records similar above the
    threshold; newer contributors (retroactive) weigh more than older ones.
    The sum is `math.fsum`'s correctly rounded one, the same float for any
    order of `others`."""
    contributors: list[tuple[str, str, float]] = []
    terms: list[float] = []
    for other in others:
        if other.id == memory.id:
            continue
        sim = float(np.dot(other.embedding, memory.embedding))
        if sim < threshold:
            continue
        if (other.encoded_at, other.id) > (memory.encoded_at, memory.id):
            direction, w = DIRECTION_RETROACTIVE, retro_weight
        else:
            direction, w = DIRECTION_PROACTIVE, pro_weight
        contributors.append((other.id, direction, sim))
        terms.append(w * sim)
    return InterferenceAssessment(memory_id=memory.id, interference=math.fsum(terms),
                                  contributors=contributors)


def rank_forget_candidates(store: MemoryStore, now: datetime
                           ) -> list[tuple[float, float, EpisodicRecord]]:
    """All eligible records (pending or retained, encoded at or before
    `now`, not labile) ranked most-forgettable first: (priority desc,
    decayed importance asc, id).

    A record's priority is `interference(rec, others, threshold).interference
    / (decayed + EPSILON)`, where `others` are its `MemoryStore.near`
    candidates. `interference` decides each candidate with `np.dot`, so the
    priority equals the one over every live record. The eligible records
    are the embedding index's live rows in those states and encoded by
    `now`."""
    config = store.config
    with store.lock:
        index = store.embedding_index()
        rows = np.flatnonzero(index.visible(now)
                              & index.in_states((STATE_PENDING, STATE_RETAINED)))
        keys = [index.keys[row] for row in rows.tolist()]
        eligible = [store.records[k] for k in keys if not store.is_labile(k, now)]
        near = store.near(eligible, config.interference_threshold)
    ranked = []
    for rec, others in zip(eligible, near):
        assessed = interference(rec, others, config.interference_threshold,
                                config.retro_weight, config.pro_weight)
        decayed = decayed_importance(rec.importance, rec.encoded_at, now,
                                     config.lambda_decay)
        ranked.append((assessed.interference / (decayed + EPSILON), decayed, rec))
    ranked.sort(key=lambda t: (-t[0], t[1], t[2].id))
    return ranked


_SENTENCE_END_RE = re.compile(r"[.!?\n]")


@functools.lru_cache(maxsize=None)
def _zeros(length: int) -> np.ndarray:
    """A read-only all-zero vector of `length`, one per length, which every
    tombstone of that length shares."""
    zeros = np.zeros(length)
    zeros.setflags(write=False)
    return zeros


def tombstone(record: EpisodicRecord) -> EpisodicRecord:
    """`record` as a tombstone: fidelity L5 and state tombstone, with no
    content, entities or score breakdown and the shared all-zero embedding
    of the same length (`_zeros`). Every other field is kept; `source_ids`
    lets an id absorbed by dedup still be traced. No engine path reads what
    is dropped: the embedding index and `near` skip tombstones, and
    lability, reconsolidation and reinforcement refuse them."""
    return record.with_content("", embedding=_zeros(len(record.embedding)),
                               entities=(), score_breakdown={},
                               fidelity=FidelityLevel.L5, state=STATE_TOMBSTONE)


def _step(record: EpisodicRecord, content: str,
          fidelity: FidelityLevel) -> tuple[str, FidelityLevel]:
    """The content and fidelity one level below `fidelity`, of `record` when
    its content at `fidelity` is `content`. L1/L2 keep a prefix sized by the
    level's retained token fraction; L3 keeps the first sentence plus entity
    names; L4 keeps only the event kind and entity names; L5 keeps nothing.
    The kind and the entities do not change along the ladder, so they are
    read from `record`."""
    if fidelity >= FidelityLevel.L5:
        raise AlreadyTombstone(record.id)
    nxt = fidelity.next_level()
    entity_part = ", ".join(record.entities)
    if nxt in (FidelityLevel.L1, FidelityLevel.L2):
        frac = nxt.retained_fraction / fidelity.retained_fraction
        target_tokens = int(estimate_tokens(content) * frac)
        return content[:target_tokens * 4], nxt
    if nxt == FidelityLevel.L3:
        m = _SENTENCE_END_RE.search(content)
        first = content[:m.start() + 1] if m else content
        return (first + (" " + entity_part if entity_part else "")).strip(), nxt
    if nxt == FidelityLevel.L4:
        return record.event.kind + (": " + entity_part if entity_part else ""), nxt
    return "", nxt


def _settle(record: EpisodicRecord, content: str,
            fidelity: FidelityLevel) -> EpisodicRecord:
    """`record` at the end of a walk down the ladder: `tombstone(record)` at
    L5, else `record` with `content` at `fidelity`."""
    if fidelity == FidelityLevel.L5:
        return tombstone(record)
    return record.with_content(content, fidelity=fidelity)


def degrade(record: EpisodicRecord) -> EpisodicRecord:
    """Advance a record exactly one fidelity level (`_step`). L5 is
    `tombstone(record)`, which keeps only existence metadata: the id, the
    event's timestamp, session, actor, kind, metadata and causes, the
    record's times, tier, importance, access count and `source_ids`."""
    return _settle(record, *_step(record, record.content, record.fidelity))


def degradation_due(record: EpisodicRecord, now: datetime,
                    config: StoreConfig) -> bool:
    """Age combined with decayed score gates the ladder."""
    if record.fidelity >= FidelityLevel.L5:
        return False
    age_h = hours_between(record.encoded_at, now)
    if age_h <= config.degrade_age_hours[record.fidelity.value]:
        return False
    decayed = decayed_importance(record.importance, record.encoded_at, now,
                                 config.lambda_decay)
    return decayed < config.importance_floor


def forget_to_budget(store: MemoryStore, budget_tokens: int, now: datetime,
                     ranked: Optional[list[tuple[float, float, EpisodicRecord]]] = None
                     ) -> ForgettingReport:
    """Degrade most-forgettable records until active tokens fit the budget.

    The top candidate is walked down the ladder, one level per step, until
    the tokens fit or it is a tombstone, before moving on (its priority
    does not change as it degrades). Each step is `degrade`'s, `_step`
    taken on the content text, and the token total is kept from the steps;
    the record the walk ends at (`_settle`) is written once. Promoted and
    labile records are never touched; the loop is bounded by ladder depth
    times store size. `ranked` is `rank_forget_candidates(store, now)` when
    the caller already holds it."""
    if budget_tokens <= 0:
        raise ValueError("budget must be positive")
    report = ForgettingReport()
    tokens = store.active_tokens()
    if tokens > budget_tokens:
        if ranked is None:
            ranked = rank_forget_candidates(store, now)
        for _prio, _dec, rec in ranked:
            if tokens <= budget_tokens:
                break
            current = store.records[rec.id]
            content, fidelity = current.content, current.fidelity
            while tokens > budget_tokens and fidelity < FidelityLevel.L5:
                stepped, fidelity = _step(current, content, fidelity)
                tokens += estimate_tokens(stepped) - estimate_tokens(content)
                content = stepped
                report.budget_steps += 1
            if fidelity != current.fidelity:
                store.replace(_settle(current, content, fidelity))
                if fidelity == FidelityLevel.L5:
                    report.budget_tombstoned += 1
    report.tokens_after = store.active_tokens()
    report.active_after = store.active_count()
    return report


def run_forgetting(store: MemoryStore, now: datetime,
                   budget: Optional[int] = None) -> ForgettingReport:
    """TTL expiry, then interference-triggered degradation above the
    priority floor, then budget forgetting when a budget is configured.
    Transactional: on any failure the store is restored to its state before
    the call.

    One ranking serves both steps. A degrade step changes a record's
    content and fidelity, while a priority depends on its embedding,
    importance and `encoded_at` and on the live set, so the ranking stays
    exact until a record becomes a tombstone; only then is it taken again."""
    config = store.config
    with store.transaction():
        report = ForgettingReport()
        report.expired_ids = apply_ttl(store, now)
        report.ttl_expired = len(report.expired_ids)

        ranked = rank_forget_candidates(store, now)
        tombstoned = False
        for prio, _dec, rec in ranked:
            if prio <= config.forget_priority_floor:
                break  # the ranking is by priority: the rest are lower
            current = store.records[rec.id]
            if current.event.metadata.get("error_signal") == "true":
                continue
            if degradation_due(current, now, config):
                updated = degrade(current)
                store.replace(updated)
                report.interference_degraded += 1
                tombstoned = tombstoned or updated.state == STATE_TOMBSTONE

        budget = budget if budget is not None else config.token_budget
        if budget is not None:
            sub = forget_to_budget(store, budget, now,
                                   None if tombstoned else ranked)
            report.budget_steps = sub.budget_steps
            report.budget_tombstoned = sub.budget_tombstoned
        report.tokens_after = store.active_tokens()
        report.active_after = store.active_count()
        # the degrade steps dirty many index rows: sync them inside the
        # job, not in the next query
        store.embedding_index()
        return report
