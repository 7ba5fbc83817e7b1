"""Forgetting: TTL expiry, interference scoring, the graceful degradation
ladder, and adaptive forgetting down to a token budget.

Forgetting never hard-deletes: records walk the fidelity ladder one level
per step and end as tombstones that keep only existence metadata. The
semantic copy of a promoted record survives episodic TTL expiry.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Optional, Sequence

import numpy as np

from .errors import AlreadyTombstone
from .model import (
    STATE_PROMOTED,
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
            store.replace(replace(rec.with_content(""),
                                  state=STATE_TOMBSTONE,
                                  fidelity=FidelityLevel.L5))
            expired.append(rec.id)
    return expired


def interference(memory: EpisodicRecord,
                 others: Sequence[EpisodicRecord],
                 threshold: float,
                 retro_weight: float = 0.6,
                 pro_weight: float = 0.4) -> InterferenceAssessment:
    """Sum of direction-weighted similarities over records similar above the
    threshold; newer contributors (retroactive) weigh more than older ones."""
    contributors: list[tuple[str, str, float]] = []
    total = 0.0
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
        total += w * sim
    return InterferenceAssessment(memory_id=memory.id, interference=total,
                                  contributors=contributors)


def _eligible(store: MemoryStore, now: datetime) -> list[EpisodicRecord]:
    out = []
    for rec in store.records.values():
        if rec.state in (STATE_TOMBSTONE, STATE_PROMOTED):
            continue
        if store.is_labile(rec.id, now):
            continue
        out.append(rec)
    return out


def rank_forget_candidates(store: MemoryStore, now: datetime
                           ) -> list[tuple[float, float, EpisodicRecord]]:
    """All eligible records ranked most-forgettable first:
    (priority desc, decayed importance asc, id)."""
    config = store.config
    active = store.active_records()
    ranked = []
    if not active:
        return ranked
    matrix = np.stack([r.embedding for r in active])
    order = [(r.encoded_at, r.id) for r in active]
    for rec in _eligible(store, now):
        sims = matrix @ rec.embedding
        total = 0.0
        for j in np.nonzero(sims >= config.interference_threshold)[0]:
            if active[j].id == rec.id:
                continue
            newer = order[j] > (rec.encoded_at, rec.id)
            total += (config.retro_weight if newer else config.pro_weight) * float(sims[j])
        decayed = decayed_importance(rec.importance, rec.encoded_at, now,
                                     config.lambda_decay)
        priority = total / (decayed + EPSILON)
        ranked.append((priority, decayed, rec))
    ranked.sort(key=lambda t: (-t[0], t[1], t[2].id))
    return ranked


def select_forget_candidates(store: MemoryStore, now: datetime,
                             floor: Optional[float] = None) -> list[str]:
    """Ids of records whose forget priority exceeds the floor, ranked."""
    if floor is None:
        floor = store.config.forget_priority_floor
    return [rec.id for prio, _dec, rec in rank_forget_candidates(store, now)
            if prio > floor]


_SENTENCE_END_RE = re.compile(r"[.!?\n]")


def degrade(record: EpisodicRecord, now: datetime) -> EpisodicRecord:
    """Advance a record exactly one fidelity level.

    L1/L2 keep a prefix sized by the level's retained token fraction; L3
    keeps the first sentence plus entity names; L4 keeps only the event kind
    and entity names; L5 is the empty-content tombstone (id, timestamps and
    metadata preserved).
    """
    if record.fidelity >= FidelityLevel.L5:
        raise AlreadyTombstone(record.id)
    nxt = record.fidelity.next_level()
    content = record.content
    entity_part = ", ".join(record.entities)
    if nxt in (FidelityLevel.L1, FidelityLevel.L2):
        frac = nxt.retained_fraction / record.fidelity.retained_fraction
        target_tokens = int(estimate_tokens(content) * frac)
        content = content[:target_tokens * 4]
    elif nxt == FidelityLevel.L3:
        m = _SENTENCE_END_RE.search(content)
        first = content[:m.start() + 1] if m else content
        content = (first + (" " + entity_part if entity_part else "")).strip()
    elif nxt == FidelityLevel.L4:
        content = (record.event.kind + (": " + entity_part if entity_part else ""))
    else:  # L5 tombstone
        content = ""
    state = STATE_TOMBSTONE if nxt == FidelityLevel.L5 else record.state
    return replace(record, event=replace(record.event, content=content),
                   fidelity=nxt, state=state)


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


def forget_to_budget(store: MemoryStore, budget_tokens: int,
                     now: datetime) -> ForgettingReport:
    """Degrade most-forgettable records until active tokens fit the budget.

    The top candidate is walked down the full ladder before moving on (its
    priority does not change as it degrades). Promoted and labile records
    are never touched; the loop is bounded by ladder depth times store
    size."""
    if budget_tokens <= 0:
        raise ValueError("budget must be positive")
    report = ForgettingReport()
    tokens = store.active_tokens()
    if tokens > budget_tokens:
        for _prio, _dec, rec in rank_forget_candidates(store, now):
            current = store.records[rec.id]
            while tokens > budget_tokens and current.state != STATE_TOMBSTONE:
                updated = degrade(current, now)
                store.replace(updated)
                tokens -= estimate_tokens(current.content) - estimate_tokens(updated.content)
                report.budget_steps += 1
                if updated.state == STATE_TOMBSTONE:
                    report.budget_tombstoned += 1
                current = updated
            if tokens <= budget_tokens:
                break
    report.tokens_after = tokens
    report.active_after = store.active_count()
    return report


def run_forgetting(store: MemoryStore, now: datetime,
                   budget: Optional[int] = None) -> ForgettingReport:
    """TTL expiry, then interference-triggered degradation above the
    priority floor, then budget forgetting when a budget is configured.
    Transactional: on any failure the store is restored to its state before
    the call."""
    config = store.config
    with store.lock:
        chk = store._checkpoint()
        try:
            report = ForgettingReport()
            report.expired_ids = apply_ttl(store, now)
            report.ttl_expired = len(report.expired_ids)

            for rec_id in select_forget_candidates(store, now):
                current = store.records[rec_id]
                if current.event.metadata.get("error_signal") == "true":
                    continue
                if degradation_due(current, now, config):
                    store.replace(degrade(current, now))
                    report.interference_degraded += 1

            budget = budget if budget is not None else config.token_budget
            if budget is not None:
                sub = forget_to_budget(store, budget, now)
                report.budget_steps = sub.budget_steps
                report.budget_tombstoned = sub.budget_tombstoned
            report.tokens_after = store.active_tokens()
            report.active_after = store.active_count()
            # the degrade steps dirty many index rows: sync them inside the
            # job, not in the next query
            store.embedding_index()
            return report
        except Exception:
            store._restore(chk)
            raise
