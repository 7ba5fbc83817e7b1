"""Streaming evaluation driver: synthetic stream generation with ground
truth, sequential session replay with consolidate-every-N plus forgetting,
and retention-precision / store-size metrics.

The pipeline only ever sees past sessions at each checkpoint; store state at
checkpoint k is a pure function of sessions 1..k and config.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Any, Optional, Sequence

from .codec import encode
from .consolidation import MODE_DEDUP, MODE_NONE, run_consolidation
from .forgetting import run_forgetting
from .model import FidelityLevel, MemoryEvent, StoreConfig, STATE_TOMBSTONE, evolve
from .store import MemoryStore

log = logging.getLogger("engram.harness")

DEFAULT_START = datetime(2026, 1, 5, tzinfo=timezone.utc)


@dataclass
class StreamSpec:
    sessions: int = 20
    events_per_session: int = 50
    duplicate_rate: float = 0.4
    future_reference_rate: float = 0.3
    near_duplicate_fraction: float = 0.5   # of planted duplicates
    session_gap_hours: float = 12.0
    event_gap_minutes: float = 1.0
    start_time: datetime = DEFAULT_START
    core_pool_size: Optional[int] = None   # recurring-content pool, if any
    planted_violations: int = 0


@dataclass
class GroundTruth:
    is_duplicate_of: Optional[str] = None
    future_referenced: bool = False
    substantive: bool = False
    planted_violation: Optional[str] = None


@dataclass
class StreamManifest:
    events: list[MemoryEvent]
    ground_truth: dict[str, GroundTruth]

    def base_rate(self) -> float:
        n = sum(1 for gt in self.ground_truth.values() if gt.future_referenced)
        return n / len(self.events) if self.events else 0.0


_NAME_POOL = [
    "Arbor", "Brightwell", "Calloway", "Delta", "Everhart", "Foxglove",
    "Granite", "Hollis", "Ironwood", "Juniper", "Kestrel", "Lattice",
    "Meridian", "Northgate", "Orchid", "Pinnacle",
]

_FILLER_TEMPLATES = [
    "ack", "noted", "looks fine to me", "bump", "ping", "status check",
    "triage pass complete", "no repro yet", "closing loop", "seen",
]

_KINDS = ["issue_created", "comment", "label_change", "status_transition"]


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))


def _core_content(rng: random.Random) -> str:
    words = " ".join(_random_word(rng) for _ in range(rng.randint(10, 14)))
    who = rng.choice(_NAME_POOL)
    where = rng.choice(_NAME_POOL)
    return f"{who} reported {words} regression blocking {where} rollout"


def generate_stream(spec: StreamSpec, seed: int = 0) -> StreamManifest:
    """Deterministic issue-tracker-like stream with planted duplicates,
    future references via `causes`, filler noise, and (optionally) temporal
    violations. The manifest records every plant."""
    rng = random.Random(seed)
    total = spec.sessions * spec.events_per_session
    n_dup = round(spec.duplicate_rate * total)
    n_core = round(spec.future_reference_rate * total)
    n_filler = total - n_dup - n_core
    slots = (["core"] * n_core) + (["dup"] * n_dup) + (["filler"] * n_filler)
    rng.shuffle(slots)
    # a duplicate needs something to copy: the first core must land before
    # the first duplicate slot
    if "dup" in slots and "core" in slots:
        first_dup = slots.index("dup")
        first_core = slots.index("core")
        if first_dup < first_core:
            slots[first_dup], slots[first_core] = slots[first_core], slots[first_dup]

    core_pool = None
    if spec.core_pool_size:
        pool_rng = random.Random(seed + 1)
        core_pool = [_core_content(pool_rng) for _ in range(spec.core_pool_size)]

    events: list[MemoryEvent] = []
    truth: dict[str, GroundTruth] = {}
    core_ids: list[str] = []
    uncited: list[str] = []
    dup_sources: list[MemoryEvent] = []

    g = 0
    for s in range(spec.sessions):
        session_id = f"session-{s:03d}"
        session_start = spec.start_time + timedelta(hours=s * spec.session_gap_hours)
        for i in range(spec.events_per_session):
            slot = slots[g]
            eid = f"evt-{g:05d}"
            ts = session_start + timedelta(minutes=i * spec.event_gap_minutes)
            causes: list[str] = []
            if slot == "core":
                content = (core_pool[rng.randrange(len(core_pool))]
                           if core_pool else _core_content(rng))
                kind = rng.choice(["issue_created", "comment"])
                metadata = {"outcome": "success"}
                ev = MemoryEvent(id=eid, timestamp=ts, session_id=session_id,
                                 actor="user", kind=kind, content=content,
                                 metadata=metadata, causes=())
                truth[eid] = GroundTruth(substantive=True)
                core_ids.append(eid)
                uncited.append(eid)
                dup_sources.append(ev)
            else:
                if uncited:
                    target = uncited.pop(0)
                    causes = [target]
                    truth[target].future_referenced = True
                elif core_ids:
                    causes = [rng.choice(core_ids)]
                if slot == "dup" and dup_sources:
                    src = dup_sources[rng.randrange(len(dup_sources))]
                    near = rng.random() < spec.near_duplicate_fraction
                    content = (src.content + " follow up confirmation"
                               if near else src.content)
                    ev = MemoryEvent(id=eid, timestamp=ts, session_id=session_id,
                                     actor=rng.choice(["user", "agent"]),
                                     kind="comment", content=content,
                                     metadata={}, causes=tuple(causes))
                    truth[eid] = GroundTruth(is_duplicate_of=src.id)
                else:
                    content = rng.choice(_FILLER_TEMPLATES)
                    ev = MemoryEvent(id=eid, timestamp=ts, session_id=session_id,
                                     actor=rng.choice(["agent", "automation"]),
                                     kind=rng.choice(_KINDS), content=content,
                                     metadata={}, causes=tuple(causes))
                    truth[eid] = GroundTruth()
            events.append(ev)
            g += 1

    # planted temporal violations: alternate out-of-order and causal
    # inversions over a deterministic sample of non-first events
    if spec.planted_violations:
        candidates = [i for i in range(1, len(events))
                      if not truth[events[i].id].substantive]
        picks = sorted(random.Random(seed + 2).sample(
            candidates, spec.planted_violations))
        for v, idx in enumerate(picks):
            ev = events[idx]
            if v % 2 == 0:
                events[idx] = evolve(
                    ev, timestamp=spec.start_time - timedelta(hours=1 + v))
                truth[ev.id].planted_violation = "out_of_order"
            else:
                events[idx] = evolve(ev, causes=ev.causes + (f"missing-{ev.id}",))
                truth[ev.id].planted_violation = "causal_inversion"

    return StreamManifest(events=events, ground_truth=truth)


@dataclass
class Checkpoint:
    index: int
    session_id: str
    active_count: int
    active_tokens: int
    state_fingerprint: str


@dataclass
class RunMetrics:
    retention_precision: float = 0.0
    store_reduction: float = 0.0
    checkpoints: list[Checkpoint] = field(default_factory=list)
    retained_count: int = 0
    retained_referenced: int = 0
    total_ingested: int = 0
    config_used: dict[str, Any] = field(default_factory=dict)

    @property
    def store_size_series(self) -> list[int]:
        return [c.active_count for c in self.checkpoints]

    @property
    def token_totals(self) -> list[int]:
        return [c.active_tokens for c in self.checkpoints]


def retained_records(store: MemoryStore):
    """A record still counts as retained while it keeps referable content:
    non-tombstone and fidelity at gist level (L3) or better."""
    return [r for r in store.records.values()
            if r.state != STATE_TOMBSTONE and r.fidelity <= FidelityLevel.L3]


def compute_metrics(store: MemoryStore,
                    manifest: Optional[StreamManifest]) -> tuple[float, float, int, int]:
    retained = retained_records(store)
    referenced = 0
    if manifest is not None:
        for rec in retained:
            gt = manifest.ground_truth.get(rec.id)
            if gt is not None and gt.future_referenced:
                referenced += 1
    precision = referenced / len(retained) if retained else 0.0
    active = store.active_count()
    reduction = 1.0 - active / store.total_ingested if store.total_ingested else 0.0
    return precision, reduction, len(retained), referenced


def stream_run(manifest: StreamManifest,
               config: Optional[StoreConfig] = None,
               every_n: Optional[int] = None,
               mode: str = MODE_DEDUP,
               budget: Optional[int] = None,
               store: Optional[MemoryStore] = None,
               max_sessions: Optional[int] = None) -> RunMetrics:
    """Replay sessions in temporal order, consolidating (then forgetting)
    every N sessions. No lookahead: each checkpoint uses only the sessions
    ingested so far, with `now` pinned to the newest ingested timestamp."""
    config = config or StoreConfig()
    if every_n is None:
        every_n = config.consolidate_every_n_sessions
    if every_n < 1:
        raise ValueError(f"every_n must be at least 1, got {every_n}")
    if budget is None:
        budget = config.token_budget
    store = store or MemoryStore(config)

    sessions: dict[str, list[MemoryEvent]] = {}
    for ev in manifest.events:
        sessions.setdefault(ev.session_id, []).append(ev)
    session_ids = list(sessions)
    if max_sessions is not None:
        session_ids = session_ids[:max_sessions]

    metrics = RunMetrics(config_used=encode(config))
    max_ts: Optional[datetime] = None
    since_checkpoint = 0
    for idx, sid in enumerate(session_ids, start=1):
        for ev in sessions[sid]:
            store.ingest(ev)
            if max_ts is None or ev.timestamp > max_ts:
                max_ts = ev.timestamp
        since_checkpoint += 1
        is_last = idx == len(session_ids)
        if since_checkpoint >= every_n or is_last:
            since_checkpoint = 0
            now = max_ts
            run_consolidation(store, now, mode=mode)
            if mode != MODE_NONE:
                run_forgetting(store, now, budget=budget)
            cp = Checkpoint(
                index=idx, session_id=sid,
                active_count=store.active_count(),
                active_tokens=store.active_tokens(),
                state_fingerprint=store.fingerprint(),
            )
            metrics.checkpoints.append(cp)

    (metrics.retention_precision, metrics.store_reduction,
     metrics.retained_count, metrics.retained_referenced) = compute_metrics(
        store, manifest)
    metrics.total_ingested = store.total_ingested
    return metrics


def retained_substantive_fraction(store: MemoryStore,
                                  manifest: StreamManifest) -> float:
    subs = [eid for eid, gt in manifest.ground_truth.items() if gt.substantive]
    if not subs:
        return 0.0
    kept = 0
    retained_ids = {r.id for r in retained_records(store)}
    # a substantive event also survives when a dedup survivor absorbed it
    absorbed: set[str] = set()
    for r in retained_records(store):
        absorbed.update(r.source_ids)
    for eid in subs:
        if eid in retained_ids or eid in absorbed:
            kept += 1
    return kept / len(subs)


def budget_sweep(manifest: StreamManifest, config: StoreConfig,
                 budgets: Sequence[int], every_n: int = 1,
                 mode: str = MODE_DEDUP) -> list[dict[str, Any]]:
    rows = []
    for budget in budgets:
        store = MemoryStore(config)
        m = stream_run(manifest, config, every_n=every_n, mode=mode,
                       budget=budget, store=store)
        frac = retained_substantive_fraction(store, manifest)
        rows.append({"budget": budget,
                     "final_tokens": m.token_totals[-1],
                     "final_active": m.store_size_series[-1],
                     "retained_substantive_fraction": frac,
                     "retention_precision": m.retention_precision,
                     "store_reduction": m.store_reduction})
    return rows


def report(metrics: RunMetrics, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(encode(metrics), sort_keys=True, indent=2)
    if fmt == "text":
        lines = [
            f"retention_precision  {metrics.retention_precision:.4f}",
            f"store_reduction      {metrics.store_reduction:.4f}",
            f"retained             {metrics.retained_count}",
            f"total_ingested       {metrics.total_ingested}",
            "checkpoint  session       active  tokens",
        ]
        for c in metrics.checkpoints:
            lines.append(f"{c.index:>10}  {c.session_id:<12} {c.active_count:>6} "
                         f"{c.active_tokens:>7}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")

