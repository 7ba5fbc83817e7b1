"""Tiered memory store: ingest, quarantine bookkeeping, lability tracking,
and versioned snapshots.

Batch lifecycle jobs take the store's writer lock and see a consistent
state. Records, graph nodes, semantic memories and quarantine entries are
immutable values, replaced by id, so a transaction checkpoint copies the
containers and shares the values.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from .codec import decode, encode, field_keys
from .embedding import HashEmbedder, normalize
from .errors import (
    DuplicateId,
    EmbeddingFailure,
    IllegalTransition,
    SnapshotFormatError,
)
from .graph import KnowledgeGraph, extract_entities
from .model import (
    LEGAL_MOVES,
    STATE_PENDING,
    STATE_TOMBSTONE,
    TIER_HOT,
    EpisodicRecord,
    FidelityLevel,
    MemoryEvent,
    StoreConfig,
    estimate_tokens,
)

SNAPSHOT_VERSION = 1


def read_events(lines: Iterable[str]) -> Iterator[MemoryEvent]:
    """Parse JSONL event lines. Blank lines are skipped, and keys that
    `MemoryEvent` does not declare are ignored."""
    keys = field_keys(MemoryEvent)
    for line in lines:
        if line.strip():
            d = json.loads(line)
            yield decode(MemoryEvent, {k: v for k, v in d.items() if k in keys})


@dataclass(frozen=True)
class QuarantineEntry:
    event: MemoryEvent
    reason: str  # out_of_order | duplicate | causal_inversion
    quarantined_at: datetime
    expires_at: datetime


class MemoryStore:
    def __init__(self, config: Optional[StoreConfig] = None, embedder=None):
        self.config = config or StoreConfig()
        self.embedder = embedder or HashEmbedder(self.config.embed_dimension,
                                                 self.config.embed_seed)
        self.records: dict[str, EpisodicRecord] = {}
        self.graph = KnowledgeGraph()
        self.quarantine: dict[str, QuarantineEntry] = {}
        self.admitted_ids: set[str] = set()
        self.watermark: Optional[datetime] = None
        # running sum of scored embeddings backing the surprise prior
        self.centroid_sum: Optional[np.ndarray] = None
        self.centroid_count: int = 0
        self.labile_until: dict[str, datetime] = {}
        self.total_ingested: int = 0
        self.batch_seq: int = 0
        self.lock = threading.RLock()

    # -- ingest -----------------------------------------------------------

    def ingest(self, event: MemoryEvent) -> EpisodicRecord:
        """Store a raw event in the hot tier as a pending L0 record."""
        with self.lock:
            if event.id in self.records or event.id in self.admitted_ids:
                raise DuplicateId(event.id)
            try:
                embedding = self.embedder.embed(event.content)
            except Exception as exc:
                raise EmbeddingFailure(str(exc)) from exc
            record = EpisodicRecord(
                event=event,
                embedding=embedding,
                tier=TIER_HOT,
                state=STATE_PENDING,
                fidelity=FidelityLevel.L0,
                encoded_at=event.timestamp,
                ttl_expires_at=event.timestamp + timedelta(hours=self.config.hot_ttl_hours),
                entities=extract_entities(event.content),
            )
            self.records[event.id] = record
            self.total_ingested += 1
            return record

    def ingest_jsonl(self, lines: Iterable[str]) -> list[EpisodicRecord]:
        return [self.ingest(event) for event in read_events(lines)]

    # -- views ------------------------------------------------------------

    def get(self, record_id: str) -> Optional[EpisodicRecord]:
        return self.records.get(record_id)

    def replace(self, record: EpisodicRecord) -> None:
        """Put `record` in place of the stored record with its id. Raises
        `IllegalTransition` on a move against the lifecycle lattice."""
        old = self.records[record.id]
        if record.state not in LEGAL_MOVES[old.state]:
            raise IllegalTransition(f"{record.id}: {old.state} -> {record.state}")
        self.records[record.id] = record

    def active_records(self) -> list[EpisodicRecord]:
        return [r for r in self.records.values() if r.state != STATE_TOMBSTONE]

    def active_count(self) -> int:
        return sum(1 for r in self.records.values() if r.state != STATE_TOMBSTONE)

    def active_tokens(self) -> int:
        return sum(estimate_tokens(r.content) for r in self.records.values()
                   if r.state != STATE_TOMBSTONE)

    def centroid(self) -> Optional[np.ndarray]:
        if self.centroid_count == 0:
            return None
        return normalize(self.centroid_sum)

    def add_to_centroid(self, embedding: np.ndarray) -> None:
        if self.centroid_sum is None:
            self.centroid_sum = np.zeros_like(embedding)
        self.centroid_sum = self.centroid_sum + embedding
        self.centroid_count += 1

    def is_labile(self, record_id: str, now: datetime) -> bool:
        until = self.labile_until.get(record_id)
        return until is not None and now < until

    def logical_now(self) -> Optional[datetime]:
        """Latest timestamp the store has observed: the ingest watermark or
        any later encoding/promotion time set by lifecycle jobs."""
        candidates = [self.watermark] if self.watermark is not None else []
        candidates.extend(r.encoded_at for r in self.records.values())
        candidates.extend(m.created_at for m in self.graph.memories.values())
        return max(candidates) if candidates else None

    def next_batch_id(self) -> str:
        self.batch_seq += 1
        return f"batch-{self.batch_seq:05d}"

    # -- quarantine -------------------------------------------------------

    def quarantine_event(self, event: MemoryEvent, reason: str,
                         now: datetime) -> QuarantineEntry:
        self.records.pop(event.id, None)
        entry = QuarantineEntry(
            event=event, reason=reason, quarantined_at=now,
            expires_at=now + timedelta(minutes=self.config.quarantine_ttl_min))
        self.quarantine[event.id] = entry
        return entry

    # -- state fingerprint / snapshot --------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {
            "version": SNAPSHOT_VERSION,
            "config": encode(self.config),
            "records": [encode(self.records[k]) for k in sorted(self.records)],
            "graph": self.graph.to_dict(),
            "quarantine": [encode(self.quarantine[k]) for k in sorted(self.quarantine)],
            "admitted_ids": sorted(self.admitted_ids),
            "watermark": encode(self.watermark),
            "centroid_sum": encode(self.centroid_sum),
            "centroid_count": self.centroid_count,
            "labile_until": encode(self.labile_until),
            "total_ingested": self.total_ingested,
            "batch_seq": self.batch_seq,
        }

    def snapshot_json(self) -> str:
        return json.dumps(self.state_dict(), sort_keys=True, separators=(",", ":"))

    def save_snapshot(self, path: str) -> None:
        """Write to a sibling temp file, then rename it over `path`, so a
        crash mid-write leaves the previous file intact. There is no fsync:
        this covers process crashes, not power loss."""
        text = self.snapshot_json()
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    @classmethod
    def from_state_dict(cls, d: dict[str, Any], embedder=None) -> "MemoryStore":
        if d.get("version") != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"unsupported snapshot version {d.get('version')}")
        try:
            store = cls(decode(StoreConfig, d["config"]), embedder=embedder)
            for rd in d["records"]:
                rec = decode(EpisodicRecord, rd)
                store.records[rec.id] = rec
            store.graph = KnowledgeGraph.from_dict(d["graph"])
            for qd in d["quarantine"]:
                entry = decode(QuarantineEntry, qd)
                store.quarantine[entry.event.id] = entry
            store.admitted_ids = set(d["admitted_ids"])
            store.watermark = decode(Optional[datetime], d["watermark"])
            store.centroid_sum = decode(Optional[np.ndarray], d["centroid_sum"])
            store.centroid_count = d["centroid_count"]
            store.labile_until = decode(dict[str, datetime], d["labile_until"])
            store.total_ingested = d["total_ingested"]
            store.batch_seq = d["batch_seq"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"malformed snapshot: {exc}") from exc
        return store

    @classmethod
    def load_snapshot(cls, path: str, embedder=None) -> "MemoryStore":
        with open(path, encoding="utf-8") as fh:
            return cls.from_state_dict(json.load(fh), embedder=embedder)

    # -- transactional support ---------------------------------------------

    def _checkpoint(self) -> dict[str, Any]:
        """The store's state for `_restore`. Stored values are immutable, so
        copying the containers that hold them is enough."""
        return {
            "records": dict(self.records),
            "graph": self.graph.copy(),
            "quarantine": dict(self.quarantine),
            "admitted_ids": set(self.admitted_ids),
            "watermark": self.watermark,
            "centroid_sum": None if self.centroid_sum is None else self.centroid_sum.copy(),
            "centroid_count": self.centroid_count,
            "labile_until": dict(self.labile_until),
            "total_ingested": self.total_ingested,
            "batch_seq": self.batch_seq,
        }

    def _restore(self, chk: dict[str, Any]) -> None:
        self.records = chk["records"]
        self.graph = chk["graph"]
        self.quarantine = chk["quarantine"]
        self.admitted_ids = chk["admitted_ids"]
        self.watermark = chk["watermark"]
        self.centroid_sum = chk["centroid_sum"]
        self.centroid_count = chk["centroid_count"]
        self.labile_until = chk["labile_until"]
        self.total_ingested = chk["total_ingested"]
        self.batch_seq = chk["batch_seq"]
