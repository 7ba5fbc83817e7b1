"""Tiered memory store: ingest, quarantine bookkeeping, lability tracking,
versioned snapshots, and the embedding index every similarity scan reads.

Batch lifecycle jobs take the store's writer lock and see a consistent
state. Records, graph nodes, semantic memories and quarantine entries are
immutable values, replaced by id, so a transaction checkpoint copies the
containers and shares the values.

The embedding index is derived state: a float32 matrix of the live
(non-tombstone) records with parallel arrays of their filter fields. It is
never persisted or checkpointed. `MemoryStore.records` marks the ids it
writes, and the next scan (or the end of a forgetting run) brings just those
rows up to date; a store loaded from a snapshot or rolled back builds the
index anew on its first scan.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Any, Iterable, Iterator, Optional, Sequence

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


class RecordMap(dict):
    """The store's id -> record dict. Every writer notes the ids it touches
    in `dirty`, so the embedding index brings just those rows up to date; a
    new map is `stale`, and the index is rebuilt from it whole."""

    __slots__ = ("dirty", "stale")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dirty: set[str] = set()
        self.stale = True

    def __setitem__(self, key, value):
        dict.__setitem__(self, key, value)
        self.dirty.add(key)

    def __delitem__(self, key):
        dict.__delitem__(self, key)
        self.dirty.add(key)

    def pop(self, key, *default):
        self.dirty.add(key)
        return dict.pop(self, key, *default)

    def popitem(self):
        key, value = dict.popitem(self)
        self.dirty.add(key)
        return key, value

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]

    def update(self, *args, **kwargs):
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __ior__(self, other):
        self.update(other)
        return self

    def clear(self):
        dict.clear(self)
        self.stale = True

    def __reduce__(self):
        return type(self), (dict(self),)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _micros(ts: datetime) -> int:
    """`ts` as whole microseconds since the epoch: exact, and ordered as the
    datetimes are."""
    return (ts - _EPOCH) // _MICROSECOND


_U64 = 2.0 ** -53      # unit roundoff of float64
_U32 = 2.0 ** -24      # unit roundoff of float32
_TINY32 = 2.0 ** -149  # spacing of the float32 subnormals


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: the relative error bound of an n-term dot product
    accumulated in any order with unit roundoff u."""
    return n * u / (1.0 - n * u)


def dot_error_bound(d: int, qnorm, rownorm):
    """A bound on |s32 - s64| for two float64 vectors q and e of length d,
    where s64 is `np.dot(q, e)` and s32 is the dot product of their float32
    roundings accumulated in float32 in any order, as a float32 BLAS call
    computes it. Broadcasts over arrays of norms.

    |s64 - q.e| <= gamma_d(u64) sum|q_j e_j|. Rounding both entries to
    float32 moves each product by at most (2 u32 + u32^2) |q_j e_j|, and the
    float32 sum adds gamma_d(u32) (1 + u32)^2 sum|q_j e_j|. Cauchy-Schwarz
    bounds sum|q_j e_j| by ||q|| ||e||. An entry or product below the
    float32 normal range rounds by an absolute amount instead, at most half
    a subnormal spacing: 2^-149 (sqrt(d) (||q|| + ||e||) + d) covers those,
    twice over. The last factor covers the rounding of the float64 norms and
    of this formula itself."""
    rel = (_gamma(d, _U64) + (1.0 + _U32) ** 2 * _gamma(d, _U32)
           + 2.0 * _U32 + _U32 ** 2)
    tiny = _TINY32 * (math.sqrt(d) * (qnorm + rownorm) + d)
    return (rel * qnorm * rownorm + tiny) * (1.0 + _gamma(2 * d + 4, _U64))


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.setflags(write=False)
# float32 cells of one batch x store product in `rows_reaching`
_PRODUCT_CELLS = 1 << 18


class EmbeddingIndex:
    """A float32 matrix of the live (non-tombstone) records' embeddings, one
    row each, with parallel arrays of what scans filter on: encoding and
    event times in integer microseconds, importance, the float64 norm of the
    embedding, and interned codes of tier, session and state.

    Rows are in no particular order; removing one moves the last row into
    its place. The index holds no records, only their keys, so a record the
    store drops is freed at once. The float32 products only choose
    candidates. Callers rescore those with the float64 `np.dot` of the
    records themselves, and `dot_error_bound` keeps every record that the
    float64 score could pick among the candidates, so results are those of a
    float64 scan."""

    _COLUMNS = (("encoded", np.int64), ("timestamp", np.int64),
                ("importance", np.float64), ("norm", np.float64),
                ("tier", np.int32), ("session", np.int32), ("state", np.int32))
    _CODED = ("tier", "session", "state")

    def __init__(self) -> None:
        self.keys: list[str] = []  # row -> record key
        self._rows: dict[str, int] = {}
        self._codes: dict[str, dict[str, int]] = {c: {} for c in self._CODED}
        self._resize(0, 0)

    def __len__(self) -> int:
        return len(self.keys)

    def column(self, name: str) -> np.ndarray:
        """The live rows of a parallel array, e.g. "importance"."""
        return getattr(self, "_" + name)[:len(self.keys)]

    def row(self, key: str) -> int:
        return self._rows[key]

    # -- upkeep ------------------------------------------------------------

    def sync(self, records: RecordMap) -> None:
        """Bring the rows up to date with `records`: the dirty ids, or every
        record when the map is stale."""
        if records.stale:
            live = [(k, r) for k, r in records.items() if r.state != STATE_TOMBSTONE]
            self.keys, self._rows = [], {}
            self._codes = {c: {} for c in self._CODED}
        else:
            live = []
            for key in records.dirty:
                rec = records.get(key)
                if rec is not None and rec.state != STATE_TOMBSTONE:
                    live.append((key, rec))
                elif key in self._rows:
                    self._remove(self._rows[key])
        self._write(live)
        records.stale = False
        records.dirty.clear()

    def _resize(self, capacity: int, dim: int) -> None:
        n = len(self.keys)
        matrix = np.zeros((capacity, dim), dtype=np.float32)
        if n:
            matrix[:n] = self._matrix[:n]
        self._matrix = matrix
        for name, dtype in self._COLUMNS:
            col = np.zeros(capacity, dtype=dtype)
            if n:
                col[:n] = getattr(self, "_" + name)[:n]
            setattr(self, "_" + name, col)

    def _code(self, column: str, value: str) -> int:
        codes = self._codes[column]
        return codes.setdefault(value, len(codes))

    def _write(self, items: list[tuple[str, EpisodicRecord]]) -> None:
        """Write each (key, record) into its row, appending rows for new
        keys."""
        if not items:
            return
        new = [k for k, _r in items if k not in self._rows]
        n = len(self.keys)
        size = n + len(new)
        dim = self._matrix.shape[1] if n else len(items[0][1].embedding)
        if size > len(self._matrix) or dim != self._matrix.shape[1]:
            # headroom, so that a trickle of new records does not reallocate
            self._resize(size + size // 8 + 16, dim)
        for key in new:
            self._rows[key] = len(self.keys)
            self.keys.append(key)
        rows = np.array([self._rows[k] for k, _r in items], dtype=np.intp)
        recs = [r for _k, r in items]
        step = 256
        for lo in range(0, len(recs), step):
            part = np.stack([r.embedding for r in recs[lo:lo + step]])
            self._matrix[rows[lo:lo + step]] = part
            self._norm[rows[lo:lo + step]] = np.sqrt(np.einsum("ij,ij->i", part, part))
        self._encoded[rows] = [_micros(r.encoded_at) for r in recs]
        self._timestamp[rows] = [_micros(r.event.timestamp) for r in recs]
        self._importance[rows] = [r.importance for r in recs]
        self._tier[rows] = [self._code("tier", r.tier) for r in recs]
        self._session[rows] = [self._code("session", r.event.session_id) for r in recs]
        self._state[rows] = [self._code("state", r.state) for r in recs]

    def _remove(self, row: int) -> None:
        last = len(self.keys) - 1
        del self._rows[self.keys[row]]
        if row != last:
            self._matrix[row] = self._matrix[last]
            for name, _dtype in self._COLUMNS:
                col = getattr(self, "_" + name)
                col[row] = col[last]
            self.keys[row] = self.keys[last]
            self._rows[self.keys[row]] = row
        self.keys.pop()

    # -- scans ---------------------------------------------------------------

    def select(self, now: datetime, tier: Optional[str] = None,
               session_id: Optional[str] = None,
               time_range: Optional[tuple[datetime, datetime]] = None
               ) -> np.ndarray:
        """Rows encoded at or before `now`, in `tier` and `session_id` when
        given, with an event timestamp within `time_range` when given."""
        n = len(self.keys)
        if not n:
            return _NO_ROWS
        mask = self._encoded[:n] <= _micros(now)
        for column, value in (("tier", tier), ("session", session_id)):
            if value is not None:
                code = self._codes[column].get(value)
                if code is None:
                    return _NO_ROWS
                mask &= self.column(column) == code
        if time_range is not None:
            ts = self._timestamp[:n]
            mask &= (ts >= _micros(time_range[0])) & (ts <= _micros(time_range[1]))
        return np.flatnonzero(mask)

    def in_states(self, states: Iterable[str]) -> np.ndarray:
        """A mask over the rows: True where the record's state is in
        `states`."""
        codes = [self._codes["state"][s] for s in states if s in self._codes["state"]]
        return np.isin(self.column("state"), codes)

    def top_candidates(self, qvec: np.ndarray, rows: np.ndarray,
                       k: int) -> np.ndarray:
        """The rows among `rows` whose float64 score `np.dot(qvec, e)` may be
        among their k highest: every row whose score bound reaches the lowest
        score the k-th highest can have."""
        m = len(rows)
        if not 0 < k < m:
            return rows
        n, dim = len(self.keys), self._matrix.shape[1]
        q32 = qvec.astype(np.float32)
        if 2 * m > n:
            s32 = (self._matrix[:n] @ q32)[rows]
        else:
            s32 = self._matrix[rows] @ q32
        s = s32.astype(np.float64)
        bound = dot_error_bound(dim, math.sqrt(float(np.dot(qvec, qvec))),
                                self._norm[rows])
        kth = np.partition(s, m - k)[m - k]
        floor = kth - bound.max()
        if not math.isfinite(floor):
            return rows
        return rows[~(s + bound < floor)]

    def rows_reaching(self, rows: Sequence[int], among: np.ndarray,
                      threshold: float) -> Iterator[tuple[int, int]]:
        """Pairs (i, j): `rows[i]` and a row j where `among` is True, whose
        float64 score may reach `threshold`. One float32 product per chunk
        of `rows`; each row of it is held to the bound for the largest norm
        among the rows it is paired with."""
        n, dim = len(self.keys), self._matrix.shape[1]
        if not n:
            return
        rows = np.asarray(rows, dtype=np.intp)
        widest = float(self._norm[:n].max())
        step = max(1, _PRODUCT_CELLS // n)
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            s = self._matrix[part] @ self._matrix[:n].T
            floor = threshold - dot_error_bound(dim, self._norm[part], widest)
            reach = ~(s < floor[:, None]) & among
            for i, j in zip(*np.nonzero(reach)):
                yield lo + int(i), int(j)


class MemoryStore:
    def __init__(self, config: Optional[StoreConfig] = None, embedder=None):
        self.config = config or StoreConfig()
        self.embedder = embedder or HashEmbedder(self.config.embed_dimension,
                                                 self.config.embed_seed)
        self.records = {}
        self._index = EmbeddingIndex()
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

    @property
    def records(self) -> RecordMap:
        return self._records

    @records.setter
    def records(self, mapping: dict[str, EpisodicRecord]) -> None:
        self._records = RecordMap(mapping)

    def embedding_index(self) -> EmbeddingIndex:
        """The embedding index, brought up to date with `records`."""
        with self.lock:
            self._index.sync(self._records)
            return self._index

    # -- ingest -----------------------------------------------------------

    def ingest(self, event: MemoryEvent) -> EpisodicRecord:
        """Store a raw event in the hot tier as a pending L0 record. An id
        held in quarantine is taken: that event may still be re-admitted."""
        with self.lock:
            if event.id in self.quarantine:
                raise DuplicateId(event.id)
            record = self._store_pending(event)
            self.total_ingested += 1
            return record

    def readmit(self, event: MemoryEvent) -> EpisodicRecord:
        """Put a quarantined event back as a pending record and mark it
        admitted. It is not new input: `total_ingested` counted it when it
        first arrived."""
        with self.lock:
            record = self._store_pending(event)
            self.admitted_ids.add(event.id)
            return record

    def _store_pending(self, event: MemoryEvent) -> EpisodicRecord:
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
            records = {}
            for rd in d["records"]:
                rec = decode(EpisodicRecord, rd)
                records[rec.id] = rec
            store.records = records
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
        copying the containers that hold them is enough. The embedding index
        is derived: `_restore` leaves it to be rebuilt."""
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
