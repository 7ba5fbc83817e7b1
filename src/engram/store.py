"""Tiered memory store: ingest, quarantine bookkeeping, lability tracking,
versioned snapshots, and the embedding index every similarity scan reads.

Batch lifecycle jobs run in `MemoryStore.transaction()`: they hold the
store's writer lock, so they see a consistent state, and a job that raises
leaves the store as it found it. Records, graph nodes, semantic memories
and quarantine entries are immutable values, replaced by id, so the
transaction's checkpoint copies the containers and shares the values. The
record map's copy keeps its order, and with it the pending records' arrival
order. The admitted ids only grow, and keep the order they were added
in: the checkpoint takes that order's length instead of a copy, and a
rollback cuts the order back to it, dropping the ids added since.

The embedding index is derived state: a dimension-major float32 matrix, one
column per live (non-tombstone) record, with parallel arrays of their
filter fields. It is never persisted or checkpointed. The episodic scan
reads it: a query's product reads only the matrix rows of the query's
non-zero dimensions, and the k-th highest score is read off a sort, which
ties cannot slow. `MemoryStore.near` is the one candidate search behind the
frequency factor, near-dedup and interference. `MemoryStore.records` marks
the ids it writes, and the next scan (or the end of a forgetting run)
brings just those rows up to date. A store loaded from a snapshot or rolled
back gets a new map and a fresh index, which its first scan fills the same
way.

A snapshot is read under the lock. Its text splices in each stored value's
canonical JSON, which `codec.dumps` encodes on the first snapshot that holds
the value and memoizes on it; an unchanged record is never encoded twice.
Nothing is encoded at load or in `replace`. `MemoryStore.fingerprint` is the
sha256 of the snapshot text. Snapshots are written as version 2, where every
array (embeddings, the centroid sum) is the codec's sparse object of its
non-zero entries; version 1, with dense float lists, is still read.

The record map has one write path. Item assignment, `del` and `pop` report
each write to one hook, `RecordMap._note`, which marks the id for the index
and keeps the live (non-tombstone) record count and their token total, the
pending ids in arrival order, and each retained or promoted content's
holders. So `active_count`, `active_tokens`, `pending_records` and `holders`
cost what they return, not a walk over every record. The other dict
mutators raise `TypeError`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from .codec import decode, encode, field_keys, write
from .embedding import HashEmbedder, column_scores, normalize
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
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    TIER_HOT,
    EpisodicRecord,
    FidelityLevel,
    MemoryEvent,
    StoreConfig,
    estimate_tokens,
)

SNAPSHOT_VERSION = 2
READABLE_VERSIONS = (1, 2)


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
    reason: str  # out_of_order | causal_inversion
    quarantined_at: datetime
    expires_at: datetime


_HOLDING = (STATE_RETAINED, STATE_PROMOTED)


class RecordMap(dict):
    """The store's id -> record dict. Its three writers, `[]=`, `del` and
    `pop`, report each write to `_note`, which keeps the derived state:
    `dirty`, the ids written since the embedding index last read them, in
    the order first written; `live`, the count of non-tombstone records;
    `tokens`, their `estimate_tokens` total; `pending`, the ids of the
    pending records in the map's own order, which is their arrival order;
    and `holders`, each content of a retained or promoted record -> the ids
    of the retained and promoted records that hold it. A new map notes
    every id it holds. The other dict mutators raise `TypeError`; reads are
    the dict's own."""

    __slots__ = ("dirty", "live", "tokens", "pending", "holders")

    def __init__(self, mapping=()):
        super().__init__(mapping)
        self.dirty: dict[str, None] = {}
        self.pending: dict[str, None] = {}
        self.holders: dict[str, list[str]] = {}
        self.live = self.tokens = 0
        for key, record in self.items():
            self._note(key, None, record)

    def _note(self, key: str, old: Optional[EpisodicRecord],
              new: Optional[EpisodicRecord]) -> None:
        """Account for the record at `key` going from `old` to `new` (None:
        absent)."""
        holders = self.holders
        for record, sign in ((old, -1), (new, 1)):
            if record is None:
                continue
            state = record.state
            if state == STATE_TOMBSTONE:
                continue
            content = record.content
            self.live += sign
            self.tokens += sign * estimate_tokens(content)
            if state in _HOLDING:
                ids = holders.get(content)
                if sign < 0:
                    ids.remove(key)
                    if not ids:
                        del holders[content]
                elif ids is None:
                    holders[content] = [key]
                else:
                    ids.append(key)
        was = old is not None and old.state == STATE_PENDING
        if was != (new is not None and new.state == STATE_PENDING):
            if was:
                del self.pending[key]
            elif old is None:
                self.pending[key] = None  # the map appends a new key too
            else:
                # back into pending, against the lattice: the id keeps its
                # place in the map, so it takes that place among the pending
                self.pending = {k: None for k in self
                                if k == key or k in self.pending}
        self.dirty[key] = None

    def __setitem__(self, key, value):
        self._note(key, self.get(key), value)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key):
        self._note(key, self[key], None)
        dict.__delitem__(self, key)

    def pop(self, key, *default):
        if key in self:
            self._note(key, self[key], None)
        return dict.pop(self, key, *default)

    def _refuse(self, *_args, **_kwargs):
        raise TypeError(f"{type(self).__name__} writes only through [], del and pop")

    popitem = setdefault = update = __ior__ = clear = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class AdmittedIds(set):
    """The ids temporal validation admitted. An admitted id never comes back
    (`DuplicateId`), so the set only grows: `add` is its one writer, and the
    other set mutators raise `TypeError`.

    `order` lists the ids in the order given and added, and only grows but
    for `rollback`. A savepoint is its length, and `rollback` drops the ids
    added after one. So savepoints nest without bookkeeping: a rollback to
    an outer savepoint also drops the ids added after any inner one."""

    __slots__ = ("order",)

    def __init__(self, ids=()):
        order = list(ids)
        super().__init__(order)
        self.order = order

    def add(self, key: str) -> None:
        if key not in self:
            set.add(self, key)
            self.order.append(key)

    def rollback(self, savepoint: int) -> None:
        """Drop the ids added after `savepoint`, a length of `order`."""
        for key in self.order[savepoint:]:
            set.discard(self, key)
        del self.order[savepoint:]

    def _refuse(self, *_args, **_kwargs):
        raise TypeError(f"{type(self).__name__} grows only through add")

    remove = discard = pop = clear = update = _refuse
    intersection_update = difference_update = symmetric_difference_update = _refuse
    __ior__ = __iand__ = __isub__ = __ixor__ = _refuse

    def __reduce__(self):
        return type(self), (self.order,)


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
    """A float32 matrix of the live (non-tombstone) records' embeddings with
    parallel arrays of what scans filter on: encoding and event times in
    integer microseconds, importance, the float64 norm of the embedding, and
    interned codes of tier, session and state. Each record takes one row
    index: a column of the matrix and a slot of each array.

    The matrix is dimension-major, shape (dimension, capacity), so that each
    embedding dimension is one contiguous row across the records. A query
    embedding from `HashEmbedder` has one non-zero dimension per distinct
    token, so its product reads just those rows; a dense query reads the
    matrix in one mat-vec. A new record goes in the next free column, and
    removing one moves the last column into its place. The index holds no
    records, only their keys, so a record the store drops is freed at once.

    The float32 products only choose candidates. Callers rescore those with
    the float64 `np.dot` of the records themselves, and `dot_error_bound`
    keeps every record that the float64 score could pick among the
    candidates, so results are those of a float64 scan. A zero term adds
    nothing to a sum, so the bound for `dimension` terms also covers a
    product taken over fewer of them."""

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
        """Bring the rows of the ids `records` noted since the last sync up
        to date, in the order first noted: write each live record, and drop
        the row of each id that is gone or a tombstone. A fresh index
        synced with a new map holds its live records in the map's order."""
        live, gone = [], []
        for key in records.dirty:
            rec = records.get(key)
            if rec is not None and rec.state != STATE_TOMBSTONE:
                live.append((key, rec))
            elif key in self._rows:
                gone.append(key)
        self._remove(gone)
        self.write(live)
        records.dirty.clear()

    def _resize(self, capacity: int, dim: int) -> None:
        n = len(self.keys)
        matrix = np.zeros((dim, capacity), dtype=np.float32)
        if n:
            matrix[:, :n] = self._matrix[:, :n]
        self._matrix = matrix
        for name, dtype in self._COLUMNS:
            col = np.zeros(capacity, dtype=dtype)
            if n:
                col[:n] = getattr(self, "_" + name)[:n]
            setattr(self, "_" + name, col)

    def _code(self, column: str, value: str) -> int:
        codes = self._codes[column]
        return codes.setdefault(value, len(codes))

    def write(self, items: list[tuple[str, EpisodicRecord]]) -> None:
        """Write each (key, record) into its row, appending rows for new
        keys."""
        if not items:
            return
        new = [k for k, _r in items if k not in self._rows]
        n = len(self.keys)
        size = n + len(new)
        dim = self._matrix.shape[0] if n else len(items[0][1].embedding)
        if size > self._matrix.shape[1] or dim != self._matrix.shape[0]:
            # headroom, so that a trickle of new records does not reallocate
            self._resize(size + size // 8 + 16, dim)
        for key in new:
            self._rows[key] = len(self.keys)
            self.keys.append(key)
        rows = np.array([self._rows[k] for k, _r in items], dtype=np.intp)
        recs = [r for _k, r in items]
        step = 256
        for lo in range(0, len(recs), step):
            # np.array copies a list of vectors in one pass; np.stack takes
            # three times as long
            part = np.array([r.embedding for r in recs[lo:lo + step]])
            self._matrix[:, rows[lo:lo + step]] = part.T
            self._norm[rows[lo:lo + step]] = np.sqrt(np.einsum("ij,ij->i", part, part))
        self._encoded[rows] = [_micros(r.encoded_at) for r in recs]
        self._timestamp[rows] = [_micros(r.event.timestamp) for r in recs]
        self._importance[rows] = [r.importance for r in recs]
        self._tier[rows] = [self._code("tier", r.tier) for r in recs]
        self._session[rows] = [self._code("session", r.event.session_id) for r in recs]
        self._state[rows] = [self._code("state", r.state) for r in recs]

    def _remove(self, keys: list[str]) -> None:
        """Drop the row of each of `keys`, in order, by moving the last row
        into its place. The keys move one by one; the matrix columns and
        arrays move once, each from the row it started in."""
        source: dict[int, int] = {}  # row -> the row it now takes its values from
        for key in keys:
            row = self._rows.pop(key)
            last = len(self.keys) - 1
            moved = source.pop(last, last)
            if row != last:
                source[row] = moved
                self.keys[row] = self.keys[last]
                self._rows[self.keys[row]] = row
            self.keys.pop()
        if source:
            dst = np.fromiter(source, dtype=np.intp, count=len(source))
            src = np.fromiter(source.values(), dtype=np.intp, count=len(source))
            self._matrix[:, dst] = self._matrix[:, src]
            for name, _dtype in self._COLUMNS:
                col = getattr(self, "_" + name)
                col[dst] = col[src]

    # -- scans ---------------------------------------------------------------

    def visible(self, now: datetime,
                time_range: Optional[tuple[datetime, datetime]] = None
                ) -> np.ndarray:
        """A mask over the rows: True where the record was encoded at or
        before `now` and, when `time_range` is given, its event timestamp
        lies within it."""
        n = len(self.keys)
        mask = self._encoded[:n] <= _micros(now)
        if time_range is not None:
            ts = self._timestamp[:n]
            mask &= (ts >= _micros(time_range[0])) & (ts <= _micros(time_range[1]))
        return mask

    def where(self, mask: np.ndarray, tier: Optional[str] = None,
              session_id: Optional[str] = None) -> np.ndarray:
        """The rows where `mask` is True and the record is in `tier` and
        `session_id`, each when given."""
        for column, value in (("tier", tier), ("session", session_id)):
            if value is not None:
                code = self._codes[column].get(value)
                if code is None:
                    return _NO_ROWS
                mask = mask & (self.column(column) == code)
        return np.flatnonzero(mask)

    def in_states(self, states: Iterable[str]) -> np.ndarray:
        """A mask over the rows: True where the record's state is in
        `states`."""
        codes = [self._codes["state"][s] for s in states if s in self._codes["state"]]
        return np.isin(self.column("state"), codes)

    def scores(self, qvec: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The float32 products of `qvec` with the embeddings of `rows`, by
        `column_scores`."""
        return column_scores(self._matrix[:, :len(self.keys)], qvec, rows)

    def top_candidates(self, qvec: np.ndarray, groups: Sequence[np.ndarray],
                       k: int) -> list[np.ndarray]:
        """For each of `groups`, disjoint arrays of rows: the rows of the
        group whose float64 score `np.dot(qvec, e)` may be among the group's
        k highest, that is, every row whose score bound reaches the lowest
        score the group's k-th highest can have. Each row is held to the
        bound for the widest live row.

        One float32 product, `scores` over every group's rows, serves them
        all. The k-th score is read off a float32 sort: `np.partition`
        slows down on the long runs of equal scores that a sparse query
        gives, and a sort does not."""
        if not any(0 < k < len(group) for group in groups):
            return list(groups)
        rows = np.concatenate(groups)
        s32 = self.scores(qvec, rows)
        s = s32.astype(np.float64)
        bound = dot_error_bound(self._matrix.shape[0],
                                math.sqrt(float(np.dot(qvec, qvec))),
                                float(self._norm[:len(self.keys)].max()))
        out, lo = [], 0
        for group in groups:
            m, hi = len(group), lo + len(group)
            if 0 < k < m:
                floor = float(np.sort(s32[lo:hi])[m - k]) - bound
                if math.isfinite(floor):
                    group = group[~(s[lo:hi] + bound < floor)]
            out.append(group)
            lo = hi
        return out

    def rows_reaching(self, rows: Sequence[int], among: np.ndarray,
                      threshold: float) -> Iterator[tuple[int, int]]:
        """Pairs (i, j): `rows[i]` and a row j where `among` is True, whose
        float64 score may reach `threshold`. One float32 product per chunk
        of `rows`; each row of it is held to the bound for the largest norm
        among the rows it is paired with."""
        n, dim = len(self.keys), self._matrix.shape[0]
        if not n:
            return
        rows = np.asarray(rows, dtype=np.intp)
        widest = float(self._norm[:n].max())
        step = max(1, _PRODUCT_CELLS // n)
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            s = self._matrix[:, part].T @ self._matrix[:, :n]
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
        self.graph = KnowledgeGraph()
        self.quarantine: dict[str, QuarantineEntry] = {}
        self.admitted_ids = AdmittedIds()
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
        # a new map notes every id it holds, and the first scan writes them
        # into the fresh index beside it
        self._records = RecordMap(mapping)
        self._index = EmbeddingIndex()

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

    def replace(self, record: EpisodicRecord) -> None:
        """Put `record` in place of the stored record with its id. Raises
        `IllegalTransition` on a move against the lifecycle lattice."""
        old = self.records[record.id]
        if record.state not in LEGAL_MOVES[old.state]:
            raise IllegalTransition(f"{record.id}: {old.state} -> {record.state}")
        self.records[record.id] = record

    def near(self, records: Sequence[EpisodicRecord], threshold: float,
             states: Optional[Iterable[str]] = None) -> list[list[EpisodicRecord]]:
        """For each of `records` (live records of this store), the records
        whose float64 `np.dot` with it may reach `threshold`: a superset of
        those that do, in no particular order, the record itself included
        when it qualifies. They are drawn from the live records or, when
        `states` is given, from the records in `states` and `records`
        themselves. A float32 product of `records` with the embedding index
        picks them within `dot_error_bound`; callers decide each pair with
        `np.dot`."""
        with self.lock:
            index = self.embedding_index()
            rows = [index.row(r.id) for r in records]
            if states is None:
                among = np.ones(len(index), dtype=bool)
            else:
                among = index.in_states(states)
                among[rows] = True
            out: list[list[EpisodicRecord]] = [[] for _ in records]
            for i, j in index.rows_reaching(rows, among, threshold):
                out[i].append(self.records[index.keys[j]])
            return out

    def active_count(self) -> int:
        return self.records.live

    def active_tokens(self) -> int:
        return self.records.tokens

    def pending_records(self) -> list[EpisodicRecord]:
        """The pending records, in arrival order."""
        records = self.records
        return [records[k] for k in records.pending]

    def holders(self, contents: Iterable[str]) -> set[str]:
        """The ids of the retained and promoted records whose content is
        one of `contents`."""
        held = self.records.holders
        return {k for content in contents for k in held.get(content, ())}

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
        any later encoding/promotion time set by lifecycle jobs. The graph's
        newest memory time is the latest key of its query state's groups."""
        candidates = [self.watermark] if self.watermark is not None else []
        candidates.extend(r.encoded_at for r in self.records.values())
        candidates.extend(self.graph.query_state().groups)
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

    def _state(self) -> dict[str, Any]:
        """The snapshot's state with the stored values in place. Lists hold
        stored values, whose memoized text `codec.write` splices in; other
        sequences are tuples, written whole."""
        return {
            "version": SNAPSHOT_VERSION,
            "config": self.config,
            "records": [self.records[k] for k in sorted(self.records)],
            "graph": self.graph.snapshot_state(),
            "quarantine": [self.quarantine[k] for k in sorted(self.quarantine)],
            "admitted_ids": tuple(sorted(self.admitted_ids)),
            "watermark": self.watermark,
            "centroid_sum": self.centroid_sum,
            "centroid_count": self.centroid_count,
            "labile_until": self.labile_until,
            "total_ingested": self.total_ingested,
            "batch_seq": self.batch_seq,
        }

    def state_dict(self) -> dict[str, Any]:
        with self.lock:
            return encode(self._state())

    def snapshot_json(self) -> str:
        """`json.dumps(self.state_dict(), sort_keys=True, separators=(",", ":"))`,
        with each stored value's text encoded once and reused."""
        pieces: list[str] = []
        with self.lock:
            write(self._state(), pieces)
        return "".join(pieces)

    def fingerprint(self) -> str:
        """The hex sha256 of `snapshot_json()`: equal fingerprints mean
        byte-identical snapshots."""
        return hashlib.sha256(self.snapshot_json().encode("utf-8")).hexdigest()

    def save_snapshot(self, path: str) -> None:
        """Write to a sibling temp file, then rename it over `path`, so a
        crash mid-write leaves the previous file intact. The lock is held
        throughout, so the file holds one consistent state and no other
        thread's save interleaves. There is no fsync: this covers process
        crashes, not power loss."""
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        with self.lock:
            text = self.snapshot_json()
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
        if d.get("version") not in READABLE_VERSIONS:
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
            store.admitted_ids = AdmittedIds(d["admitted_ids"])
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
        copying the containers that hold them is enough; the admitted ids
        only grow, so the length of their `order` stands for them. The
        embedding index is derived: `_restore` leaves it to be rebuilt."""
        return {
            "records": dict(self.records),
            "graph": self.graph.copy(),
            "quarantine": dict(self.quarantine),
            "admitted_ids": len(self.admitted_ids.order),
            "watermark": self.watermark,
            "centroid_sum": None if self.centroid_sum is None else self.centroid_sum.copy(),
            "centroid_count": self.centroid_count,
            "labile_until": dict(self.labile_until),
            "total_ingested": self.total_ingested,
            "batch_seq": self.batch_seq,
        }

    def _restore(self, chk: dict[str, Any]) -> None:
        for name, value in chk.items():
            if name != "admitted_ids":
                setattr(self, name, value)
        self.admitted_ids.rollback(chk["admitted_ids"])

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Run a lifecycle job's body under the writer lock. When the body
        raises an `Exception`, the store is restored to its state at entry
        and the error is re-raised. Transactions nest: an enclosing
        transaction's rollback also drops what an inner one committed."""
        with self.lock:
            chk = self._checkpoint()
            try:
                yield
            except Exception:
                self._restore(chk)
                raise
