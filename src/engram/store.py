"""Tiered memory store: ingest, quarantine bookkeeping, lability tracking,
versioned snapshots, and the embedding index of the live records.

Batch lifecycle jobs run in `MemoryStore.transaction()`: they hold the
store's writer lock, so they see a consistent state, and a job that raises
leaves the store as it found it. Records, graph nodes, semantic memories
and quarantine entries are immutable values, replaced by id, so the
transaction's checkpoint copies the containers and shares the values. The
record map's copy keeps its order, and with it the pending records' arrival
order. The admitted ids only grow, and keep the order they were added
in: the checkpoint takes that order's length instead of a copy, and a
rollback cuts the order back to it, dropping the ids added since.

The embedding index is derived state: one column per live (non-tombstone)
record in an `EmbeddingMatrix`, the float32 column store of
`engram.embedding`, with parallel arrays of their filter fields. It is
never persisted or checkpointed. The episodic scan reads it: a query's
product reads only the matrix rows of the query's non-zero dimensions, and
the k-th highest score is read off a sort, which ties cannot slow. The
candidates are then scored exactly from the embedding arrays the matrix
holds, with no record read, and ranked by the index's columns.
`MemoryStore.near` is the one candidate search behind the frequency factor
and interference, and finds the stored records of near-dedup's pool. `MemoryStore.records` marks
the ids it writes, and the next scan (or the end of a forgetting run)
brings just those rows up to date. A store loaded from a snapshot or rolled
back gets a new map and a fresh index, which its first scan fills the same
way.

A snapshot is read under the lock, and its text costs what changed since
the last one. It splices in each stored value's canonical JSON, which
`codec.dumps` encodes on the first snapshot that holds the value and
memoizes on it; an unchanged record is never encoded twice, and a new
value formats each of its datetime objects once. The admitted ids keep
their sorted list and its text (`AdmittedIds.text`), which a snapshot
brings up to date by sorting only the ids added since the last one,
merging them in and joining the list; a rollback that drops ids the list
holds drops both, and the next snapshot builds them anew. The graph keeps
its edge list's text, entity by entity, and its one edge writer drops the
text of the entity it writes.
Nothing is encoded at load or in `replace`, and `state_dict` reads none of
these texts. `MemoryStore.fingerprint` is the sha256 of the snapshot text.
Snapshots are written as version 2, where every array (embeddings, the
centroid sum) is the codec's sparse object of its non-zero entries;
version 1, with dense float lists, is still read.

The record map has one write path. Item assignment, `del` and `pop` report
each write to one hook, `RecordMap._note`, which marks the id for the index
and keeps the live (non-tombstone) record count and their token total, the
pending ids in arrival order, each retained or promoted content's
holders, and the newest encoding time. So `active_count`, `active_tokens`,
`pending_records`, `holders` and `logical_now` cost what they return, not a
walk over every record. The other dict mutators raise `TypeError`.
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

from .codec import Spliced, canonical, decode, encode, field_keys, write
from .embedding import _NO_ROWS, EmbeddingMatrix, HashEmbedder, normalize
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
    TIER_WARM,
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
    `holders`, each content of a retained or promoted record -> the ids
    of the retained and promoted records that hold it; and the newest
    `encoded_at` of any record, which `newest` reads. A new map notes
    every id it holds. The other dict mutators raise `TypeError`; reads are
    the dict's own."""

    __slots__ = ("dirty", "live", "tokens", "pending", "holders", "_newest", "_at_newest")

    def __init__(self, mapping=()):
        super().__init__(mapping)
        self.dirty: dict[str, None] = {}
        self.pending: dict[str, None] = {}
        self.holders: dict[str, list[str]] = {}
        self.live = self.tokens = 0
        # no record is encoded after `_newest`, and `_at_newest` are encoded
        # at it; when none are, the newest is unknown until `newest` walks
        self._newest: Optional[datetime] = None
        self._at_newest = 0
        for key, record in self.items():
            self._note(key, None, record)

    def _note(self, key: str, old: Optional[EpisodicRecord],
              new: Optional[EpisodicRecord]) -> None:
        """Account for the record at `key` going from `old` to `new` (None:
        absent)."""
        holders = self.holders
        before = None if old is None else old.encoded_at
        after = None if new is None else new.encoded_at
        if before is not after:  # a new value of a record shares its time
            if before is not None and before == self._newest:
                self._at_newest -= 1
            if after is not None:
                if self._newest is None or after > self._newest:
                    self._newest, self._at_newest = after, 1
                elif after == self._newest:
                    self._at_newest += 1
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

    def newest(self) -> Optional[datetime]:
        """The newest `encoded_at` of any record, tombstones included; None
        for an empty map. It walks the records only after every record
        encoded at the newest time has left the map."""
        if not self._at_newest:
            self._newest = max((r.encoded_at for r in self.values()), default=None)
            self._at_newest = sum(r.encoded_at == self._newest for r in self.values())
        return self._newest

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
    an outer savepoint also drops the ids added after any inner one.

    `text()` is the canonical JSON text of the sorted ids, which the set
    keeps for the ids `order` held at the last call, sorted in a list: each
    call sorts only the ids added since, merges them into that list and
    joins it. An id whose text is more than its quotes (an escape) makes
    every later call encode each id anew. The first call builds the list,
    not `__init__`, and a rollback that drops ids the list holds drops it."""

    __slots__ = ("order", "_sorted", "_text", "_escaped")

    def __init__(self, ids=()):
        order = list(ids)
        super().__init__(order)
        self.order = order
        self._drop_text()

    def add(self, key: str) -> None:
        if key not in self:
            set.add(self, key)
            self.order.append(key)

    def rollback(self, savepoint: int) -> None:
        """Drop the ids added after `savepoint`, a length of `order`."""
        for key in self.order[savepoint:]:
            set.discard(self, key)
        del self.order[savepoint:]
        if savepoint < len(self._sorted):
            self._drop_text()

    def _drop_text(self) -> None:
        # `_text` is the text of `_sorted`, the ids of `order[:len(_sorted)]`
        self._sorted: list[str] = []
        self._text = "[]"
        self._escaped = False

    def text(self) -> str:
        """`codec.dumps(tuple(sorted(self)))`, kept current."""
        ids = self._sorted
        if len(ids) == len(self.order):
            return self._text
        new = self.order[len(ids):]
        self._escaped = self._escaped or any(
            len(canonical(key)) != len(key) + 2 for key in new)
        ids += new
        ids.sort()  # one merge of the sorted run with the new ids
        self._text = "[" + ",".join(map(canonical, ids)) + "]" if self._escaped \
            else '["' + '","'.join(ids) + '"]'
        return self._text

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


class EmbeddingIndex:
    """The live (non-tombstone) records' embeddings, in an
    `EmbeddingMatrix`, with parallel arrays of what scans filter and rank
    on: encoding and event times in integer microseconds, the event time
    as `timestamp()` gives it (`stamp`), importance, and interned codes of
    tier, session and state. The tier codes follow the tiers' ranking
    priority: hot 0, warm 1. Each record takes one row index: a column of
    the matrix and a slot of each array.

    A new record goes in the next free row, and removing one moves the last
    row into its place. The index holds no records, only their keys and the
    embedding arrays its matrix holds, so a record the store drops is freed
    at once. `top_candidates` picks a query's candidates with one float32
    product and the matrix's `bound`; `embeddings.exact_scores` rescores
    them as `np.dot` does, so results are those of a float64 scan."""

    _COLUMNS = (("encoded", np.int64), ("timestamp", np.int64), ("stamp", np.float64),
                ("importance", np.float64), ("tier", np.int32), ("session", np.int32),
                ("state", np.int32))
    _CODED = ("tier", "session", "state")

    def __init__(self) -> None:
        self.keys: list[str] = []  # row -> record key
        self.embeddings = EmbeddingMatrix()
        self._rows: dict[str, int] = {}
        self._codes: dict[str, dict[str, int]] = {c: {} for c in self._CODED}
        self._codes["tier"] = {TIER_HOT: 0, TIER_WARM: 1}
        self._resize(0)

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

    def _resize(self, capacity: int) -> None:
        n = len(self.keys)
        for name, dtype in self._COLUMNS:
            col = np.zeros(capacity, dtype=dtype)
            if n:
                col[:n] = getattr(self, "_" + name)[:n]
            setattr(self, "_" + name, col)

    def write(self, items: list[tuple[str, EpisodicRecord]]) -> None:
        """Write each (key, record) into its row, appending rows for new
        keys, a chunk of records at a time.

        A record whose embedding is the array its row already holds (a new
        state, tier or importance of the same record) keeps its matrix
        column. The others are set in their columns, and new keys take
        the next rows, in order."""
        if not items:
            return
        rows_of, keys, vectors = self._rows, self.keys, self.embeddings.vectors
        n = len(keys)
        rows = [rows_of.get(k, -1) for k, _r in items]
        recs = [r for _k, r in items]
        changed = [i for i, row in enumerate(rows)
                   if row >= 0 and recs[i].embedding is not vectors[row]]
        fresh = [i for i, row in enumerate(rows) if row < 0]
        self.embeddings.set([rows[i] for i in changed], [recs[i].embedding for i in changed])
        self.embeddings.append([recs[i].embedding for i in fresh])
        if len(vectors) > len(self._encoded):
            self._resize(self.embeddings.capacity)
        for row, i in enumerate(fresh, start=n):
            rows_of[items[i][0]] = rows[i] = row
            keys.append(items[i][0])
        step = 128
        for lo in range(0, len(recs), step):
            self._write_fields(rows[lo:lo + step], recs[lo:lo + step])

    def _write_fields(self, rows: list[int], recs: list[EpisodicRecord]) -> None:
        """Write the records' times, importance and codes into their rows,
        one pass over the records per column."""
        encoded = [_micros(r.encoded_at) for r in recs]
        self._encoded[rows] = encoded
        # a record encoded on its event's arrival holds one datetime for both
        times = [e if r.event.timestamp is r.encoded_at else _micros(r.event.timestamp)
                 for e, r in zip(encoded, recs)]
        self._timestamp[rows] = times
        # `timestamp()` is this quotient of Python ints, correctly rounded
        self._stamp[rows] = [t / 10 ** 6 for t in times]
        self._importance[rows] = [r.importance for r in recs]
        tiers, sessions, states = (self._codes[c] for c in self._CODED)
        self._tier[rows] = [tiers.setdefault(r.tier, len(tiers)) for r in recs]
        self._session[rows] = [sessions.setdefault(r.event.session_id, len(sessions))
                               for r in recs]
        self._state[rows] = [states.setdefault(r.state, len(states)) for r in recs]

    def _remove(self, keys: list[str]) -> None:
        """Drop the row of each of `keys`, in order, by moving the last row
        into its place. The keys move one by one; the matrix columns and
        arrays move once, each from the row it started in."""
        if not keys:
            return
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
        dst = np.fromiter(source, dtype=np.intp, count=len(source))
        src = np.fromiter(source.values(), dtype=np.intp, count=len(source))
        self.embeddings.move(dst, src, len(self.keys))
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
        return mask.nonzero()[0]

    def in_states(self, states: Iterable[str]) -> np.ndarray:
        """A mask over the rows: True where the record's state is in
        `states`."""
        codes = [self._codes["state"][s] for s in states if s in self._codes["state"]]
        return np.isin(self.column("state"), codes)

    def top_candidates(self, qvec: np.ndarray, groups: Sequence[np.ndarray],
                       k: int) -> list[np.ndarray]:
        """For each of `groups`, disjoint arrays of rows: the rows of the
        group whose float64 score `np.dot(qvec, e)` may be among the group's
        k highest, that is, every row whose score bound reaches the lowest
        score the group's k-th highest can have; a group of at most k rows
        is returned whole. Each row is held to the bound for the widest live
        row. The caller ranks the candidates: `embeddings.exact_scores`
        gives their float64 scores, and the `stamp` and `tier` columns
        break score ties.

        One float32 product, `embeddings.scores` over every group's rows,
        serves them all. The k-th score is read off a float32 sort: `np.partition`
        slows down on the long runs of equal scores that a sparse query
        gives, and a sort does not."""
        if not any(0 < k < len(group) for group in groups):
            return list(groups)
        rows = np.concatenate(groups)
        s32 = self.embeddings.scores(qvec, rows)
        s = s32.astype(np.float64)
        bound = self.embeddings.bound(qvec)
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
            for i, j in index.embeddings.rows_reaching(rows, among, threshold):
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
        any later encoding/promotion time set by lifecycle jobs. The record
        map keeps its newest encoding time, and the graph's newest memory
        time is the latest key of its query state's groups."""
        candidates = [t for t in (self.watermark, self.records.newest()) if t is not None]
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
        sequences are tuples, written whole. The admitted ids are
        `Spliced`: their set keeps their text."""
        admitted = self.admitted_ids
        return {
            "version": SNAPSHOT_VERSION,
            "config": self.config,
            "records": [self.records[k] for k in sorted(self.records)],
            "graph": self.graph.snapshot_state(),
            "quarantine": [self.quarantine[k] for k in sorted(self.quarantine)],
            "admitted_ids": Spliced(lambda: tuple(sorted(admitted)), admitted.text),
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
            admitted = d["admitted_ids"]
            if type(admitted) is not list or not all(type(k) is str for k in admitted):
                raise SnapshotFormatError("admitted_ids: not a list of strings")
            store.admitted_ids = AdmittedIds(admitted)
            if len(store.admitted_ids) != len(admitted):
                raise SnapshotFormatError("admitted_ids: an id listed twice")
            store.watermark = decode(Optional[datetime], d["watermark"])
            store.centroid_sum = decode(Optional[np.ndarray], d["centroid_sum"])
            store.labile_until = decode(dict[str, datetime], d["labile_until"])
            for name in ("centroid_count", "total_ingested", "batch_seq"):
                count = d[name]
                if type(count) is not int or count < 0:
                    raise SnapshotFormatError(f"{name}: {count!r} is not a count")
                setattr(store, name, count)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"malformed snapshot: {exc}") from exc
        # every embedding, and the centroid sum, has the embedder's length
        lengths = {len(r.embedding) for r in records.values()}
        lengths.update(len(m.embedding) for m in store.graph.memories.values())
        if store.centroid_sum is not None:
            lengths.add(len(store.centroid_sum))
        if getattr(store.embedder, "dimension", None) is not None:
            lengths.add(store.embedder.dimension)
        if len(lengths) > 1:
            raise SnapshotFormatError(f"embeddings of lengths {sorted(lengths)}")
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
