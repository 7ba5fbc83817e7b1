"""Batch consolidation pipeline.

Order of stages per batch: temporal validation -> scoring -> classification
-> exact dedup -> near dedup -> (aggressive only: cluster + merge) -> gist
-> promotion. Pruned records enter graceful degradation rather than being
hard-deleted. The whole batch runs in one `MemoryStore.transaction()`: on
any stage failure the store is restored to its pre-batch state. A batch
takes the pending records encoded at or before its `now`; a record encoded
later stays pending, uncounted, until a sleep whose `now` reaches it.

A batch is read from the store's pending ids, not from a walk over every
record. Dedup runs `exact_dedup`, then `near_dedup`, over a pool: the batch,
the stored retained and promoted records that step 2's `MemoryStore.near`
found near it, and the stored holders of a batch content, which
`MemoryStore.holders` looks up per content rather than by a walk. A
pending record is removed when it duplicates a stored record or an earlier
batch survivor. A record that is not pending always survives, even when
reconsolidation or degradation has made two stored records equal;
`removed_existing` counts the pool's stored records that are gone after
dedup, and reads 0. Only the changed survivors are written.

Each rule has one implementation. `absorb` is the merge of a duplicate into
its survivor, for `exact_dedup` and `near_dedup` alike. Scoring's frequency
factor takes its candidates from `MemoryStore.near`, and `near_dedup` its
pairs from an `EmbeddingMatrix` of the pool's embeddings; both decide each
pair with `np.dot`, as the pairwise definitions do.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Optional, Sequence

import numpy as np

from . import forgetting
from .codec import encode
from .embedding import EmbeddingMatrix, row_dots
from .graph import KnowledgeGraph, SemanticMemory
from .model import (
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    TIER_WARM,
    EpisodicRecord,
    MemoryEvent,
    StoreConfig,
    evolve,
    hours_between,
)
from .scoring import classify, score_record
from .store import MemoryStore

log = logging.getLogger("engram.consolidation")

MODE_DEDUP = "dedup"
MODE_AGGRESSIVE = "aggressive"
MODE_NONE = "none"
MODES = (MODE_DEDUP, MODE_AGGRESSIVE, MODE_NONE)

REASON_OUT_OF_ORDER = "out_of_order"
REASON_CAUSAL_INVERSION = "causal_inversion"


@dataclass
class ConsolidationReport:
    batch_id: str
    input_count: int = 0
    quarantined: int = 0
    exact_dups_removed: int = 0
    near_dups_removed: int = 0
    clusters_formed: int = 0
    promoted: int = 0
    pruned: int = 0
    retained: int = 0
    removed_existing: int = 0
    store_size_before: int = 0
    store_size_after: int = 0
    tokens_before: int = 0
    tokens_after: int = 0
    quarantine_dropped: list[str] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return self.exact_dups_removed + self.near_dups_removed

    def accounting_holds(self) -> bool:
        return self.input_count == (self.quarantined + self.removed +
                                    self.promoted + self.pruned + self.retained)

    def to_dict(self) -> dict[str, Any]:
        return {**encode(self), "removed": self.removed}


def validate_temporal(events: Sequence[MemoryEvent],
                      watermark: Optional[datetime],
                      admitted_ids: set[str],
                      skew_tolerance_min: float = 5.0
                      ) -> tuple[list[MemoryEvent], list[tuple[MemoryEvent, str]],
                                 Optional[datetime]]:
    """Classify events (in arrival order) as admitted or anomalous.

    Anomalies are data, not errors: out-of-order arrivals beyond the skew
    tolerance, and events citing causes that have not been admitted yet.
    Returns (admitted, [(event, reason)], new_watermark); `admitted_ids` is
    updated in place. An admitted id never comes back: the store refuses to
    ingest or re-admit it (`DuplicateId`).
    """
    admitted: list[MemoryEvent] = []
    anomalous: list[tuple[MemoryEvent, str]] = []
    skew_h = skew_tolerance_min / 60.0
    for event in events:
        if watermark is not None and hours_between(event.timestamp, watermark) > skew_h:
            anomalous.append((event, REASON_OUT_OF_ORDER))
            continue
        if any(c not in admitted_ids for c in event.causes):
            anomalous.append((event, REASON_CAUSAL_INVERSION))
            continue
        admitted_ids.add(event.id)
        admitted.append(event)
        if watermark is None or event.timestamp > watermark:
            watermark = event.timestamp
    return admitted, anomalous, watermark


def survivor_order(rec: EpisodicRecord) -> tuple[bool, datetime, str]:
    """Dedup visiting order: records already in the store (no longer
    pending) before new ones, so a new copy never removes a stored record;
    then timestamp, then id."""
    return (rec.state == STATE_PENDING, rec.event.timestamp, rec.id)


def absorb(survivor: EpisodicRecord, dup: EpisodicRecord,
           exact: bool) -> EpisodicRecord:
    """`survivor` after absorbing its duplicate `dup`: it gains `dup`'s source
    ids; an exact copy adds one access, a near copy keeps the max
    importance."""
    source_ids = tuple(dict.fromkeys(survivor.source_ids + dup.source_ids))
    if exact:
        return evolve(survivor, source_ids=source_ids,
                      access_count=survivor.access_count + 1)
    return evolve(survivor, source_ids=source_ids,
                  importance=max(survivor.importance, dup.importance))


def exact_dedup(batch: Sequence[EpisodicRecord]
                ) -> tuple[list[EpisodicRecord], list[EpisodicRecord]]:
    """Collapse identical-content records onto the first copy in
    `survivor_order`: records already in the store before any new one, then
    the earliest. The survivor absorbs the removed copies' ids and access
    counts. A record that is not pending always survives, so a stored record
    is never removed. Returns (survivors, removed), each in
    `survivor_order`."""
    survivors: list[EpisodicRecord] = []
    removed: list[EpisodicRecord] = []
    holder: dict[str, int] = {}  # content -> its first survivor's position
    for rec in sorted(batch, key=survivor_order):
        at = holder.get(rec.content)
        if at is None or rec.state != STATE_PENDING:
            holder.setdefault(rec.content, len(survivors))
            survivors.append(rec)
        else:
            survivors[at] = absorb(survivors[at], rec, exact=True)
            removed.append(rec)
    return survivors, removed


def near_dedup(batch: Sequence[EpisodicRecord], threshold: float
               ) -> tuple[list[EpisodicRecord], list[EpisodicRecord]]:
    """Greedy near-duplicate removal in `survivor_order`: a pending record
    is absorbed by the earlier survivor with the highest float64 `np.dot`
    similarity, when that reaches the threshold (ties: the first in
    `survivor_order`); the survivor merges source ids and keeps max
    importance. A record that is not pending always survives.

    The pairs to score come from `EmbeddingMatrix.rows_reaching` over the
    embeddings of `batch` in `survivor_order`, one column each, which
    holds every pair whose similarity may reach the threshold. Returns
    (survivors, removed), each in `survivor_order`."""
    ordered = sorted(batch, key=survivor_order)
    embeddings = EmbeddingMatrix()
    embeddings.append([r.embedding for r in ordered])
    pairs: list[list[int]] = [[] for _ in ordered]
    for p, q in embeddings.rows_reaching(range(len(ordered)), np.ones(len(ordered), dtype=bool),
                                         threshold):
        pairs[p].append(q)
    survivors: list[EpisodicRecord] = []
    removed: list[EpisodicRecord] = []
    at: dict[int, int] = {}  # position in `ordered` -> in `survivors`
    for p, rec in enumerate(ordered):
        best = None
        if rec.state == STATE_PENDING:
            # the earlier survivors, by similarity, then first in order
            best = max(((float(np.dot(survivors[at[q]].embedding, rec.embedding)), -q)
                        for q in pairs[p] if q in at), default=None)
        if best is not None and best[0] >= threshold:
            hit = at[-best[1]]
            survivors[hit] = absorb(survivors[hit], rec, exact=False)
            removed.append(rec)
        else:
            at[p] = len(survivors)
            survivors.append(rec)
    return survivors, removed


def _pair_distances(emb: np.ndarray) -> np.ndarray:
    """Cosine distances `1 - e_i . e_j` of the rows of `emb` in the upper
    triangle (i < j) of an n x n matrix, +inf elsewhere.

    Each row is one `row_dots` product, so every entry equals
    `1.0 - float(np.dot(emb[i], emb[j]))` bit for bit; `emb @ emb.T` and
    a matrix-vector product per row sum in other orders.
    """
    n = len(emb)
    out = np.full((n, n), np.inf)
    for i in range(n - 1):
        out[i, i + 1:] = 1.0 - row_dots(emb[i + 1:], emb[i])
    return out


def cluster(batch: Sequence[EpisodicRecord], distance: float
            ) -> list[list[EpisodicRecord]]:
    """Average-linkage agglomerative clustering on cosine distance.

    Merging stops when the minimum inter-cluster distance exceeds the
    configured cutoff. Ties pick the pair whose smallest member ids compare
    lowest, so the result is order-independent and deterministic.

    The average of two clusters is the correctly rounded sum S of their
    member-pair distances, divided by the number of pairs. S is kept exact
    through the Lance-Williams update S(A u B, C) = S(A, C) + S(B, C)
    (Muellner 2011, arXiv:1109.2378): for finite x, the distance
    `1.0 - x` is an integer multiple of 2^-53 (for x in [0.5, 2]
    Sterbenz's lemma makes it exact; otherwise its magnitude is at least
    0.5), so S is a Python int in units of 2^-53, and the int true
    division `S / 2**53` is correctly rounded: the value `math.fsum` of
    the member-pair distances gives, whatever the merge order.
    """
    records = sorted(batch, key=lambda r: r.id)
    n = len(records)
    if n == 0:
        return []
    # avg[i, j], i < j both cluster keys (a cluster's smallest member
    # index): the clusters' average distance; +inf elsewhere, so the
    # row-major argmin is the smallest-id pair among ties
    avg = _pair_distances(np.array([r.embedding for r in records], dtype=np.float64))
    size = np.ones(n, dtype=np.int64)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    # exact sums S(x, c) in units of 2^-53, kept for each merged cluster x
    # only: between two singletons the sum is the distance still in `avg`
    sums: dict[int, dict[int, int]] = {}
    scale = 2 ** 53

    def exact_sums(x: int, others: np.ndarray) -> list[int]:
        row = sums.pop(x, None)
        if row is None:
            raw = np.where(others < x, avg[others, x], avg[x, others]) * float(scale)
            row = dict(zip(others.tolist(), map(int, raw.tolist())))
            for c, merged in sums.items():
                row[c] = merged[x]
        return [row[c] for c in others.tolist()]

    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(avg)), n)
        if avg[i, j] > distance:
            break
        others = np.flatnonzero(size)
        others = others[(others != i) & (others != j)]
        new = [a + b for a, b in zip(exact_sums(i, others), exact_sums(j, others))]
        row = dict(zip(others.tolist(), new))
        for c, merged in sums.items():
            merged[i] = row[c]
        sums[i] = row
        members[i] += members.pop(j)
        size[i] += size[j]
        size[j] = 0
        avg[j, :] = np.inf
        avg[:, j] = np.inf
        means = np.array([s / scale for s in new]) / (size[i] * size[others])
        before = others < i
        avg[others[before], i] = means[before]
        avg[i, others[~before]] = means[~before]
    return [[records[k] for k in sorted(members[key])] for key in sorted(members)]


@dataclass
class GistDraft:
    gist: str
    source_ids: frozenset[str]
    entities: tuple[str, ...]


def make_gist(cluster_records: Sequence[EpisodicRecord],
              config: StoreConfig) -> GistDraft:
    """Build a semantic gist draft from a cluster: the top-m
    highest-importance members' contents concatenated and truncated to the
    gist token cap."""
    if not cluster_records:
        raise ValueError("cluster must be non-empty")
    top = sorted(cluster_records,
                 key=lambda r: (-r.importance, r.encoded_at, r.id))
    text = "\n".join(r.content for r in top[:config.gist_top_m])
    text = text[:config.gist_max_tokens * 4]
    source_ids: set[str] = set()
    entities: dict[str, None] = {}
    for rec in cluster_records:
        source_ids.update(rec.source_ids)
        for name in rec.entities:
            entities.setdefault(name, None)
    return GistDraft(gist=text, source_ids=frozenset(source_ids),
                     entities=tuple(entities))


def promote(draft: GistDraft, graph: KnowledgeGraph, embedder,
            now: datetime) -> SemanticMemory:
    """Insert the gist as a silent semantic memory (maturation clock starts
    now). Idempotent on the source-id set."""
    embedding = embedder.embed(draft.gist)
    return graph.insert_memory(draft.gist, embedding, draft.source_ids,
                               draft.entities, now)


def _revalidate_quarantine(store: MemoryStore, now: datetime,
                           report: ConsolidationReport) -> list[MemoryEvent]:
    """One re-validation attempt for expired quarantine entries: causal
    inversions whose causes have since been admitted are re-admitted;
    everything else is dropped with a tombstone log line."""
    readmitted: list[MemoryEvent] = []
    for qid in sorted(store.quarantine):
        entry = store.quarantine[qid]
        if entry.expires_at > now:
            continue
        del store.quarantine[qid]
        resolved = (entry.reason == REASON_CAUSAL_INVERSION and
                    all(c in store.admitted_ids for c in entry.event.causes))
        if resolved:
            readmitted.append(entry.event)
        else:
            log.info("quarantine drop (tombstone): %s reason=%s", qid, entry.reason)
            report.quarantine_dropped.append(qid)
    return readmitted


def run_consolidation(store: MemoryStore, now: datetime,
                      mode: str = MODE_DEDUP) -> ConsolidationReport:
    if mode not in MODES:
        raise ValueError(f"unknown consolidation mode {mode!r}")
    config = store.config
    warm_ttl = now + timedelta(hours=config.warm_ttl_hours)
    with store.transaction():
        report = ConsolidationReport(batch_id=store.next_batch_id())
        report.store_size_before = store.active_count()
        report.tokens_before = store.active_tokens()

        # 1. quarantine re-validation, then temporal validation in
        # arrival order
        readmitted = _revalidate_quarantine(store, now, report)
        for event in readmitted:
            store.readmit(event)
        # a record encoded after `now` is not yet in this batch: it stays
        # pending for a later sleep
        pending = [r for r in store.pending_records() if r.encoded_at <= now]
        fresh_events = [r.event for r in pending
                        if r.id not in store.admitted_ids]
        report.input_count = len(fresh_events) + len(readmitted)
        admitted_events, anomalous, store.watermark = validate_temporal(
            fresh_events, store.watermark, store.admitted_ids,
            config.skew_tolerance_min)
        for event, reason in anomalous:
            store.quarantine_event(event, reason, now)
        report.quarantined = len(anomalous)

        batch = [store.records[e.id] for e in admitted_events]
        batch.extend(store.records[e.id] for e in readmitted)
        batch.sort(key=lambda r: (r.event.timestamp, r.id))

        # the keep-everything baseline skips steps 2 to 5: its whole batch
        # goes to step 6, unclassified, and is retained
        batch_survivors = batch
        promote_ids: set[str] = set()
        prune_ids: set[str] = set()
        merged_member_ids: set[str] = set()
        gist_drafts: list[GistDraft] = []
        if mode != MODE_NONE:
            # 2. scoring (running-centroid surprise prior, single writer);
            # the frequency factor counts the stored retained and promoted
            # records and the batch records before each record; step 4
            # dedups against the same candidates
            near = store.near(batch, config.near_dedup_threshold,
                              (STATE_RETAINED, STATE_PROMOTED))
            for rec, candidates in zip(batch, near):
                earlier = [o for o in candidates
                           if (o.encoded_at, o.id) < (rec.encoded_at, rec.id)]
                composite, breakdown = score_record(
                    rec, now, earlier, store.centroid(), store.graph, config)
                rec = evolve(rec, importance=composite, score_breakdown=breakdown)
                store.replace(rec)
                store.add_to_centroid(rec.embedding)
            batch = [store.records[r.id] for r in batch]

            # 3. classification (before dedup, per pipeline order); the
            # rest of the batch is retained
            if batch:
                cls = classify(batch, config.promote_fraction, config.prune_fraction)
                promote_ids = {r.id for r in cls.promote}
                prune_ids = {r.id for r in cls.prune}

            # 4. dedup: the batch, with the stored retained and promoted
            # records step 2 found near it and the stored holders of a
            # batch content (a degraded record keeps its old embedding, so
            # it may be no near candidate); a stored record is never
            # removed, and `removed_existing` counts any that is gone after
            batch_ids = {r.id for r in batch}
            stored = {o.id for candidates in near for o in candidates
                      if o.id not in batch_ids}
            stored |= store.holders({r.content for r in batch})
            survivors, exact_removed = exact_dedup(
                batch + [store.records[k] for k in stored])
            survivors, near_removed = near_dedup(survivors, config.near_dedup_threshold)
            report.exact_dups_removed = len(exact_removed)
            report.near_dups_removed = len(near_removed)
            for rec in exact_removed + near_removed:
                store.records.pop(rec.id)
            for rec in survivors:
                if rec is not store.records[rec.id]:
                    store.replace(rec)
            report.removed_existing = sum(k not in store.records for k in stored)
            batch_survivors = [r for r in survivors if r.state == STATE_PENDING]

            # 5. aggressive mode: cluster surviving batch and merge
            if mode == MODE_AGGRESSIVE and batch_survivors:
                groups = cluster(batch_survivors, config.cluster_distance)
                report.clusters_formed = sum(1 for g in groups if len(g) > 1)
                for group in groups:
                    if len(group) > 1:
                        gist_drafts.append(make_gist(group, config))
                        merged_member_ids.update(r.id for r in group)

        # 6. apply classification / gists / promotion
        for rec in batch_survivors:
            if rec.id in merged_member_ids:
                continue
            promoted = rec.id in promote_ids
            moved = evolve(rec, state=STATE_PROMOTED if promoted else STATE_RETAINED,
                           tier=TIER_WARM, ttl_expires_at=warm_ttl)
            if promoted:
                gist_drafts.append(make_gist([rec], config))
                report.promoted += 1
            elif rec.id in prune_ids:
                moved = forgetting.degrade(moved)  # warm, then one step down
                report.pruned += 1
            else:
                report.retained += 1
            store.replace(moved)
        # merged cluster members fold into their gist: counted promoted,
        # episodic copies become tombstones
        for rec_id in sorted(merged_member_ids):
            store.replace(forgetting.tombstone(store.records[rec_id]))
            report.promoted += 1

        for draft in gist_drafts:
            promote(draft, store.graph, store.embedder, now)

        report.store_size_after = store.active_count()
        report.tokens_after = store.active_tokens()
        return report
