"""Batch consolidation pipeline.

Order of stages per batch: temporal validation -> scoring -> classification
-> exact dedup -> near dedup -> (aggressive only: cluster + merge) -> gist
-> promotion. Pruned records enter graceful degradation rather than being
hard-deleted. The whole batch is transactional: on any stage failure the
store is restored to its pre-batch state.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import forgetting
from .codec import encode
from .graph import KnowledgeGraph, SemanticMemory
from .model import (
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    TIER_WARM,
    EpisodicRecord,
    FidelityLevel,
    MemoryEvent,
    StoreConfig,
    hours_between,
)
from .scoring import SignalWeights, classify, score_record, similar_earlier_counts
from .store import MemoryStore

log = logging.getLogger("engram.consolidation")

MODE_DEDUP = "dedup"
MODE_AGGRESSIVE = "aggressive"
MODE_NONE = "none"
MODES = (MODE_DEDUP, MODE_AGGRESSIVE, MODE_NONE)

REASON_OUT_OF_ORDER = "out_of_order"
REASON_DUPLICATE = "duplicate"
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
    tolerance, ids already admitted, and events citing causes that have not
    been admitted yet. Returns (admitted, [(event, reason)], new_watermark);
    `admitted_ids` is updated in place.
    """
    admitted: list[MemoryEvent] = []
    anomalous: list[tuple[MemoryEvent, str]] = []
    skew_h = skew_tolerance_min / 60.0
    for event in events:
        if event.id in admitted_ids:
            anomalous.append((event, REASON_DUPLICATE))
            continue
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


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def survivor_order(rec: EpisodicRecord) -> tuple[bool, datetime, str]:
    """Dedup visiting order: records already in the store (no longer
    pending) before new ones, so a new copy never removes a stored record;
    then timestamp, then id."""
    return (rec.state == STATE_PENDING, rec.event.timestamp, rec.id)


def exact_dedup(batch: Sequence[EpisodicRecord]
                ) -> tuple[list[EpisodicRecord], list[EpisodicRecord]]:
    """Collapse identical-content records onto the first copy in
    `survivor_order`: records already in the store before any new one, then
    the earliest. The survivor absorbs the removed copies' ids and access
    counts."""
    ordered = sorted(batch, key=survivor_order)
    by_hash: dict[str, EpisodicRecord] = {}
    removed: list[EpisodicRecord] = []
    for rec in ordered:
        h = content_hash(rec.content)
        survivor = by_hash.get(h)
        if survivor is None:
            by_hash[h] = rec
        else:
            merged_sources = tuple(dict.fromkeys(survivor.source_ids + rec.source_ids))
            by_hash[h] = replace(survivor,
                                 access_count=survivor.access_count + 1,
                                 source_ids=merged_sources)
            removed.append(rec)
    id_order = {r.id: i for i, r in enumerate(ordered)}
    survivors = sorted(by_hash.values(), key=lambda r: id_order[r.id])
    return survivors, removed


def near_dedup(batch: Sequence[EpisodicRecord], threshold: float
               ) -> tuple[list[EpisodicRecord], list[EpisodicRecord]]:
    """Greedy near-duplicate removal in `survivor_order`: a record is
    dropped when its cosine similarity to any earlier survivor reaches the
    threshold; the survivor merges source ids and keeps max importance."""
    ordered = sorted(batch, key=survivor_order)
    survivors: list[EpisodicRecord] = []
    removed: list[EpisodicRecord] = []
    # survivors' embeddings in rows, in order: the product below is the
    # one `np.stack` of the same rows would give
    matrix = np.empty((len(ordered), len(ordered[0].embedding) if ordered else 0))
    for rec in ordered:
        hit = None
        if survivors:
            sims = matrix[:len(survivors)] @ rec.embedding
            idx = int(np.argmax(sims))
            if float(sims[idx]) >= threshold:
                hit = idx
        if hit is None:
            matrix[len(survivors)] = rec.embedding
            survivors.append(rec)
        else:
            survivor = survivors[hit]
            merged_sources = tuple(dict.fromkeys(survivor.source_ids + rec.source_ids))
            survivors[hit] = replace(
                survivor,
                source_ids=merged_sources,
                importance=max(survivor.importance, rec.importance),
            )
            removed.append(rec)
    return survivors, removed


def _pair_distances(emb: np.ndarray) -> np.ndarray:
    """Cosine distances `1 - e_i . e_j` of the rows of `emb` in the upper
    triangle (i < j) of an n x n matrix, +inf elsewhere.

    Each (1, d) @ (d, 1) product in a row goes to the same ddot that
    `np.dot` of two 1-D arrays calls, so every entry equals
    `1.0 - float(np.dot(emb[i], emb[j]))` bit for bit; `emb @ emb.T` and
    a matrix-vector product per row sum in other orders.
    """
    n = len(emb)
    out = np.full((n, n), np.inf)
    for i in range(n - 1):
        out[i, i + 1:] = 1.0 - (emb[i + 1:, None, :] @ emb[i][:, None])[:, 0, 0]
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
              config: StoreConfig,
              summarizer: Optional[Callable[[Sequence[EpisodicRecord]], str]] = None
              ) -> GistDraft:
    """Build a semantic gist draft from a cluster: by default, the top-m
    highest-importance members' contents concatenated and truncated to the
    gist token cap. A failing external summarizer falls back to the
    default."""
    if not cluster_records:
        raise ValueError("cluster must be non-empty")
    text: Optional[str] = None
    if summarizer is not None:
        try:
            text = summarizer(cluster_records)
        except Exception:
            log.warning("summarizer failed; falling back to default gist")
            text = None
    if text is None:
        top = sorted(cluster_records,
                     key=lambda r: (-r.importance, r.encoded_at, r.id))
        top = top[:config.gist_top_m]
        text = "\n".join(r.content for r in top)
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
                      mode: str = MODE_DEDUP,
                      weights: Optional[SignalWeights] = None,
                      summarizer=None) -> ConsolidationReport:
    if mode not in MODES:
        raise ValueError(f"unknown consolidation mode {mode!r}")
    config = store.config
    warm_ttl = now + timedelta(hours=config.warm_ttl_hours)
    with store.lock:
        chk = store._checkpoint()
        try:
            report = ConsolidationReport(batch_id=store.next_batch_id())
            report.store_size_before = store.active_count()
            report.tokens_before = store.active_tokens()

            # 1. quarantine re-validation, then temporal validation in
            # arrival order
            readmitted = _revalidate_quarantine(store, now, report)
            for event in readmitted:
                store.readmit(event)
            pending = [r for r in store.records.values()
                       if r.state == STATE_PENDING]
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

            if mode == MODE_NONE:
                # keep-everything baseline: admit and retain, nothing else
                for rec in batch:
                    store.replace(replace(rec, state=STATE_RETAINED,
                                          tier=TIER_WARM,
                                          ttl_expires_at=warm_ttl))
                report.retained = len(batch)
                report.store_size_after = store.active_count()
                report.tokens_after = store.active_tokens()
                return report

            # 2. scoring (running-centroid surprise prior, single writer)
            counts = similar_earlier_counts(store, batch, config.near_dedup_threshold)
            for rec, similar in zip(batch, counts):
                composite, breakdown = score_record(
                    rec, now, similar, store.centroid(), store.graph, config,
                    weights)
                rec = replace(rec, importance=composite, score_breakdown=breakdown)
                store.replace(rec)
                store.add_to_centroid(rec.embedding)
            batch = [store.records[r.id] for r in batch]

            # 3. classification (before dedup, per pipeline order)
            bucket: dict[str, str] = {}
            if batch:
                cls = classify(batch, config.promote_fraction, config.prune_fraction)
                for r in cls.promote:
                    bucket[r.id] = "promote"
                for r in cls.retain:
                    bucket[r.id] = "retain"
                for r in cls.prune:
                    bucket[r.id] = "prune"

            # 4. dedup against existing active store content plus the batch
            batch_ids = {r.id for r in batch}
            existing = [r for r in store.records.values()
                        if r.state in (STATE_RETAINED, STATE_PROMOTED)
                        and r.id not in batch_ids]
            combined = existing + batch
            survivors, exact_removed = exact_dedup(combined)
            survivors, near_removed = near_dedup(survivors, config.near_dedup_threshold)
            exact_removed_ids = {r.id for r in exact_removed}
            for rec in exact_removed + near_removed:
                if rec.id in batch_ids:
                    if rec.id in exact_removed_ids:
                        report.exact_dups_removed += 1
                    else:
                        report.near_dups_removed += 1
                else:
                    report.removed_existing += 1
                store.records.pop(rec.id, None)
            for rec in survivors:
                store.replace(rec)
            batch_survivors = [store.records[r.id] for r in survivors
                               if r.id in batch_ids]

            # 5. aggressive mode: cluster surviving batch and merge
            merged_member_ids: set[str] = set()
            gist_drafts: list[GistDraft] = []
            if mode == MODE_AGGRESSIVE and batch_survivors:
                groups = cluster(batch_survivors, config.cluster_distance)
                report.clusters_formed = sum(1 for g in groups if len(g) > 1)
                for group in groups:
                    if len(group) > 1:
                        gist_drafts.append(make_gist(group, config, summarizer))
                        merged_member_ids.update(r.id for r in group)

            # 6. apply classification / gists / promotion
            for rec in batch_survivors:
                if rec.id in merged_member_ids:
                    continue
                b = bucket.get(rec.id, "retain")
                if b == "promote":
                    gist_drafts.append(make_gist([rec], config, summarizer))
                    store.replace(replace(rec, state=STATE_PROMOTED,
                                          tier=TIER_WARM, ttl_expires_at=warm_ttl))
                    report.promoted += 1
                elif b == "prune":
                    pruned = replace(rec, state=STATE_RETAINED, tier=TIER_WARM,
                                     ttl_expires_at=warm_ttl)
                    store.replace(forgetting.degrade(pruned, now))
                    report.pruned += 1
                else:
                    store.replace(replace(rec, state=STATE_RETAINED,
                                          tier=TIER_WARM, ttl_expires_at=warm_ttl))
                    report.retained += 1
            # merged cluster members fold into their gist: counted promoted,
            # episodic copies become tombstones
            for rec_id in sorted(merged_member_ids):
                rec = store.records[rec_id]
                store.replace(replace(rec.with_content(""), state=STATE_TOMBSTONE,
                                      fidelity=FidelityLevel.L5))
                report.promoted += 1

            for draft in gist_drafts:
                promote(draft, store.graph, store.embedder, now)

            report.store_size_after = store.active_count()
            report.tokens_after = store.active_tokens()
            return report
        except Exception:
            store._restore(chk)
            raise
