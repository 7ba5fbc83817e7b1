"""Importance scoring: five-factor composite, decay, and
promote/retain/prune classification.

Each factor has one implementation. The recency factor is the decay curve
of `model.decayed_importance` at importance 1. `score_record` takes the
frequency factor from the pairwise `frequency_factor`, over the earlier
records that consolidation draws from `MemoryStore.near`: the candidates
that may reach the threshold, which `frequency_factor` then decides with
`np.dot`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyBatch
from .model import EpisodicRecord, MemoryEvent, StoreConfig, decayed_importance

FIVE_FACTOR_DEFAULTS = {
    "recency": 0.25,
    "frequency": 0.25,
    "surprise": 0.20,
    "entity_salience": 0.15,
    "outcome": 0.15,
}


def recency_factor(encoded_at: datetime, now: datetime, lam: float) -> float:
    return decayed_importance(1.0, encoded_at, now, lam)


def frequency_factor(record: EpisodicRecord, earlier: Sequence[EpisodicRecord],
                     threshold: float) -> float:
    """1 / (1 + n) where n counts earlier records similar above threshold."""
    n = 0
    for other in earlier:
        if other.id == record.id:
            continue
        if float(np.dot(other.embedding, record.embedding)) >= threshold:
            n += 1
    return 1.0 / (1.0 + n)


def surprise_factor(embedding: np.ndarray,
                    prior_centroid: Optional[np.ndarray]) -> float:
    """Novelty relative to the running centroid of previously scored
    embeddings; maximally novel when there is no prior."""
    if prior_centroid is None:
        return 1.0
    cos = float(np.dot(embedding, prior_centroid))
    return min(max(1.0 - cos, 0.0), 1.0)


def entity_salience_factor(entities: Sequence[str], graph) -> float:
    if not entities:
        return 0.0
    return max((graph.entity_importance(name) for name in entities), default=0.0)


def outcome_factor(event: MemoryEvent) -> float:
    outcome = event.metadata.get("outcome")
    if outcome == "success":
        return 1.0
    if outcome == "failure":
        # failures stay above signal-free events: errors are learning signals
        return 0.25
    return 0.0


def composite_importance(factors: dict[str, float]
                         ) -> tuple[float, dict[str, float]]:
    """Sum of `FIVE_FACTOR_DEFAULTS` weights times factors, in that order.
    Returns (composite, breakdown) where the breakdown carries every factor
    plus the composite itself."""
    composite = sum(w * factors[k] for k, w in FIVE_FACTOR_DEFAULTS.items())
    breakdown = {k: factors[k] for k in FIVE_FACTOR_DEFAULTS}
    breakdown["composite"] = composite
    return composite, breakdown


def score_record(record: EpisodicRecord, now: datetime,
                 earlier: Sequence[EpisodicRecord],
                 prior_centroid: Optional[np.ndarray],
                 graph, config: StoreConfig) -> tuple[float, dict[str, float]]:
    """Five-factor score for one pending record against the current store;
    the frequency factor counts the records in `earlier`."""
    factors = {
        "recency": recency_factor(record.encoded_at, now, config.lambda_decay),
        "frequency": frequency_factor(record, earlier, config.near_dedup_threshold),
        "surprise": surprise_factor(record.embedding, prior_centroid),
        "entity_salience": entity_salience_factor(record.entities, graph),
        "outcome": outcome_factor(record.event),
    }
    composite, breakdown = composite_importance(factors)
    composite = apply_authority_downweight(composite, record.event,
                                           factors["surprise"], config)
    breakdown["composite"] = composite
    return composite, breakdown


def apply_authority_downweight(composite: float, event: MemoryEvent,
                               surprise: float, config: StoreConfig) -> float:
    """Downweight automated low-authority events, but keep high-surprise
    alerts intact."""
    if event.actor != "automation" or surprise > 0.8:
        return composite
    try:
        authority = float(event.metadata.get("authority", "0"))
    except ValueError:
        authority = 0.0
    if authority < 0.5:
        return composite * config.authority_downweight
    return composite


@dataclass
class Classification:
    promote: list[EpisodicRecord]
    retain: list[EpisodicRecord]
    prune: list[EpisodicRecord]


def classify(records: Sequence[EpisodicRecord],
             promote_fraction: float = 0.20,
             prune_fraction: float = 0.20) -> Classification:
    """Partition scored records: top ceil(p*n) promote, bottom floor(q*n)
    prune, rest retain. Ties break deterministically: higher composite first,
    then older encoded_at, then id."""
    if not records:
        raise EmptyBatch("cannot classify an empty batch")
    ranked = sorted(records,
                    key=lambda r: (-r.importance, r.encoded_at, r.id))
    n = len(ranked)
    n_promote = math.ceil(promote_fraction * n)
    n_prune = math.floor(prune_fraction * n)
    return Classification(
        promote=ranked[:n_promote],
        retain=ranked[n_promote:n - n_prune],
        prune=ranked[n - n_prune:],
    )
