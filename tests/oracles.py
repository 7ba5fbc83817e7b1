"""Whole-store oracles for the sleep's indexed passes.

Each oracle is the plain loop the engine once ran: dedup over the whole
store, and forget priorities from `forgetting.interference` (criterion 3)
over every live record. Oracle and engine share each formula (`absorb`,
`interference`); they differ only in candidate selection, which the engine
takes from `MemoryStore.near`. The oracles are slow on purpose, and they
live here, not in `src/`."""

from __future__ import annotations

from engram.consolidation import exact_dedup, near_dedup
from engram.forgetting import EPSILON, interference
from engram.model import (
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    decayed_importance,
)


def whole_store_dedup(store, batch, threshold):
    """Step 4 of `run_consolidation` as it was: `exact_dedup`, then
    `near_dedup`, over every stored retained or promoted record plus the
    batch. Returns (survivors, exact copies removed, near duplicates
    removed); stored records can be among the removed. Where no two stored
    records collide, `dedup_batch` gives the same result."""
    batch_ids = {r.id for r in batch}
    existing = [r for r in store.records.values()
                if r.state in (STATE_RETAINED, STATE_PROMOTED)
                and r.id not in batch_ids]
    survivors, exact_removed = exact_dedup(existing + list(batch))
    survivors, near_removed = near_dedup(survivors, threshold)
    return survivors, exact_removed, near_removed


def forget_priority(store, rec, now):
    """Criterion 3's interference of `rec` over the live records, divided by
    its decayed importance: the priority `rank_forget_candidates` ranks by."""
    config = store.config
    assessed = interference(rec, store.active_records(), config.interference_threshold,
                            config.retro_weight, config.pro_weight)
    decayed = decayed_importance(rec.importance, rec.encoded_at, now, config.lambda_decay)
    return assessed.interference / (decayed + EPSILON), decayed


def forget_ranking(store, now):
    """Every live, unpromoted, non-labile record by (priority desc, decayed
    importance asc, id), as (priority, decayed, id)."""
    ranked = []
    for rec in store.records.values():
        if rec.state in (STATE_TOMBSTONE, STATE_PROMOTED) or store.is_labile(rec.id, now):
            continue
        ranked.append((*forget_priority(store, rec, now), rec.id))
    ranked.sort(key=lambda t: (-t[0], t[1], t[2]))
    return ranked
