"""Core data types: events, episodic records, fidelity ladder, store config.

All timestamps are timezone-aware UTC datetimes. Records are immutable
values: the dataclasses are frozen, embeddings are read-only arrays and
mapping fields are `ReadOnlyDict`s, so a lifecycle stage changes a record
only by building a new one with `evolve` and replacing it by id in the
store.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import IntEnum
from typing import Callable, Optional, TypeVar

import numpy as np

from .errors import NegativeElapsed

ACTORS = ("user", "agent", "system", "automation")


def hours_between(earlier: datetime, later: datetime) -> float:
    return (later - earlier).total_seconds() / 3600.0


def estimate_tokens(content: str) -> int:
    """Rough token count: ceil(chars / 4). Empty text counts as zero."""
    return -(-len(content) // 4)


class FidelityLevel(IntEnum):
    L0 = 0
    L1 = 1
    L2 = 2
    L3 = 3
    L4 = 4
    L5 = 5

    @property
    def retained_fraction(self) -> float:
        return _RETAINED_FRACTION[self]

    def next_level(self) -> "FidelityLevel":
        return FidelityLevel(min(self.value + 1, FidelityLevel.L5.value))


_RETAINED_FRACTION = {
    FidelityLevel.L0: 1.00,
    FidelityLevel.L1: 0.75,
    FidelityLevel.L2: 0.50,
    FidelityLevel.L3: 0.25,
    FidelityLevel.L4: 0.10,
    FidelityLevel.L5: 0.00,
}

# Record lifecycle is a one-way lattice:
# pending -> {retained, promoted} -> tombstone.
# A quarantined event is not a record state: the event leaves `records` for
# the store's quarantine and re-enters as a new pending record if
# re-admitted. `MemoryStore.replace` enforces the lattice.
STATE_PENDING = "pending"
STATE_RETAINED = "retained"
STATE_PROMOTED = "promoted"
STATE_TOMBSTONE = "tombstone"

# state -> the states a record in it may move to (staying put included)
LEGAL_MOVES = {
    STATE_PENDING: frozenset({STATE_PENDING, STATE_RETAINED, STATE_PROMOTED,
                              STATE_TOMBSTONE}),
    STATE_RETAINED: frozenset({STATE_RETAINED, STATE_TOMBSTONE}),
    STATE_PROMOTED: frozenset({STATE_PROMOTED, STATE_TOMBSTONE}),
    STATE_TOMBSTONE: frozenset({STATE_TOMBSTONE}),
}

TIER_HOT = "hot"
TIER_WARM = "warm"


class ReadOnlyDict(dict):
    """A dict that refuses every write, for the mapping fields of frozen
    values. It stays a plain dict to readers and to the codec; `copy` and
    `pickle` rebuild it from one."""

    __slots__ = ()

    def _refuse(self, *_args, **_kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


_EMPTY = ReadOnlyDict()


@functools.lru_cache(maxsize=None)
def _declared(cls: type) -> tuple[tuple[str, ...], frozenset[str], Optional[Callable]]:
    """A dataclass's field names, as a tuple and a set, and its
    `__post_init__` (None when it has none)."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    return names, frozenset(names), getattr(cls, "__post_init__", None)


_Value = TypeVar("_Value")


def evolve(obj: _Value, **changes) -> _Value:
    """A copy of the frozen value `obj` with `changes` applied: what
    `dataclasses.replace(obj, **changes)` returns, built without a call to
    `__init__`. Only the declared fields are copied, so nothing else held
    on the instance (the codec's memoized text) reaches the copy; then
    `__post_init__` runs, as the constructor would run it. A name that is
    not a field raises `TypeError`."""
    cls = type(obj)
    names, known, post_init = _declared(cls)
    if not known.issuperset(changes):
        raise TypeError(f"{cls.__name__} has no field "
                        f"{', '.join(sorted(set(changes) - known))}")
    new = object.__new__(cls)
    state, old = new.__dict__, obj.__dict__
    for name in names:
        state[name] = old[name]
    state.update(changes)
    if post_init is not None:
        post_init(new)
    return new


def read_only(mapping: dict) -> ReadOnlyDict:
    """A read-only copy of `mapping`; a `ReadOnlyDict` is kept as it is, and
    every empty mapping shares one instance."""
    if type(mapping) is ReadOnlyDict:
        return mapping
    return ReadOnlyDict(mapping) if mapping else _EMPTY


@dataclass(frozen=True)
class MemoryEvent:
    id: str
    timestamp: datetime = field(metadata={"key": "ts"})
    session_id: str = ""
    actor: str = "user"
    kind: str = "event"
    content: str = ""
    metadata: dict[str, str] = field(default_factory=dict)
    causes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("event id must be non-empty")
        if self.actor not in ACTORS:
            raise ValueError(f"unknown actor {self.actor!r}")
        object.__setattr__(self, "metadata", read_only(self.metadata))
        object.__setattr__(self, "causes", tuple(self.causes))


@dataclass(frozen=True, eq=False)
class EpisodicRecord:
    event: MemoryEvent
    embedding: np.ndarray
    importance: float = 0.0
    score_breakdown: dict[str, float] = field(default_factory=dict)
    fidelity: FidelityLevel = FidelityLevel.L0
    tier: str = TIER_HOT
    encoded_at: datetime = None  # type: ignore[assignment]
    last_accessed: datetime = None  # type: ignore[assignment]
    access_count: int = 0
    ttl_expires_at: datetime = None  # type: ignore[assignment]
    state: str = STATE_PENDING
    entities: tuple[str, ...] = ()
    source_ids: tuple[str, ...] = ()

    def __post_init__(self):
        self.embedding.setflags(write=False)
        put = object.__setattr__
        put(self, "score_breakdown", read_only(self.score_breakdown))
        if self.encoded_at is None:
            put(self, "encoded_at", self.event.timestamp)
        if self.last_accessed is None:
            put(self, "last_accessed", self.encoded_at)
        if self.ttl_expires_at is None:
            put(self, "ttl_expires_at", self.encoded_at + timedelta(hours=24))
        if not self.source_ids:
            put(self, "source_ids", (self.event.id,))

    def __setstate__(self, state):
        # a copy or unpickled instance gets a new, writeable embedding array
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def id(self) -> str:
        return self.event.id

    @property
    def content(self) -> str:
        return self.event.content

    def with_content(self, content: str, **changes) -> "EpisodicRecord":
        """This record with its event's content replaced and `changes`
        applied to its own fields, built once."""
        return evolve(self, event=evolve(self.event, content=content), **changes)


@dataclass
class StoreConfig:
    """All tunables in one place; thresholds default to the shipped
    calibration values."""

    lambda_decay: float = 0.001            # per hour
    near_dedup_threshold: float = 0.559
    cluster_distance: float = 0.404
    interference_threshold: float = 0.542
    maturation_half_life_h: float = 168.0
    maturation_slope: float = 48.0
    lability_window_min: float = 60.0
    quarantine_ttl_min: float = 15.0
    consolidate_every_n_sessions: int = 1
    retrieval_k: int = 10
    token_budget: Optional[int] = None
    maturation_enabled: bool = True
    promote_fraction: float = 0.20
    retain_fraction: float = 0.60
    prune_fraction: float = 0.20

    # Artifact-level knobs not named by the threshold rules.
    embed_dimension: int = 256
    embed_seed: int = 0
    hot_ttl_hours: float = 24.0
    warm_ttl_hours: float = 720.0          # 30 days
    skew_tolerance_min: float = 5.0
    gist_max_tokens: int = 128
    gist_top_m: int = 3
    retro_weight: float = 0.6
    pro_weight: float = 0.4
    importance_floor: float = 0.5
    forget_priority_floor: float = 0.0
    priming_gamma: float = 0.1
    recency_boost_beta: float = 0.2
    recency_boost_lambda: float = 0.01
    reinforce_step: float = 0.05
    blend_confidence_w: float = 0.5
    blend_severity_w: float = 0.3
    blend_recency_w: float = 0.2
    authority_downweight: float = 0.5
    importance_filter: float = 0.0
    max_hops: int = 2
    # Age a record must reach before it degrades one more level, per current
    # level, in hours (7d / 14d / 30d / 60d / 90d).
    degrade_age_hours: tuple[float, ...] = (168.0, 336.0, 720.0, 1440.0, 2160.0)

    def __post_init__(self):
        fracs = self.promote_fraction + self.retain_fraction + self.prune_fraction
        if abs(fracs - 1.0) > 1e-9:
            raise ValueError("classification fractions must sum to 1.0")
        if self.maturation_half_life_h <= 0:
            raise ValueError("maturation half-life must be positive")
        for name in ("near_dedup_threshold", "cluster_distance", "interference_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def decayed_importance(importance: float, encoded_at: datetime, now: datetime,
                       lam: float) -> float:
    """Exponential importance decay; does not mutate the stored base value."""
    dt = hours_between(encoded_at, now)
    if dt < 0:
        raise NegativeElapsed(f"now precedes encoding by {-dt:.3f}h")
    return importance * math.exp(-lam * dt)
