"""Reference-normalized clock.

The host this benchmark was written on changes speed by up to 2x in phases
that last seconds, so raw wall-clock figures do not repeat between runs. A
fixed reference kernel, which does not touch engram, is timed immediately
before and after every timed operation. An operation's normalized time is

    raw * K / r

where r is the mean of the two kernel times around it and K is a constant,
the kernel's time on a nominal host. Units therefore stay seconds (and ms,
events/s) and read close to raw figures on a host running at that speed.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

# Nominal kernel time in seconds: about the kernel's median time on the
# 2-vCPU reference host (see README). Fixed; changing it rescales every figure.
K_SECONDS = 2.0e-4

_KERNEL_REPS = 3
_VEC = np.linspace(-1.0, 1.0, 64)
_MAT = np.outer(_VEC, _VEC[::-1]) / 64.0
_DOC = {"id": "evt-00042", "ts": "2026-01-05T00:42:00Z", "actor": "user",
        "tags": ["alpha", "beta", "gamma", "delta"],
        "vals": [i / 8.0 for i in range(24)]}


def reference_kernel() -> float:
    """A fixed mix of interpreter, small-numpy and json work."""
    acc = 0
    for i in range(300):
        acc = (acc * 31 + i) % 1_000_003
    counts: dict[str, int] = {}
    for w in ("ack noted bump ping seen triage closing loop status check "
              "ack ping seen noted").split():
        counts[w] = counts.get(w, 0) + 1
    v = _VEC
    total = 0.0
    for _ in range(12):
        v = np.tanh(_MAT @ v + 0.1)
        total += float(np.dot(v, _VEC))
    for _ in range(4):
        total += len(json.loads(json.dumps(_DOC, sort_keys=True))["vals"])
    return total + acc + len(counts)


def kernel_seconds() -> float:
    """Kernel time: the least of a few back-to-back runs, so that one
    interrupt does not inflate it."""
    best = float("inf")
    for _ in range(_KERNEL_REPS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def normalize(raw: float, ref_before: float, ref_after: float) -> float:
    """raw x K / r, with r the mean of the kernel times around the operation."""
    return raw * K_SECONDS / ((ref_before + ref_after) / 2.0)


class RefClock:
    """Times operations by kind, each bracketed by kernel samples.

    `samples[kind]` holds (raw_s, normalized_s) pairs; `refs` holds every
    kernel time taken, as a diagnostic of host speed. When `tracer` is set,
    each operation is also a root span and its spans are normalized by the
    operation's factor.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.refs: list[float] = []
        self.tracer = None

    def run(self, kind: str, fn, *args, **kwargs):
        tracer = self.tracer
        before = kernel_seconds()
        if tracer is not None:
            tracer.begin_op(kind)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            op = tracer.end_op() if tracer is not None else None
            after = kernel_seconds()
            self.refs.extend((before, after))
            norm = normalize(raw, before, after)
            self.samples[kind].append((raw, norm))
            if op is not None:
                tracer.op_factor[op] = norm / raw if raw > 0 else 1.0

    def values(self, kind: str, normalized: bool = True) -> list[float]:
        i = 1 if normalized else 0
        return [s[i] for s in self.samples.get(kind, ())]

    def total(self, kinds, normalized: bool = True) -> float:
        return sum(sum(self.values(k, normalized)) for k in kinds)


def median(values) -> float:
    return statistics.median(values)


def p95(values) -> float:
    """95th percentile by the exclusive method of `statistics.quantiles`."""
    return statistics.quantiles(values, n=20)[-1]
