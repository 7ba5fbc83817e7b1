"""Span tracer that wraps engram's layer functions from outside `src/`.

Each target is patched where its caller looks it up: a module attribute
for functions called through their module, a class attribute for methods.
Spans (name, start, end, parent, operation id) are kept in memory and
written out at the end. A span's self time is its duration minus the time
its child spans cover; it is normalized by the reference-clock factor of
the operation it ran in. A target missing from the code is reported as
absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (span name, module, attribute path within the module)
TARGETS = [
    ("embedding.embed", "engram.embedding", "HashEmbedder.embed"),
    ("store.ingest", "engram.store", "MemoryStore.ingest"),
    ("store.checkpoint", "engram.store", "MemoryStore._checkpoint"),
    ("store.snapshot_json", "engram.store", "MemoryStore.snapshot_json"),
    ("store.from_state_dict", "engram.store", "MemoryStore.from_state_dict"),
    ("store.active_tokens", "engram.store", "MemoryStore.active_tokens"),
    ("scoring.score_record", "engram.consolidation", "score_record"),
    ("scoring.frequency_factor", "engram.scoring", "frequency_factor"),
    ("scoring.classify", "engram.consolidation", "classify"),
    ("consolidation.run_consolidation", "engram.consolidation", "run_consolidation"),
    ("consolidation.validate_temporal", "engram.consolidation", "validate_temporal"),
    ("consolidation.exact_dedup", "engram.consolidation", "exact_dedup"),
    ("consolidation.near_dedup", "engram.consolidation", "near_dedup"),
    ("consolidation.cluster", "engram.consolidation", "cluster"),
    ("consolidation.make_gist", "engram.consolidation", "make_gist"),
    ("consolidation.promote", "engram.consolidation", "promote"),
    ("graph.insert_memory", "engram.graph", "KnowledgeGraph.insert_memory"),
    ("graph.traverse", "engram.graph", "KnowledgeGraph.traverse"),
    ("graph.neighbors", "engram.graph", "KnowledgeGraph.neighbors"),
    ("forgetting.run_forgetting", "engram.forgetting", "run_forgetting"),
    ("forgetting.apply_ttl", "engram.forgetting", "apply_ttl"),
    ("forgetting.rank_forget_candidates", "engram.forgetting", "rank_forget_candidates"),
    ("forgetting.forget_to_budget", "engram.forgetting", "forget_to_budget"),
    ("forgetting.degrade", "engram.forgetting", "degrade"),
    ("retrieval.hybrid_retrieve", "engram.retrieval", "hybrid_retrieve"),
    ("retrieval.episodic_search", "engram.retrieval", "episodic_search"),
    ("retrieval.open_lability", "engram.retrieval", "open_lability"),
    ("retrieval.reconsolidate", "engram.retrieval", "reconsolidate"),
    ("retrieval.reinforce", "engram.retrieval", "reinforce"),
]

# per-layer metric -> (span name, unit scale from seconds), mean self time
# per call
TIME_METRICS = {
    "embedding.embed_us": ("embedding.embed", 1e6),
    "store.ingest_us": ("store.ingest", 1e6),
    "store.checkpoint_ms": ("store.checkpoint", 1e3),
    "store.snapshot_json_ms": ("store.snapshot_json", 1e3),
    "store.from_state_dict_ms": ("store.from_state_dict", 1e3),
    "scoring.score_record_ms": ("scoring.score_record", 1e3),
    "scoring.frequency_factor_us": ("scoring.frequency_factor", 1e6),
    "scoring.classify_ms": ("scoring.classify", 1e3),
    "consolidation.run_consolidation_ms": ("consolidation.run_consolidation", 1e3),
    "consolidation.validate_temporal_ms": ("consolidation.validate_temporal", 1e3),
    "consolidation.exact_dedup_ms": ("consolidation.exact_dedup", 1e3),
    "consolidation.near_dedup_ms": ("consolidation.near_dedup", 1e3),
    "consolidation.cluster_ms": ("consolidation.cluster", 1e3),
    "consolidation.make_gist_ms": ("consolidation.make_gist", 1e3),
    "consolidation.promote_ms": ("consolidation.promote", 1e3),
    "graph.insert_memory_us": ("graph.insert_memory", 1e6),
    "graph.traverse_ms": ("graph.traverse", 1e3),
    "forgetting.run_forgetting_ms": ("forgetting.run_forgetting", 1e3),
    "forgetting.apply_ttl_ms": ("forgetting.apply_ttl", 1e3),
    "forgetting.rank_forget_candidates_ms": ("forgetting.rank_forget_candidates", 1e3),
    "forgetting.forget_to_budget_ms": ("forgetting.forget_to_budget", 1e3),
    "retrieval.hybrid_retrieve_ms": ("retrieval.hybrid_retrieve", 1e3),
    "retrieval.episodic_search_ms": ("retrieval.episodic_search", 1e3),
    "retrieval.open_lability_us": ("retrieval.open_lability", 1e6),
    "retrieval.reconsolidate_us": ("retrieval.reconsolidate", 1e6),
    "retrieval.reinforce_us": ("retrieval.reinforce", 1e6),
}

# per-layer metric -> (span name, operation kind): calls per operation
COUNT_METRICS = {
    "embedding.embed_calls_per_query": ("embedding.embed", "query"),
    "store.active_tokens_calls_per_sleep": ("store.active_tokens", "sleep"),
    "graph.neighbors_calls_per_query": ("graph.neighbors", "query"),
    "forgetting.degrade_calls": ("forgetting.degrade", "sleep"),
}


# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    **{m: ("us" if m.endswith("_us") else "ms") for m in TIME_METRICS},
    "embedding.embed_calls_per_query": "calls/query",
    "store.active_tokens_calls_per_sleep": "calls/sleep",
    "graph.neighbors_calls_per_query": "calls/query",
    "forgetting.degrade_calls": "calls/sleep",
    "consolidation.dedup_yield": "ratio",
    "graph.co_occur_edges": "count",
    "harness.fingerprint_ms": "ms",
    "trace.overhead_pct": "%",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, parts[-1]
    return owner, parts[-1]


class Tracer:
    def __init__(self) -> None:
        # spans: [name, start_ns, end_ns, parent index, op id, self_ns]
        self.spans: list[list] = []
        self.stack: list[list] = []   # [span index, start_ns, child_ns]
        self.op_id = -1
        self.op_kind: dict[int, str] = {}
        self.op_factor: dict[int, float] = {}
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, 0, 0, parent, self.op_id, 0])
        self.stack.append([idx, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        idx, start, child = self.stack.pop()
        span = self.spans[idx]
        span[1], span[2], span[5] = start, end, end - start - child
        if self.stack:
            self.stack[-1][2] += end - start

    def begin_op(self, kind: str) -> None:
        self.op_id = len(self.op_kind)
        self.op_kind[self.op_id] = kind
        self._enter("op." + kind)

    def end_op(self) -> int:
        """Close the operation's root span; the clock then sets its factor
        in `op_factor`."""
        self._exit()
        op, self.op_id = self.op_id, -1
        return op

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures from span self times (normalized) and counts."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        calls_in: dict[tuple[str, str], int] = defaultdict(int)
        ops: dict[str, int] = defaultdict(int)
        for kind in self.op_kind.values():
            ops[kind] += 1
        for name, _s, _e, _parent, op, self_ns in self.spans:
            self_s[name] += self_ns * 1e-9 * self.op_factor.get(op, 1.0)
            calls[name] += 1
            calls_in[(name, self.op_kind[op])] += 1
        out: dict[str, float] = {}
        for metric, (name, scale) in TIME_METRICS.items():
            out[metric] = self_s[name] / calls[name] * scale if calls[name] else 0.0
        for metric, (name, kind) in COUNT_METRICS.items():
            out[metric] = calls_in[(name, kind)] / ops[kind] if ops[kind] else 0.0
        # the harness computes its fingerprint inline, so this is the whole
        # fingerprint step: snapshot_json plus the sha256
        fp = [i for i, k in self.op_kind.items() if k == "fingerprint"]
        fp_s = sum((s[2] - s[1]) * 1e-9 * self.op_factor[s[4]]
                   for s in self.spans if s[0] == "op.fingerprint")
        out["harness.fingerprint_ms"] = fp_s / len(fp) * 1e3 if fp else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _self in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op,
                                     "op_kind": self.op_kind[op]}) + "\n")
