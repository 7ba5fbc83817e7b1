"""Slow oracles for the engine's fast paths.

Each oracle is the plain loop the engine once ran, or its definition: the
hash embedder with one keyed blake2b per token occurrence, entity
extraction with two prefix tests and a case test per token, dedup
over the whole store, forget priorities from `forgetting.interference`
(criterion 3) over every live record, the budget walk one `degrade` and one
store write per step, the episodic scan over every record, the graph walk
that scans every co-occurrence edge per visited entity, hybrid retrieval
with two full episodic scans, one priming weight per reached memory and a
sorted `Hit` per matured memory, a graph's query state as plain values
to hold against a rebuild, clustering with every pair
average recomputed, a record map's pending ids and content holders by a
walk over every record, the v1 rendering of a snapshot, a snapshot
with its tombstones in the existence-metadata form, and calibration's
similarity distributions by one `np.dot` per pair. Oracle and engine share
the pinned pairwise rules (`absorb`, `survivor_order`, `interference`); they
differ in how candidates are found and sums are kept. The oracles are slow
on purpose, and they live here, not in `src/`."""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import numpy as np

from engram.consolidation import absorb, survivor_order
from engram.embedding import normalize, tokenize
from engram.forgetting import (
    EPSILON,
    ForgettingReport,
    degrade,
    interference,
    rank_forget_candidates,
)
from engram.graph import (
    _SENTENCE_INITIAL_STOPWORDS,
    _SENTENCE_SPLIT_RE,
    _WORD_RE,
    SemanticMemory,
)
from engram.model import (
    STATE_PENDING,
    STATE_PROMOTED,
    STATE_RETAINED,
    STATE_TOMBSTONE,
    TIER_HOT,
    TIER_WARM,
    EpisodicRecord,
    decayed_importance,
    hours_between,
)
from engram.retrieval import (
    TIER_GRAPH,
    Hit,
    RetrievalResult,
    _rank_key,
)


class ReferenceHashEmbedder:
    """The hash embedder as a plain per-token loop: one keyed blake2b per
    token occurrence, one vector write per token, and the e0 fallback
    decided by the vector's norm."""

    def __init__(self, dimension: int = 256, seed: int = 0):
        self.dimension = dimension
        self.seed = seed
        self._key = seed.to_bytes(8, "little", signed=True)

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for tok in tokenize(text):
            h = int.from_bytes(
                hashlib.blake2b(tok.encode("utf-8"), digest_size=8,
                                key=self._key).digest(),
                "little",
            )
            bucket = h % self.dimension
            sign = 1.0 if (h >> 32) & 1 else -1.0
            vec[bucket] += sign
        if float(np.linalg.norm(vec)) < 1e-12:
            vec[0] = 1.0
        return normalize(vec)


def reference_extract_entities(content: str) -> tuple[str, ...]:
    """Entity extraction as two prefix tests and a case test per token."""
    entities: dict[str, None] = {}
    for sentence in _SENTENCE_SPLIT_RE.split(content):
        tokens = _WORD_RE.findall(sentence)
        run: list[str] = []
        for i, tok in enumerate(tokens):
            if tok.startswith("@") or tok.startswith("#"):
                entities.setdefault(tok, None)
                if run:
                    entities.setdefault(" ".join(run), None)
                    run = []
                continue
            capitalized = tok[0].isupper()
            if capitalized and i == 0 and tok.lower() in _SENTENCE_INITIAL_STOPWORDS:
                capitalized = False
            if capitalized:
                run.append(tok)
            elif run:
                entities.setdefault(" ".join(run), None)
                run = []
        if run:
            entities.setdefault(" ".join(run), None)
    return tuple(entities)


def live_records(store):
    """Every stored record that is not a tombstone, in `store.records`
    order."""
    return [r for r in store.records.values() if r.state != STATE_TOMBSTONE]


def derived_by_walk(records):
    """A record map's pending ids, in its order, and its content -> sorted
    holder ids of the retained and promoted records, each by a walk over
    every record; the engine's `pending` and `holders` must equal them."""
    pending = [k for k, r in records.items() if r.state == STATE_PENDING]
    holders: dict[str, list[str]] = {}
    for k, r in records.items():
        if r.state in (STATE_RETAINED, STATE_PROMOTED):
            holders.setdefault(r.content, []).append(k)
    return pending, {c: sorted(ids) for c, ids in holders.items()}


def derived_kept(records):
    """The engine's counterpart of `derived_by_walk(records)`."""
    return list(records.pending), {c: sorted(ids) for c, ids in records.holders.items()}


def whole_store_dedup(store, batch, threshold):
    """Step 4 of `run_consolidation` over every stored retained or promoted
    record plus the batch, in `survivor_order`. First each pending record
    with the content of an earlier survivor is absorbed by the first such
    survivor as an exact copy; then each pending record whose `np.dot`
    similarity to an earlier survivor reaches `threshold` is absorbed by the
    most similar one (ties: the first) as a near copy. A stored record
    always survives. Returns (survivors, exact copies removed, near
    duplicates removed), each in `survivor_order`."""
    batch_ids = {r.id for r in batch}
    pool = [r for r in store.records.values()
            if r.state in (STATE_RETAINED, STATE_PROMOTED) and r.id not in batch_ids]
    unique, exact_removed = [], []
    for rec in sorted(pool + list(batch), key=survivor_order):
        first = next((i for i, s in enumerate(unique) if s.content == rec.content), None)
        if rec.state == STATE_PENDING and first is not None:
            unique[first] = absorb(unique[first], rec, exact=True)
            exact_removed.append(rec)
        else:
            unique.append(rec)
    survivors, near_removed = [], []
    for rec in unique:
        sims = [float(np.dot(s.embedding, rec.embedding)) for s in survivors]
        best = max(range(len(sims)), key=sims.__getitem__, default=None)
        if rec.state == STATE_PENDING and best is not None and sims[best] >= threshold:
            survivors[best] = absorb(survivors[best], rec, exact=False)
            near_removed.append(rec)
        else:
            survivors.append(rec)
    return survivors, exact_removed, near_removed


def forget_priority(store, rec, now):
    """Criterion 3's interference of `rec` over the live records, divided by
    its decayed importance: the priority `rank_forget_candidates` ranks by."""
    config = store.config
    assessed = interference(rec, live_records(store), config.interference_threshold,
                            config.retro_weight, config.pro_weight)
    decayed = decayed_importance(rec.importance, rec.encoded_at, now, config.lambda_decay)
    return assessed.interference / (decayed + EPSILON), decayed


def forget_ranking(store, now):
    """Every live, unpromoted, non-labile record encoded by `now`, by
    (priority desc, decayed importance asc, id), as (priority, decayed,
    id)."""
    ranked = []
    for rec in store.records.values():
        if (rec.state in (STATE_TOMBSTONE, STATE_PROMOTED) or rec.encoded_at > now
                or store.is_labile(rec.id, now)):
            continue
        ranked.append((*forget_priority(store, rec, now), rec.id))
    ranked.sort(key=lambda t: (-t[0], t[1], t[2]))
    return ranked


def stepwise_budget_walk(store, budget_tokens, now):
    """`forgetting.forget_to_budget` as it ran before it wrote each walked
    record once: one `degrade` and one `store.replace` per step, with the
    store's token total read after each."""
    if budget_tokens <= 0:
        raise ValueError("budget must be positive")
    report = ForgettingReport()
    if store.active_tokens() > budget_tokens:
        ranked = rank_forget_candidates(store, now)
        for _prio, _dec, rec in ranked:
            current = store.records[rec.id]
            while (store.active_tokens() > budget_tokens
                   and current.state != STATE_TOMBSTONE):
                current = degrade(current)
                store.replace(current)
                report.budget_steps += 1
                if current.state == STATE_TOMBSTONE:
                    report.budget_tombstoned += 1
            if store.active_tokens() <= budget_tokens:
                break
    report.tokens_after = store.active_tokens()
    report.active_after = store.active_count()
    return report


def scan_oracle(store, qvec, k, now, time_range=None, session_id=None,
                tier=None, importance_filter=None):
    """The episodic scan as a loop over every record, building and sorting a
    `Hit` for each: the definition the index-backed scan reproduces."""
    if importance_filter is None:
        importance_filter = store.config.importance_filter
    hits = []
    for rec in store.records.values():
        if rec.state == STATE_TOMBSTONE or rec.encoded_at > now:
            continue
        if tier is not None and rec.tier != tier:
            continue
        if session_id is not None and rec.event.session_id != session_id:
            continue
        ts = rec.event.timestamp
        if time_range is not None and not (time_range[0] <= ts <= time_range[1]):
            continue
        decayed = decayed_importance(rec.importance, rec.encoded_at, now,
                                     store.config.lambda_decay)
        if decayed < importance_filter:
            continue
        sim = float(np.dot(qvec, rec.embedding))
        hits.append(Hit(memory_id=rec.id, tier=rec.tier, base_sim=sim,
                        final_score=sim, timestamp=ts, content=rec.content,
                        source_ids=rec.source_ids))
    hits.sort(key=_rank_key)
    return hits[:k]


# The earlier `KnowledgeGraph.neighbors` and `traverse`, word for word but
# for taking the graph as an argument: a scan of every co-occurrence edge per
# visited entity, and a sort of each visited entity's memory ids.
def neighbors_by_edge_scan(graph, key: str) -> list[tuple[str, int]]:
    out = []
    for (a, b), w in graph.co_occurs.items():
        if a == key:
            out.append((b, w))
        elif b == key:
            out.append((a, w))
    # deterministic visit order: heavier edges first, then name
    out.sort(key=lambda kw: (-kw[1], kw[0]))
    return out


def traverse_by_edge_scan(graph, seed_entities: Iterable[str], max_hops: int = 2):
    """Breadth-first walk over the entity graph collecting attached
    memories; each memory is returned once at its minimal hop distance.
    Unknown seeds contribute nothing."""
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    visited: dict[str, int] = {}
    frontier: list[str] = []
    for name in seed_entities:
        key = graph._key(name)
        if key in graph.entities and key not in visited:
            visited[key] = 0
            frontier.append(key)
    results: dict = {}
    depth = 0
    while frontier:
        for key in frontier:
            for mem_id in sorted(graph.entity_memories.get(key, ())):
                if mem_id not in results:
                    results[mem_id] = (graph.memories[mem_id], visited[key])
        if depth >= max_hops:
            break
        depth += 1
        nxt: list[str] = []
        for key in frontier:
            for nkey, _w in neighbors_by_edge_scan(graph, key):
                if nkey not in visited:
                    visited[nkey] = depth
                    nxt.append(nkey)
        frontier = nxt
    return sorted(results.values(), key=lambda mi: (mi[1], mi[0].id))


def query_state_view(state):
    """A graph's `QueryState` as plain values, equal for two states that
    hold the same memories in the same columns."""
    n = len(state.ids)
    return (state.ids, state.rows,
            {created: (g.ids, g.keys, g.rows.tolist()) for created, g in state.groups.items()},
            state.by_source, state.shared, state.stamps[:n].tobytes(),
            embedding_matrix_view(state.embeddings))


def embedding_matrix_view(embeddings):
    """An `EmbeddingMatrix` as plain values, its unused columns left out:
    equal for two that hold the same embeddings in the same columns."""
    n = len(embeddings)
    return (embeddings.matrix[:, :n].tobytes(), embeddings.norms[:n].tobytes(),
            embeddings.lossy[:n].tobytes(), [v.tobytes() for v in embeddings.vectors])


# The earlier `retrieval._memory_hit`, word for word.
def _memory_hit(mem: SemanticMemory, qvec: np.ndarray,
                hop_distance: Optional[int] = None) -> Hit:
    sim = float(np.dot(qvec, mem.embedding))
    return Hit(memory_id=mem.id, tier=TIER_GRAPH, base_sim=sim,
               final_score=sim, timestamp=mem.created_at, content=mem.gist,
               source_ids=tuple(sorted(mem.source_ids)),
               hop_distance=hop_distance)


# The earlier `hybrid_retrieve`, word for word but for its walk and its
# scans: it calls `traverse_by_edge_scan`, takes one priming weight per
# reached memory from its activation, makes a `Hit` of every matured memory
# it reaches, and scans each episodic tier with `scan_oracle`.
def hybrid_reference(store, query: str, k: Optional[int] = None,
                     now: Optional[datetime] = None,
                     session_id: Optional[str] = None) -> RetrievalResult:
    config = store.config
    if k is None:
        k = config.retrieval_k
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    qvec = store.embedder.embed(query)
    with store.lock:
        if now is None:
            now = store.logical_now() or datetime.now(timezone.utc)
        # each record has one tier, so the hot and warm hits are disjoint
        episodic_hits = (scan_oracle(store, qvec, k, now, tier=TIER_HOT,
                                     session_id=session_id)
                         + scan_oracle(store, qvec, k, now, tier=TIER_WARM))

        # graph pathway seeded by entities of the strongest episodic hits
        seed_entities: dict[str, None] = {}
        for hit in episodic_hits[:k]:
            for name in store.records[hit.memory_id].entities:
                seed_entities.setdefault(name, None)
        graph_hits: list[Hit] = []
        silent_by_entity: dict[str, float] = {}
        if seed_entities:
            for mem, hops in traverse_by_edge_scan(store.graph, seed_entities,
                                                   config.max_hops):
                if mem.created_at > now:
                    continue
                activation = mem.activation(now, config)
                weight = 0.0 if activation >= 0.5 else activation
                if weight == 0.0:  # matured: surfaces as a hit of its own
                    graph_hits.append(_memory_hit(mem, qvec, hops))
                else:
                    # silent memories prime episodic results sharing an entity
                    for name in mem.entities:
                        key = name.casefold()
                        silent_by_entity[key] = max(silent_by_entity.get(key, 0.0), weight)

        # merge + dedupe: an episodic copy beats its own semantic gist
        covered_sources: set[str] = set()
        for hit in episodic_hits:
            covered_sources.update(hit.source_ids)
            covered_sources.add(hit.memory_id)
        merged = list(episodic_hits)
        for hit in graph_hits:
            if any(src in covered_sources for src in hit.source_ids):
                continue
            merged.append(hit)
            covered_sources.update(hit.source_ids)

        for hit in merged:
            age_h = max(hours_between(hit.timestamp, now), 0.0)
            hit.recency_boost = 1.0 + config.recency_boost_beta * math.exp(
                -config.recency_boost_lambda * age_h)
            if hit.tier != TIER_GRAPH and silent_by_entity:
                best = max((silent_by_entity.get(n.casefold(), 0.0)
                            for n in store.records[hit.memory_id].entities),
                           default=0.0)
                if best > 0.0:
                    hit.priming_boost = 1.0 + config.priming_gamma * best
            hit.final_score = hit.base_sim * hit.recency_boost * hit.priming_boost

    merged.sort(key=_rank_key)
    return RetrievalResult(query=query, k=k, as_of=now, hits=merged[:k])


# The earlier `cluster`, which recomputed each pair average with `math.fsum`
# after every merge, word for word but for its name: the Lance-Williams
# `cluster` must give exactly its output, group order and member order.
def cluster_reference(batch: Sequence[EpisodicRecord], distance: float
            ) -> list[list[EpisodicRecord]]:
    """Average-linkage agglomerative clustering on cosine distance.

    Merging stops when the minimum inter-cluster distance exceeds the
    configured cutoff. Ties pick the pair whose smallest member ids compare
    lowest, so the result is order-independent and deterministic.
    """
    records = sorted(batch, key=lambda r: r.id)
    n = len(records)
    if n == 0:
        return []
    if n == 1:
        return [[records[0]]]
    # per-pair dots + fsum averaging: correctly rounded and independent of
    # summation order, so an independent reference computes identical values
    base = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        base[i, i] = 0.0
        for j in range(i + 1, n):
            d = 1.0 - float(np.dot(records[i].embedding, records[j].embedding))
            base[i, j] = d
            base[j, i] = d
    clusters: dict[str, list[int]] = {r.id: [i] for i, r in enumerate(records)}

    def pair_distance(a: str, b: str) -> float:
        total = math.fsum(base[i, j] for i in clusters[a] for j in clusters[b])
        return total / (len(clusters[a]) * len(clusters[b]))

    dist: dict[tuple[str, str], float] = {}
    keys = sorted(clusters)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            dist[(keys[i], keys[j])] = pair_distance(keys[i], keys[j])

    while len(clusters) > 1:
        best = min(dist.items(), key=lambda kv: (kv[1], kv[0]))
        (a, b), d = best
        if d > distance:
            break
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
        for key in list(dist):
            if b in key:
                del dist[key]
        for other in clusters:
            if other == a:
                continue
            pair = (a, other) if a < other else (other, a)
            dist[pair] = pair_distance(a, other)
    out = []
    for key in sorted(clusters):
        out.append([records[i] for i in sorted(clusters[key])])
    return out


def _dense(obj: dict):
    """A codec sparse-array object as the v1 dense float list; any other
    object as it is."""
    if obj.keys() != {"i", "n", "v"}:
        return obj
    out = [0.0] * obj["n"]
    for i, v in zip(obj["i"], obj["v"]):
        out[i] = v
    return out


def as_v1(text: str) -> str:
    """A snapshot's text as the v1 writer wrote it: every array a dense
    float list, `version` 1, and the canonical dump."""
    state = json.loads(text, object_hook=_dense)
    state["version"] = 1
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def thin_tombstones(text: str) -> str:
    """A snapshot's text with each tombstone record holding only existence
    metadata: no content, no entities, no score breakdown, an all-zero
    embedding of the same length, and fidelity 5; every other field and
    every other value as it is. The canonical dump."""
    state = json.loads(text)
    for rec in state["records"]:
        if rec["state"] == STATE_TOMBSTONE:
            rec["event"]["content"] = ""
            rec["embedding"] = {"i": [], "n": rec["embedding"]["n"], "v": []}
            rec["entities"] = []
            rec["score_breakdown"] = {}
            rec["fidelity"] = 5
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def similarity_distributions_by_pair_loop(corpus, embedder
                                          ) -> tuple[list[float], list[float], list[float]]:
    """The earlier `calibration.similarity_distributions`: one `np.dot` per
    unordered turn pair, in (i, j) order, split by session membership."""
    turns = corpus.all_turns()
    vecs = [embedder.embed(t.text) for _sid, t in turns]
    within: list[float] = []
    cross: list[float] = []
    for i in range(len(turns)):
        for j in range(i + 1, len(turns)):
            sim = float(np.dot(vecs[i], vecs[j]))
            if turns[i][0] == turns[j][0]:
                within.append(sim)
            else:
                cross.append(sim)
    return within, cross, within + cross
