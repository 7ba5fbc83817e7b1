"""Entity knowledge graph with maturation dynamics.

Semantic memories attach to entities; entities co-occur when they share a
memory. A promoted memory starts "silent" and its retrievability grows along
a sigmoid of its age; below the 0.5 threshold it can only prime episodic
results, never surface directly.

A sleep's memories share their `created_at`, so they are silent or mature
together: the graph's query state groups them by it, and a query weighs
each group once instead of each memory.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Any, Iterable, Optional

import numpy as np

from .codec import decode
from .embedding import _NO_ROWS, EmbeddingMatrix
from .errors import NegativeElapsed
from .model import StoreConfig, evolve, hours_between

RETRIEVAL_THRESHOLD = 0.5

# Lowercased words that do not count as an entity when they open a sentence.
_SENTENCE_INITIAL_STOPWORDS = {
    "a", "an", "the", "i", "we", "you", "he", "she", "it", "they", "this",
    "that", "these", "those", "my", "our", "your", "his", "her", "its",
    "their", "in", "on", "at", "and", "or", "but", "if", "so", "as", "to",
    "of", "for", "with", "by", "from", "is", "are", "was", "were", "do",
    "does", "did", "not", "no", "yes", "when", "what", "who", "how", "why",
    "where", "there", "here", "then", "now", "please", "thanks", "ok",
    "okay", "also", "after", "before", "while", "since",
}

_WORD_RE = re.compile(r"[@#][\w][\w'-]*|[A-Za-z][\w'-]*")
_SENTENCE_SPLIT_RE = re.compile(r"[.!?\n]+")


def extract_entities(content: str) -> tuple[str, ...]:
    """Pull entity names out of text: maximal runs of capitalized tokens (a
    sentence-initial stopword does not start a run), plus @-mentions and
    #-refs.
    """
    entities: dict[str, None] = {}
    for sentence in _SENTENCE_SPLIT_RE.split(content):
        run: list[str] = []
        for i, tok in enumerate(_WORD_RE.findall(sentence)):
            # a token opens with "#" or "@", both below "A", or an ASCII letter
            first = tok[0]
            if first < "A":
                entities[tok] = None
            elif first <= "Z" and (i or tok.lower() not in _SENTENCE_INITIAL_STOPWORDS):
                run.append(tok)
                continue
            if run:
                entities[" ".join(run)] = None
                run = []
        if run:
            entities[" ".join(run)] = None
    return tuple(entities)


def activation(created_at: datetime, now: datetime, t_half: float, k: float) -> float:
    """Sigmoid maturation curve over elapsed hours."""
    t = hours_between(created_at, now)
    if t < 0:
        raise NegativeElapsed(f"now precedes creation by {-t:.3f}h")
    return 1.0 / (1.0 + math.exp(-(t - t_half) / k))


def priming_weight(created_at: datetime, now: datetime, config: StoreConfig) -> float:
    """The activation of a memory created at `created_at`, usable as a
    priming bonus while it is silent; zero once it surfaces directly, and
    always when maturation is off."""
    if not config.maturation_enabled:
        return 0.0
    a = activation(created_at, now, config.maturation_half_life_h, config.maturation_slope)
    return 0.0 if a >= RETRIEVAL_THRESHOLD else a


@dataclass(frozen=True)
class EntityNode:
    name: str
    importance: float = 0.0
    first_seen: datetime = None  # type: ignore[assignment]
    last_seen: datetime = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class SemanticMemory:
    id: str
    gist: str
    embedding: np.ndarray
    source_ids: frozenset[str]
    created_at: datetime
    entities: tuple[str, ...] = ()
    access_count: int = 0

    def __post_init__(self):
        self.embedding.setflags(write=False)

    def __setstate__(self, state):
        # a copy or unpickled instance gets a new, writeable embedding array
        self.__dict__.update(state)
        self.__post_init__()

    def activation(self, now: datetime, config: StoreConfig) -> float:
        if not config.maturation_enabled:
            return 1.0
        return activation(self.created_at, now,
                          config.maturation_half_life_h, config.maturation_slope)


@dataclass
class SleepGroup:
    """The memories of one `created_at`, as one sleep makes them: their ids,
    the case-folded union of their entity names, and their columns in the
    query state's matrix."""
    ids: set[str]
    keys: set[str]
    rows: np.ndarray


class QueryState:
    """What a query reads of the graph's memories, derived from them.

    `groups` maps each `created_at` to its `SleepGroup`. `by_source` maps a
    source id to the ids of the memories holding it, and `shared` holds the
    ids of the memories that share a source id with another memory. Each
    memory takes one column, in the order added (`ids[col]`, `rows[id]`),
    of `embeddings`, an `EmbeddingMatrix`, so that one product scores any
    set of memories, and of `stamps`, its `created_at.timestamp()`: a query
    scores and ranks memories exactly without reading them."""

    def __init__(self, memories: Iterable[SemanticMemory]):
        self.ids: list[str] = []
        self.rows: dict[str, int] = {}
        self.groups: dict[datetime, SleepGroup] = {}
        self.by_source: dict[str, set[str]] = {}
        self.shared: set[str] = set()
        self.embeddings = EmbeddingMatrix()
        self.stamps = np.zeros(0)
        self.add(list(memories))

    def add(self, mems: list[SemanticMemory]) -> None:
        """Give memories the next columns, in order, and enter each in its
        group and in the source map: one matrix append and one row array
        per group for the whole batch, so that a sleep's memories cost one
        pass."""
        if not mems:
            return
        n = len(self.ids)
        self.embeddings.append([mem.embedding for mem in mems])
        self.stamps = np.concatenate((self.stamps, [mem.created_at.timestamp() for mem in mems]))
        added: dict[datetime, list[int]] = {}
        for row, mem in enumerate(mems, start=n):
            self.ids.append(mem.id)
            self.rows[mem.id] = row
            group = self.groups.get(mem.created_at)
            if group is None:
                group = self.groups[mem.created_at] = SleepGroup(set(), set(), _NO_ROWS)
            group.ids.add(mem.id)
            group.keys.update(map(str.casefold, mem.entities))
            added.setdefault(mem.created_at, []).append(row)
            for src in mem.source_ids:
                holders = self.by_source.setdefault(src, set())
                if holders:
                    self.shared.add(mem.id)
                    self.shared.update(holders)
                holders.add(mem.id)
        for created, rows in added.items():
            group = self.groups[created]
            group.rows = np.concatenate([group.rows, np.array(rows, dtype=np.intp)])


class KnowledgeGraph:
    """Entities, semantic memories, and co-occurrence structure.

    Entity names are case-folded for identity but keep their first-seen
    display form. Entity importance is degree / max degree, recomputed per
    batch; degree counts mention edges plus co-occurrence edges. It is a
    function of the final degrees alone, so an insert only marks it stale,
    and it is recomputed once before the next read of an importance or of
    the snapshot. Nodes and memories are immutable values, replaced by key,
    so `copy` needs to copy only the containers.

    `adjacent` holds the co-occurrence edges by endpoint, both ways:
    entity key -> {neighbour key: weight}. A memory adds 1 to the edge of
    each pair of distinct case-folded names it holds. A walk reads an
    entity's neighbours from its own row, not from a scan of every edge.
    `co_occurs` derives the persisted form from it: each edge once, under
    its sorted key pair.

    `query_state()` is derived state too: the memories grouped by
    `created_at`, a source id -> memory ids map and an `EmbeddingMatrix`
    (`QueryState`). It is built from `memories` on first use and kept
    current: `replace_memory` sets a new embedding in its matrix, and
    `insert_memory` notes the new id, which the next `query_state()` call
    adds with the rest of its sleep in one batch. It is never persisted,
    and `copy` leaves it behind, so a loaded or rolled-back graph builds it
    anew. `replace_memory` refuses a memory whose `created_at`, `entities`
    or `source_ids` differ from the stored one's, since the groups and the
    source maps key on them.
    """

    def __init__(self):
        self.entities: dict[str, EntityNode] = {}          # key: casefolded name
        self.memories: dict[str, SemanticMemory] = {}
        self.entity_memories: dict[str, set[str]] = {}     # entity key -> memory ids
        self.adjacent: dict[str, dict[str, int]] = {}      # key -> neighbour key -> weight
        self._by_source_set: dict[frozenset[str], str] = {}
        self._next_memory_seq = 0
        self._importance_stale = False
        self._query: Optional[QueryState] = None
        self._unqueried: list[str] = []  # ids inserted since the query state read them

    # -- entities ---------------------------------------------------------

    def _key(self, name: str) -> str:
        return name.casefold()

    def touch_entity(self, name: str, when: datetime) -> EntityNode:
        key = self._key(name)
        node = self.entities.get(key)
        if node is None:
            node = EntityNode(name=name, first_seen=when, last_seen=when)
            self.entity_memories[key] = set()
        elif not node.first_seen <= when <= node.last_seen:
            node = evolve(node, first_seen=min(node.first_seen, when),
                          last_seen=max(node.last_seen, when))
        self.entities[key] = node
        return node

    def entity_importance(self, name: str) -> float:
        self._refresh_importance()
        node = self.entities.get(self._key(name))
        return node.importance if node else 0.0

    def recompute_importance(self) -> None:
        # every edge endpoint is an entity, so every adjacency row is counted
        adjacent = self.adjacent
        degrees = {key: len(mems) + len(adjacent.get(key, ()))
                   for key, mems in self.entity_memories.items()}
        max_degree = max(degrees.values(), default=0)
        for key, node in self.entities.items():
            if max_degree == 0:
                importance = 1.0 if len(self.entities) == 1 else 0.0
            else:
                importance = degrees.get(key, 0) / max_degree
            if importance != node.importance:
                self.entities[key] = EntityNode(node.name, importance,
                                                node.first_seen, node.last_seen)
        self._importance_stale = False

    def _refresh_importance(self) -> None:
        if self._importance_stale:
            self.recompute_importance()

    # -- memories ---------------------------------------------------------

    def find_by_source_set(self, source_ids: frozenset[str]) -> Optional[SemanticMemory]:
        mem_id = self._by_source_set.get(source_ids)
        return self.memories.get(mem_id) if mem_id else None

    def insert_memory(self, gist: str, embedding: np.ndarray,
                      source_ids: frozenset[str], entities: Iterable[str],
                      created_at: datetime) -> SemanticMemory:
        """Insert a semantic memory; idempotent on the source-id set."""
        existing = self.find_by_source_set(source_ids)
        if existing is not None:
            return existing
        mem_id = f"sem-{self._next_memory_seq:06d}"
        self._next_memory_seq += 1
        names = tuple(dict.fromkeys(entities))
        mem = SemanticMemory(id=mem_id, gist=gist, embedding=embedding,
                             source_ids=source_ids, created_at=created_at,
                             entities=names)
        self.memories[mem_id] = mem
        self._by_source_set[source_ids] = mem_id
        if self._query is not None:
            self._unqueried.append(mem_id)
        for name in names:
            self.touch_entity(name, created_at)
            self.entity_memories[self._key(name)].add(mem_id)
        keys = list(dict.fromkeys(map(self._key, names)))
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                self._add_edge(a, b, self.adjacent.get(a, {}).get(b, 0) + 1)
        self._importance_stale = True
        return mem

    def _add_edge(self, a: str, b: str, weight: int) -> None:
        self.adjacent.setdefault(a, {})[b] = weight
        self.adjacent.setdefault(b, {})[a] = weight

    @property
    def co_occurs(self) -> dict[tuple[str, str], int]:
        """Each edge once, under its sorted key pair, read off `adjacent`."""
        return {(a, b): w for a, row in self.adjacent.items() for b, w in row.items() if a < b}

    def replace_memory(self, mem: SemanticMemory) -> None:
        """Store a new value of a stored memory: its access count, gist or
        embedding may change, nothing else. Raises `ValueError` for an
        unknown id or a changed `created_at`, `entities` or `source_ids`."""
        old = self.memories.get(mem.id)
        if old is None:
            raise ValueError(f"no memory {mem.id!r}")
        if (mem.created_at, mem.entities, mem.source_ids) != \
                (old.created_at, old.entities, old.source_ids):
            raise ValueError(f"memory {mem.id!r} may change its access count, "
                             "gist and embedding only")
        self.memories[mem.id] = mem
        state = self._query
        if state is not None and mem.id in state.rows and mem.embedding is not old.embedding:
            state.embeddings.set([state.rows[mem.id]], [mem.embedding])

    def query_state(self) -> QueryState:
        """The memories as a query reads them: built on first use, and
        handed the memories inserted since the last read in one batch."""
        if self._query is None:
            self._query = QueryState(self.memories.values())
            self._unqueried = []
        elif self._unqueried:
            self._query.add([self.memories[m] for m in self._unqueried])
            self._unqueried = []
        return self._query

    def copy(self) -> "KnowledgeGraph":
        """A graph that shares this one's immutable nodes and memories but
        none of its containers. Its query state is built on first use."""
        g = KnowledgeGraph()
        g.entities = dict(self.entities)
        g.memories = dict(self.memories)
        g.entity_memories = {k: set(v) for k, v in self.entity_memories.items()}
        g.adjacent = {k: dict(row) for k, row in self.adjacent.items()}
        g._by_source_set = dict(self._by_source_set)
        g._next_memory_seq = self._next_memory_seq
        g._importance_stale = self._importance_stale
        return g

    # -- traversal --------------------------------------------------------

    def neighbors(self, key: str) -> list[tuple[str, int]]:
        """The neighbours of entity key `key` with their edge weights,
        heavier edges first, then by key; `[]` for an unknown key."""
        return sorted(self.adjacent.get(key, {}).items(),
                      key=lambda kw: (-kw[1], kw[0]))

    def walk(self, seed_entities: Iterable[str], max_hops: int = 2
             ) -> list[set[str]]:
        """Breadth-first walk over the entity graph: the ids of the memories
        it first reaches at each depth, up to `max_hops`. Depth 0 holds the
        memories of the seeds; unknown seeds contribute nothing.

        Each level is the union of its entities' memory sets, and the next
        level's entities the union of their adjacency rows, less the
        entities visited: set operations, so the walk takes no order and
        reads no memory."""
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        frontier = {key for key in map(self._key, seed_entities) if key in self.entities}
        visited = set(frontier)
        levels: list[set[str]] = []
        seen: set[str] = set()
        while frontier:
            level = set().union(*[self.entity_memories.get(key, ()) for key in frontier])
            level -= seen
            seen |= level
            levels.append(level)
            if len(levels) > max_hops:
                break
            frontier = set().union(*[self.adjacent.get(key, ()) for key in frontier])
            frontier -= visited
            visited |= frontier
        return levels

    def traverse(self, seed_entities: Iterable[str], max_hops: int = 2
                 ) -> list[tuple[SemanticMemory, int]]:
        """The memories `walk` reaches, each once at its minimal hop
        distance, sorted by (hops, memory id)."""
        memories = self.memories
        return [(memories[mem_id], depth)
                for depth, level in enumerate(self.walk(seed_entities, max_hops))
                for mem_id in sorted(level)]

    # -- serialization ----------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """The graph's JSON form with its nodes and memories in place, for
        `codec.write` to splice in their memoized text."""
        self._refresh_importance()
        return {
            "entities": [self.entities[k] for k in sorted(self.entities)],
            "memories": [self.memories[k] for k in sorted(self.memories)],
            "co_occurs": tuple((a, b, w) for (a, b), w in sorted(self.co_occurs.items())),
            "next_memory_seq": self._next_memory_seq,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "KnowledgeGraph":
        g = cls()
        for ed in d["entities"]:
            node = decode(EntityNode, ed)
            g.entities[g._key(node.name)] = node
            g.entity_memories[g._key(node.name)] = set()
        for md in d["memories"]:
            mem = decode(SemanticMemory, md)
            g.memories[mem.id] = mem
            g._by_source_set[mem.source_ids] = mem.id
            for name in mem.entities:
                g.entity_memories.setdefault(g._key(name), set()).add(mem.id)
        for a, b, w in d["co_occurs"]:
            # `co_occurs` writes each edge as a sorted pair of entity keys
            if not (a < b and a in g.entities and b in g.entities):
                raise ValueError(f"edge ({a!r}, {b!r}) is not a sorted pair of entities")
            g._add_edge(a, b, w)
        g._next_memory_seq = d["next_memory_seq"]
        return g
