"""Entity knowledge graph with maturation dynamics.

Semantic memories attach to entities; entities co-occur when they share a
memory. A promoted memory starts "silent" and its retrievability grows along
a sigmoid of its age; below the 0.5 threshold it can only prime episodic
results, never surface directly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Any, Iterable, Optional

import numpy as np

from .codec import decode
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


def activation(created_at: datetime, now: datetime, t_half: float, k: float) -> float:
    """Sigmoid maturation curve over elapsed hours."""
    t = hours_between(created_at, now)
    if t < 0:
        raise NegativeElapsed(f"now precedes creation by {-t:.3f}h")
    return 1.0 / (1.0 + math.exp(-(t - t_half) / k))


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

    def priming_weight(self, now: datetime, config: StoreConfig) -> float:
        """Activation value usable as a priming bonus while silent; zero once
        the memory surfaces directly."""
        a = self.activation(now, config)
        return 0.0 if a >= RETRIEVAL_THRESHOLD else a


class KnowledgeGraph:
    """Entities, semantic memories, and co-occurrence structure.

    Entity names are case-folded for identity but keep their first-seen
    display form. Entity importance is degree / max degree, recomputed per
    batch; degree counts mention edges plus co-occurrence edges. It is a
    function of the final degrees alone, so an insert only marks it stale,
    and it is recomputed once before the next read of an importance or of
    the snapshot. Nodes and memories are immutable values, replaced by key,
    so `copy` needs to copy only the containers.

    `co_occurs` holds each edge once, under its sorted key pair; it is the
    persisted form. `adjacent` holds the same edges by endpoint, both ways:
    entity key -> {neighbour key: weight}. It is derived state, written by
    `insert_memory` beside `co_occurs` and rebuilt by `from_dict`, so the
    snapshot never holds it. A walk reads an entity's neighbours from its
    own row, not from a scan of every edge.
    """

    def __init__(self):
        self.entities: dict[str, EntityNode] = {}          # key: casefolded name
        self.memories: dict[str, SemanticMemory] = {}
        self.entity_memories: dict[str, set[str]] = {}     # entity key -> memory ids
        self.co_occurs: dict[tuple[str, str], int] = {}    # sorted key pair -> weight
        self.adjacent: dict[str, dict[str, int]] = {}      # key -> neighbour key -> weight
        self._by_source_set: dict[frozenset[str], str] = {}
        self._next_memory_seq = 0
        self._importance_stale = False

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
        keys = []
        for name in names:
            self.touch_entity(name, created_at)
            key = self._key(name)
            self.entity_memories[key].add(mem_id)
            keys.append(key)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                pair = tuple(sorted((keys[i], keys[j])))
                if pair[0] != pair[1]:
                    self._add_edge(pair, self.co_occurs.get(pair, 0) + 1)
        self._importance_stale = True
        return mem

    def _add_edge(self, pair: tuple[str, str], weight: int) -> None:
        a, b = pair
        self.co_occurs[pair] = weight
        self.adjacent.setdefault(a, {})[b] = weight
        self.adjacent.setdefault(b, {})[a] = weight

    def replace_memory(self, mem: SemanticMemory) -> None:
        self.memories[mem.id] = mem

    def copy(self) -> "KnowledgeGraph":
        """A graph that shares this one's immutable nodes and memories but
        none of its containers."""
        g = KnowledgeGraph()
        g.entities = dict(self.entities)
        g.memories = dict(self.memories)
        g.entity_memories = {k: set(v) for k, v in self.entity_memories.items()}
        g.co_occurs = dict(self.co_occurs)
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

    def traverse(self, seed_entities: Iterable[str], max_hops: int = 2
                 ) -> list[tuple[SemanticMemory, int]]:
        """Breadth-first walk over the entity graph collecting attached
        memories; each memory is returned once at its minimal hop distance,
        the depth at which the walk first reaches it. Unknown seeds
        contribute nothing.

        Each level visits its entities in order (seeds as given, then each
        entity's `neighbors`), and the result is sorted once by (hops,
        memory id). The walk costs one `neighbors` row sort per entity
        expanded and O(1) per reached memory, not a scan of every edge."""
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        visited: set[str] = set()
        frontier: list[str] = []
        for name in seed_entities:
            key = self._key(name)
            if key in self.entities and key not in visited:
                visited.add(key)
                frontier.append(key)
        hops: dict[str, int] = {}
        depth = 0
        while frontier:
            for key in frontier:
                for mem_id in self.entity_memories.get(key, ()):
                    hops.setdefault(mem_id, depth)
            if depth >= max_hops:
                break
            depth += 1
            nxt: list[str] = []
            for key in frontier:
                for nkey, _w in self.neighbors(key):
                    if nkey not in visited:
                        visited.add(nkey)
                        nxt.append(nkey)
            frontier = nxt
        memories = self.memories
        return [(memories[mem_id], d)
                for d, mem_id in sorted((d, m) for m, d in hops.items())]

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
            g._add_edge((a, b), w)
        g._next_memory_seq = d["next_memory_seq"]
        return g
