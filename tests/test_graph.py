import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from engram.codec import encode
from engram.embedding import HashEmbedder
from engram.errors import NegativeElapsed
from engram.graph import (
    EntityNode,
    KnowledgeGraph,
    QueryState,
    SemanticMemory,
    activation,
    extract_entities,
    priming_weight,
)
from engram.model import StoreConfig, evolve

from conftest import T0, hours, roundtrip
from oracles import (
    neighbors_by_edge_scan,
    query_state_view,
    reference_extract_entities,
    traverse_by_edge_scan,
)

EMB = HashEmbedder(256, 0)


# -- entity extraction ----------------------------------------------------

def test_extract_basic_names():
    assert set(extract_entities("I met Alice in Paris")) == {"Alice", "Paris"}


def test_extract_sentence_initial_stopword_excluded():
    assert extract_entities("The cat sat") == ()


def test_extract_multiword_run():
    assert extract_entities("ship it to New York City today") == \
        ("New York City",)


def test_extract_refs_and_mentions():
    out = extract_entities("ping @alice about #482 and also Bob")
    assert set(out) == {"@alice", "#482", "Bob"}


def test_extract_deduplicates_preserving_order():
    out = extract_entities("Alice met Bob. Alice left.")
    assert out == ("Alice", "Bob")


# capitalised words, stopword openers in both cases, mentions and refs,
# lowercase and non-ASCII words, and apostrophes and hyphens inside words
_ENTITY_WORDS = ["Alice", "Bob", "New", "York", "X", "Zoe", "O'Neil", "Jean-Luc",
                 "The", "the", "And", "and", "It", "Yes", "@bob", "#482", "@Alice",
                 "#Q3-plan", "met", "paris", "it's", "école", "Émile", "x2", "42"]


@given(sentences=st.lists(
    st.tuples(st.lists(st.sampled_from(_ENTITY_WORDS), min_size=1, max_size=6),
              st.sampled_from([". ", "! ", "? ", "\n", "...", ", ", " ", "?!\n"])),
    max_size=6))
def test_extract_equals_the_reference(sentences):
    """Runs of one token and longer, broken by mentions and refs inside
    them, by lowercase words and by sentence punctuation: the same
    entities, in the same order, as the reference scan."""
    content = "".join(" ".join(words) + end for words, end in sentences)
    assert extract_entities(content) == reference_extract_entities(content)


# -- maturation sigmoid ---------------------------------------------------

def test_activation_curve_values():
    # 1 / (1 + exp(-(t-168)/48))
    assert activation(T0, T0, 168.0, 48.0) == pytest.approx(0.0293, abs=5e-4)
    assert activation(T0, T0 + hours(168), 168.0, 48.0) == pytest.approx(0.5)
    assert activation(T0, T0 + hours(336), 168.0, 48.0) > 0.9


def test_activation_symmetry_around_midpoint():
    lo = activation(T0, T0 + hours(168 - 24), 168.0, 48.0)
    hi = activation(T0, T0 + hours(168 + 24), 168.0, 48.0)
    assert lo + hi == pytest.approx(1.0)


def test_activation_rejects_negative_age():
    with pytest.raises(NegativeElapsed):
        activation(T0, T0 - hours(1), 168.0, 48.0)


def test_maturation_disabled_short_circuits():
    g = KnowledgeGraph()
    mem = g.insert_memory("gist", EMB.embed("gist"), frozenset({"e"}),
                          ("Alice",), T0)
    config = StoreConfig(maturation_enabled=False)
    assert mem.activation(T0, config) == 1.0
    assert priming_weight(mem.created_at, T0, config) == 0.0


def test_silent_memory_primes_until_mature():
    g = KnowledgeGraph()
    mem = g.insert_memory("gist", EMB.embed("gist"), frozenset({"e"}),
                          ("Alice",), T0)
    config = StoreConfig()
    assert priming_weight(mem.created_at, T0, config) == pytest.approx(0.0293, abs=5e-4)
    later = T0 + hours(400)
    assert priming_weight(mem.created_at, later, config) == 0.0


# -- graph structure ------------------------------------------------------

def _tri_graph():
    """A - B share m1; B - C share m2; A also alone on m3."""
    g = KnowledgeGraph()
    g.insert_memory("ab", EMB.embed("ab"), frozenset({"s1"}), ("A", "B"), T0)
    g.insert_memory("bc", EMB.embed("bc"), frozenset({"s2"}), ("B", "C"), T0)
    g.insert_memory("a", EMB.embed("a"), frozenset({"s3"}), ("A",), T0)
    return g


def test_insert_idempotent_on_source_set():
    g = KnowledgeGraph()
    m1 = g.insert_memory("gist", EMB.embed("gist"), frozenset({"x", "y"}),
                         ("Alice",), T0)
    m2 = g.insert_memory("other text", EMB.embed("other"), frozenset({"y", "x"}),
                         ("Bob",), T0 + hours(1))
    assert m1 is m2
    assert len(g.memories) == 1


def test_entity_keys_casefolded():
    g = KnowledgeGraph()
    g.insert_memory("a", EMB.embed("a"), frozenset({"s1"}), ("Alice",), T0)
    g.insert_memory("b", EMB.embed("b"), frozenset({"s2"}), ("ALICE",), T0)
    assert len(g.entities) == 1
    assert g.entities["alice"].name == "Alice"  # first-seen display form


def test_case_variants_of_a_name_add_one_to_an_edge():
    """A memory naming "Bob", "BOB" and "Eve" co-occurs bob with eve once:
    each pair of case-folded names counts once per memory, and no name
    co-occurs with itself."""
    g = KnowledgeGraph()
    g.insert_memory("m", EMB.embed("m"), frozenset({"s1"}), ("Bob", "BOB", "Eve"), T0)
    assert g.co_occurs == {("bob", "eve"): 1}
    assert g.adjacent == {"bob": {"eve": 1}, "eve": {"bob": 1}}
    g.insert_memory("n", EMB.embed("n"), frozenset({"s2"}), ("eve", "Bob"), T0)
    assert g.co_occurs == {("bob", "eve"): 2}


def test_entity_importance_degree_normalized():
    g = _tri_graph()
    # degrees: B = 2 mentions + 2 co-occur = 4 (max); A = 2 + 1 = 3; C = 1 + 1 = 2
    assert g.entity_importance("B") == 1.0
    assert g.entity_importance("A") == pytest.approx(3 / 4)
    assert g.entity_importance("C") == pytest.approx(2 / 4)
    assert g.entity_importance("missing") == 0.0


def test_importance_is_recomputed_once_before_the_next_read():
    """An insert only marks importance stale; a snapshot, and a snapshot of
    a copy taken while stale, see the values of a recompute after the last
    insert."""
    eager = _tri_graph()
    eager.recompute_importance()
    lazy = _tri_graph()
    assert encode(lazy.copy().snapshot_state()) == encode(eager.snapshot_state())
    assert encode(lazy.snapshot_state()) == encode(eager.snapshot_state())
    assert [n.importance for n in lazy.entities.values()] == [0.75, 1.0, 0.5]


def test_neighbors_sorted_by_weight_then_name():
    g = _tri_graph()
    g.insert_memory("ab2", EMB.embed("ab2"), frozenset({"s4"}), ("A", "B"), T0)
    assert g.neighbors("b") == [("a", 2), ("c", 1)]


def test_traverse_hop_distances():
    g = _tri_graph()
    results = {m.gist: hops for m, hops in g.traverse(["A"], max_hops=2)}
    # A's own memories at hop 0, B's at 1, C's at 2
    assert results["ab"] == 0
    assert results["a"] == 0
    assert results["bc"] == 1


def test_traverse_respects_max_hops():
    g = _tri_graph()
    gists = {m.gist for m, _ in g.traverse(["C"], max_hops=1)}
    assert gists == {"bc", "ab"}  # memory "a" is two entity-hops away
    gists2 = {m.gist for m, _ in g.traverse(["C"], max_hops=2)}
    assert gists2 == {"bc", "ab", "a"}


def test_traverse_unknown_seed():
    assert _tri_graph().traverse(["Nobody"]) == []
    with pytest.raises(ValueError):
        _tri_graph().traverse(["A"], max_hops=0)


def test_graph_serde_roundtrip():
    g = _tri_graph()
    state = encode(g.snapshot_state())
    again = KnowledgeGraph.from_dict(json.loads(json.dumps(state)))
    assert encode(again.snapshot_state()) == state
    for node in g.entities.values():
        roundtrip(EntityNode, node)
    for mem in g.memories.values():
        assert roundtrip(SemanticMemory, mem).source_ids == mem.source_ids
    # idempotence keys survive the round trip
    m = again.insert_memory("dup", EMB.embed("dup"), frozenset({"s1"}),
                            ("A",), T0)
    assert m.gist == "ab"


# -- adjacency map ----------------------------------------------------------

def test_insert_into_a_copy_leaves_the_original_unchanged():
    g = _tri_graph()
    before = {key: g.neighbors(key) for key in g.entities}
    rows = {key: dict(row) for key, row in g.adjacent.items()}
    c = g.copy()
    c.insert_memory("abd", EMB.embed("abd"), frozenset({"s9"}), ("A", "B", "D"), T0)
    assert {key: g.neighbors(key) for key in g.entities} == before
    assert g.adjacent == rows and "d" not in g.adjacent
    assert c.neighbors("a") == [("b", 2), ("d", 1)]


def test_from_dict_rebuilds_the_adjacency_map():
    g = _tri_graph()
    g.insert_memory("ab2", EMB.embed("ab2"), frozenset({"s4"}), ("A", "B"), T0)
    again = KnowledgeGraph.from_dict(json.loads(json.dumps(encode(g.snapshot_state()))))
    assert again.adjacent == g.adjacent == {"a": {"b": 2}, "b": {"a": 2, "c": 1},
                                            "c": {"b": 1}}


@pytest.mark.parametrize("edge", [["b", "a", 1], ["a", "a", 1], ["a", "nobody", 1]],
                         ids=["unsorted", "self-loop", "unknown-entity"])
def test_from_dict_refuses_an_edge_it_would_not_write(edge):
    """The snapshot's edge list is read off the adjacency map, so a pair
    that the map cannot give back would not survive a save."""
    state = json.loads(json.dumps(encode(_tri_graph().snapshot_state())))
    state["co_occurs"].append(edge)
    with pytest.raises(ValueError):
        KnowledgeGraph.from_dict(state)


def test_neighbors_of_an_unknown_key_is_empty():
    assert _tri_graph().neighbors("nobody") == []
    assert KnowledgeGraph().neighbors("a") == []


NAMES = ["A", "b", "B", "C", "D", "E", "Fox", "fox", "G"]


@given(memories=st.lists(st.lists(st.sampled_from(NAMES), max_size=4), max_size=12),
       seeds=st.lists(st.sampled_from(NAMES + ["Nobody"]), max_size=4),
       max_hops=st.integers(1, 4))
def test_traverse_equals_the_edge_scan(memories, seeds, max_hops):
    """On random graphs (case variants of a name, repeats, memories with
    no entity) the walk over the adjacency map returns the memories, hops
    and order of the walk that scanned every edge."""
    g = KnowledgeGraph()
    for i, names in enumerate(memories):
        g.insert_memory(f"m{i}", EMB.embed(f"m{i}"), frozenset({f"s{i}"}), names,
                        T0 + hours(i))
    got = [(m.id, hops) for m, hops in g.traverse(seeds, max_hops)]
    assert got == [(m.id, hops) for m, hops in traverse_by_edge_scan(g, seeds, max_hops)]
    for key in g.entities:
        assert g.neighbors(key) == neighbors_by_edge_scan(g, key)


# -- query state --------------------------------------------------------------

def test_walk_levels_are_the_traversal_by_hops():
    g = _tri_graph()
    levels = g.walk(["A"], max_hops=2)
    by_id = {m.id: m.gist for m in g.memories.values()}
    # C, two hops away, adds no memory the walk has not met
    assert [{by_id[m] for m in level} for level in levels] == [{"ab", "a"}, {"bc"}, set()]
    assert g.walk(["Nobody"]) == []


def test_query_state_follows_inserts_and_replacements():
    """The query state a graph keeps current equals one built from its
    memories, after inserts that open a new sleep group or join one and a
    replaced embedding; a copy and a loaded graph build their own."""
    g = _tri_graph()
    state = g.query_state()
    assert list(state.groups) == [T0]
    g.insert_memory("ca", EMB.embed("ca"), frozenset({"s1", "s9"}), ("C", "A"), T0)
    g.insert_memory("d", EMB.embed("d"), frozenset({"s8"}), ("D",), T0 + hours(5))
    mem = g.memories["sem-000000"]
    g.replace_memory(evolve(mem, gist="ab2", embedding=EMB.embed("ab2"), access_count=3))
    assert g.query_state() is state
    assert query_state_view(state) == query_state_view(QueryState(g.memories.values()))
    assert state.groups[T0].keys == {"a", "b", "c"}
    assert state.by_source["s1"] == {"sem-000000", "sem-000003"}
    assert state.shared == {"sem-000000", "sem-000003"}
    assert g.copy()._query is None
    again = KnowledgeGraph.from_dict(json.loads(json.dumps(encode(g.snapshot_state()))))
    assert query_state_view(again.query_state()) == query_state_view(state)


def test_a_first_memory_sets_the_dimension_of_an_empty_query_state():
    g = KnowledgeGraph()
    assert g.query_state().groups == {}
    mem = g.insert_memory("a", EMB.embed("a"), frozenset({"s1"}), ("A",), T0)
    assert g.query_state().embeddings.matrix.shape[0] == 256
    assert query_state_view(g.query_state()) == query_state_view(QueryState([mem]))


@pytest.mark.parametrize("change", [
    dict(created_at=T0 + hours(2)),
    dict(entities=("A", "C")),
    dict(source_ids=frozenset({"s1", "s2"})),
])
def test_replace_memory_refuses_what_the_query_state_keys_on(change):
    g = _tri_graph()
    state = query_state_view(g.query_state())
    mem = g.memories["sem-000000"]
    with pytest.raises(ValueError):
        g.replace_memory(evolve(mem, **change))
    with pytest.raises(ValueError):
        g.replace_memory(evolve(mem, id="sem-999999"))
    assert g.memories["sem-000000"] is mem
    assert query_state_view(g.query_state()) == state
