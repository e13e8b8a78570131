import copy
import gc
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpartition import (
    M1,
    Graph,
    Graph6Error,
    NotChordalError,
    components,
    contains_induced,
    fan,
    from_edgelist,
    from_graph6,
    induced,
    is_bipartite,
    is_chordal,
    is_isomorphic,
    random_chordal,
    solve_certifying,
    to_dot,
    to_edgelist,
    to_graph6,
)

from auxiliary import (
    complete_graph,
    contains_subgraph,
    cycle_graph,
    disjoint_union,
    path_graph,
)


def brute_force_isomorphic(a, b):
    """Independent oracle: try every vertex bijection."""
    if a.n != b.n:
        return False
    ea = set(a.edges())
    for perm in itertools.permutations(range(b.n)):
        if ea == {tuple(sorted((perm[u], perm[v]))) for u, v in b.edges()}:
            return True
    return False


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


# -- construction invariants -------------------------------------------------


def test_adjacency_is_symmetric_and_deduplicated():
    g = Graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert g.degree(1) == 2


def test_self_loops_and_bad_vertices_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5
    assert hash(g) == hash(Graph(2, [(1, 0)]))


def test_values_survive_pickling():
    # multiprocessing pickles the values a census hands between workers
    g = fan(2)
    assert copy.copy(g) == copy.deepcopy(g) == g
    values = [g, solve_certifying(g), solve_certifying(path_graph(4)),
              is_chordal(g), is_chordal(cycle_graph(4)), M1]
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(Graph6Error) as err:
        from_graph6("Ch!")
    errors = [err.value, NotChordalError((0, 1, 2, 3))]
    for exc in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), str(back), vars(back)) == (type(exc), str(exc), vars(exc))
    assert str(errors[0]) == "trailing bytes after bit field (byte offset 2)"
    assert errors[0].offset == 2
    assert str(errors[1]) == "graph is not chordal: chordless cycle [0, 1, 2, 3]"
    assert errors[1].hole == (0, 1, 2, 3)


# -- graph6 ------------------------------------------------------------------


def test_graph6_frozen_decodes():
    # hand bit-expansion: '?' = 000000 and '{' = 111100 light up the last
    # four pairs of the 5-vertex column order, i.e. the star around vertex 4
    assert from_graph6("D?{").edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    # 'W' = 011000 -> pairs (0,2), (1,2): a 3-vertex path centred at 2
    assert from_graph6("BW").edges() == [(0, 2), (1, 2)]
    assert from_graph6("@") == Graph(1)
    assert from_graph6(">>graph6<<@") == Graph(1)


def test_graph6_frozen_encodes():
    assert to_graph6(Graph(1)) == "@"
    assert to_graph6(complete_graph(3)) == "Bw"
    k3 = from_graph6(to_graph6(complete_graph(3)))
    assert k3 == complete_graph(3)


def test_graph6_round_trip_small_random():
    for seed in range(40):
        g = random_graph(seed % 9, 0.4, seed)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_round_trip_on_strings(corpus7):
    for g in corpus7:
        s = to_graph6(g)
        assert to_graph6(from_graph6(s)) == s


def test_graph6_long_form():
    for n in (63, 100):
        g = random_graph(n, 0.05, n)
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g


def test_graph6_encoding_refuses_past_the_limit():
    with pytest.raises(ValueError, match="only for n <= 258047"):
        to_graph6(Graph(258048))


def test_graph6_codec_memory_is_linear_in_the_text():
    # each direction may hold a few copies of the text and the adjacency
    # bitsets, but nothing of one byte or more per vertex pair
    g = random_chordal(4000, 0.99, 1)
    text = to_graph6(g)
    for name, call in (("to_graph6", lambda: to_graph6(g)),
                       ("from_graph6", lambda: from_graph6(text))):
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text), (name, peak, len(text))


LONG_63 = "~??~"  # long-form header of a 63-vertex graph: 326 field bytes


GRAPH6_ERRORS = [
    ("", "empty graph6 string", 0),
    ("B", "truncated bit field: need 1 bytes, have 0", 1),
    ("BWW", "trailing bytes after bit field", 2),
    # str.strip() removes \x1c-\x1f, so this one is only truncated
    ("B\x1f", "truncated bit field: need 1 bytes, have 0", 1),
    ("B!", "illegal character 0x21 in bit field", 1),
    (LONG_63 + "?" * 100 + "!" + "?" * 225,
     "illegal character 0x21 in bit field", 104),
    (LONG_63 + "?" * 325, "truncated bit field: need 326 bytes, have 325", 329),
    ("!", "illegal size byte 0x21", 0),
    ("~?!?", "illegal size byte 0x21", 2),
    ("~?", "truncated long-form size header", 2),
    ("~??B", "long-form size header used for n <= 62", 0),
    ("~~??????", "8-byte size form (n > 258047) not supported", 0),
    ("Bc", "nonzero padding bits", 1),  # 'c' = 100100, pairs need 3 bits
    ("B\u00e9", "non-ASCII character", 1),
    # offsets index the text as passed, header and whitespace included
    (">>graph6<<BWW", "trailing bytes after bit field", 12),
    ("  BWW\n", "trailing bytes after bit field", 4),
    (" >>graph6<<~?!?", "illegal size byte 0x21", 13),
    (">>graph6<<", "empty graph6 string", 10),
]


@pytest.mark.parametrize(
    "text, message, offset",
    GRAPH6_ERRORS,
    ids=[t if len(t) < 20 else f"{t[:4]}+{len(t) - 4}" for t, _, _ in GRAPH6_ERRORS],
)
def test_graph6_errors(text, message, offset):
    with pytest.raises(Graph6Error) as err:
        from_graph6(text)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


# -- edge lists and DOT ------------------------------------------------------


def test_edgelist_round_trip():
    g = fan(2)
    assert from_edgelist(to_edgelist(g)) == g
    assert to_edgelist(Graph(3)).splitlines()[0] == "3 0"
    with pytest.raises(ValueError):
        from_edgelist("2 1\n")
    with pytest.raises(ValueError):
        from_edgelist("junk\n")


@st.composite
def edge_texts(draw):
    """An edge-list text and its edges, with pairs repeated and reversed."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=30))
    edges = pairs + draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    return text, n, edges


@given(edge_texts())
def test_edgelist_parse_matches_the_constructor(case):
    text, n, edges = case
    assert from_edgelist(text) == Graph(n, edges)


def test_edgelist_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        from_edgelist("-1 0\n")


def test_dot_emission():
    dot = to_dot(path_graph(3))
    assert dot == "graph {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"


# -- induced subgraphs -------------------------------------------------------


def test_induced_examples():
    k4 = complete_graph(4)
    assert induced(k4, {0, 1, 3}) == complete_graph(3)
    c4 = cycle_graph(4)
    assert is_isomorphic(induced(c4, {0, 1, 2}), path_graph(3))
    g = fan(3)
    assert induced(g, range(g.n)) == g
    with pytest.raises(ValueError):
        induced(k4, {0, 9})


def test_induced_relabelling_preserves_order():
    g = Graph(5, [(1, 3), (3, 4)])
    sub = induced(g, {1, 3, 4})
    assert sub.edges() == [(0, 1), (1, 2)]


# -- pattern search ----------------------------------------------------------


def test_contains_induced_examples():
    k4, k3 = complete_graph(4), complete_graph(3)
    witness = contains_induced(k4, k3)
    assert witness is not None and len(witness) == 3
    assert contains_induced(cycle_graph(4), k3) is None
    assert contains_induced(fan(2), k4) is None


def test_contains_induced_witness_is_isomorphic(corpus7):
    h = Graph(4, [(0, 1), (1, 2), (2, 3)])  # P4
    for g in corpus7[::7]:
        witness = contains_induced(g, h)
        if witness is not None:
            assert brute_force_isomorphic(induced(g, witness), h)


def test_contains_induced_agrees_with_subset_scan():
    patterns = [
        complete_graph(3),
        path_graph(4),
        cycle_graph(4),
        Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    ]
    for seed in range(60):
        g = random_graph(4 + seed % 4, 0.45, 100 + seed)
        for h in patterns:
            found = contains_induced(g, h)
            brute = any(
                brute_force_isomorphic(induced(g, set(sub)), h)
                for sub in itertools.combinations(range(g.n), h.n)
            )
            assert (found is not None) == brute
            if found is not None:
                assert brute_force_isomorphic(induced(g, found), h)


def test_contains_subgraph_examples():
    mapping = contains_subgraph(complete_graph(4), cycle_graph(4))
    assert mapping is not None
    # injective and edge-preserving
    assert len(set(mapping.values())) == 4
    for u, v in cycle_graph(4).edges():
        assert complete_graph(4).has_edge(mapping[u], mapping[v])
    tree = path_graph(5)
    assert contains_subgraph(tree, complete_graph(3)) is None
    f5 = Graph(6, [(0, 1), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (3, 4),
                   (3, 5), (4, 5)])
    self_map = contains_subgraph(f5, f5)
    assert self_map is not None and len(set(self_map.values())) == 6


def test_subgraph_but_not_induced():
    assert contains_subgraph(complete_graph(4), cycle_graph(4)) is not None
    assert contains_induced(complete_graph(4), cycle_graph(4)) is None


# -- bipartiteness -----------------------------------------------------------


def test_bipartite_examples():
    res = is_bipartite(cycle_graph(4))
    assert res and res.colouring is not None
    assert res.colouring[0] != res.colouring[1]
    tri = is_bipartite(complete_graph(3))
    assert not tri and len(tri.odd_cycle) == 3
    empty = is_bipartite(Graph(0))
    assert empty and empty.colouring == ()


def test_bipartite_certificates_check_out():
    for seed in range(80):
        g = random_graph(3 + seed % 8, 0.35, 200 + seed)
        res = is_bipartite(g)
        if res:
            for u, v in g.edges():
                assert res.colouring[u] != res.colouring[v]
        else:
            cycle = res.odd_cycle
            assert len(cycle) % 2 == 1
            assert len(set(cycle)) == len(cycle)
            for i in range(len(cycle)):
                assert g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)])


# -- components --------------------------------------------------------------


def test_components_examples():
    g = disjoint_union(complete_graph(3), complete_graph(2))
    comps = components(g)
    assert sorted(len(c) for c in comps) == [2, 3]
    assert components(path_graph(4)) == [frozenset({0, 1, 2, 3})]
    assert components(Graph(0)) == []
