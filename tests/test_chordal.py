import itertools
import random
from collections import Counter

import pytest

from mpartition import (
    Graph,
    canonical_key,
    enumerate_connected_chordal,
    is_chordal,
    random_chordal,
    to_graph6,
)
from mpartition.catalogue import FINITE_MINIMAL_TAGS, catalogue_graph
from mpartition.chordal import _lex_bfs, verify_hole
from mpartition.graph import bits

from auxiliary import complete_graph, cycle_graph, is_connected, path_graph


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def verify_peo(g, order):
    """Definition-level check: later neighbours of each vertex are a clique."""
    if sorted(order) != list(range(g.n)):
        return False
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    for v in range(g.n):
        later = [u for u in bits(g.adj[v]) if pos[u] > pos[v]]
        for i, a in enumerate(later):
            for b in later[i + 1:]:
                if not g.has_edge(a, b):
                    return False
    return True


def simplicial_peeling_empties(g):
    """Secondary chordality oracle: repeatedly delete simplicial vertices."""
    adj = list(g.adj)
    alive = (1 << g.n) - 1
    while alive:
        for v in bits(alive):
            nb = adj[v] & alive
            if all(
                adj[u] >> w & 1
                for u in bits(nb)
                for w in bits(nb)
                if u < w
            ):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


# -- recognition -------------------------------------------------------------


def test_chordal_examples():
    cert = is_chordal(complete_graph(4))
    assert cert and verify_peo(complete_graph(4), cert.peo)
    c4 = is_chordal(cycle_graph(4))
    assert not c4
    assert sorted(c4.hole) == [0, 1, 2, 3]
    assert verify_hole(cycle_graph(4), c4.hole)


def test_catalogue_graphs_are_chordal():
    for tag in FINITE_MINIMAL_TAGS:
        g = catalogue_graph(tag)
        cert = is_chordal(g)
        assert cert, f"{tag} must be chordal"
        assert verify_peo(g, cert.peo)


def test_chordality_certificates_on_random_graphs():
    for seed in range(150):
        g = random_graph(3 + seed % 8, 0.45, seed)
        cert = is_chordal(g)
        if cert:
            assert verify_peo(g, cert.peo)
        else:
            assert verify_hole(g, cert.hole)
        assert bool(cert) == simplicial_peeling_empties(g)


def test_long_holes_are_found():
    for k in (5, 6, 9):
        cert = is_chordal(cycle_graph(k))
        assert not cert and len(cert.hole) == k


def test_verify_peo_rejects_bad_orders():
    c4 = cycle_graph(4)
    assert not verify_peo(c4, (0, 1, 2, 3))
    assert not verify_peo(complete_graph(3), (0, 1))  # not a permutation


def test_lex_bfs_tie_breaking_is_lowest_id():
    # (order, PEO cliques, last failure of the PEO check, odd-depth
    # vertices, components with an edge)
    assert _lex_bfs(Graph(4)) == ([0, 1, 2, 3], [], None, 0, 0)
    assert _lex_bfs(complete_graph(3)) == ([0, 1, 2], [0b111], None, 0b110, 1)
    # a path 2-0-3 beside the isolated vertex 1 and the edge 4-5
    path = Graph(6, [(0, 2), (0, 3), (4, 5)])
    assert _lex_bfs(path) == ([0, 2, 3, 1, 4, 5], [], None, 0b101100, 2)


# -- random generation -------------------------------------------------------


def test_random_chordal_examples():
    assert random_chordal(1, 0.5, seed=1) == Graph(1)
    g = random_chordal(200, 0.5, seed=7)
    assert is_chordal(g) and is_connected(g)
    assert to_graph6(g) == to_graph6(random_chordal(200, 0.5, seed=7))
    with pytest.raises(ValueError):
        random_chordal(0)
    with pytest.raises(ValueError):
        random_chordal(5, 1.5)


def test_random_chordal_sweep():
    for seed in range(30):
        bias = (seed % 11) / 10
        g = random_chordal(2 + seed, bias, seed=seed)
        cert = is_chordal(g)
        assert cert and verify_peo(g, cert.peo)
        assert is_connected(g)


def test_random_chordal_is_symmetric_and_loop_free():
    # the generator builds its masks itself; rebuilding them from the edge
    # list through the validating constructor must give the same graph
    spread = itertools.product((1, 2, 7, 60, 150), (0.0, 0.3, 0.7, 1.0), range(3))
    for n, bias, seed in spread:
        g = random_chordal(n, bias, seed)
        assert g == Graph(n, g.edges())


# -- canonical forms ---------------------------------------------------------


def test_canonical_key_is_relabelling_invariant():
    rng = random.Random(5)
    for seed in range(40):
        g = random_chordal(1 + seed % 9, 0.4, seed=seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_key(g) == canonical_key(h)


def test_canonical_key_separates_non_isomorphic():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(path_graph(4)) != canonical_key(star)
    assert canonical_key(path_graph(4)) != canonical_key(cycle_graph(4))


# -- enumeration -------------------------------------------------------------


def test_enumeration_n3_exact():
    got = {canonical_key(g) for g in enumerate_connected_chordal(3)}
    expected = {
        canonical_key(Graph(1)),
        canonical_key(complete_graph(2)),
        canonical_key(path_graph(3)),
        canonical_key(complete_graph(3)),
    }
    assert got == expected


def test_enumeration_n4_membership():
    four = [g for g in enumerate_connected_chordal(4) if g.n == 4]
    keys = {canonical_key(g) for g in four}
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for member in (complete_graph(4), paw, path_graph(4), star):
        assert canonical_key(member) in keys
    assert canonical_key(cycle_graph(4)) not in keys
    assert len(four) == 5


def test_enumeration_guardrails():
    with pytest.raises(ValueError):
        list(enumerate_connected_chordal(0))
    with pytest.raises(ValueError):
        list(enumerate_connected_chordal(10))


def test_enumeration_emits_sound_graphs(corpus7):
    seen = set()
    for g in corpus7:
        cert = is_chordal(g)
        assert cert and verify_peo(g, cert.peo)
        assert is_connected(g)
        key = canonical_key(g)
        assert key not in seen, "duplicate isomorphism class"
        seen.add(key)
        assert to_graph6(g) == key  # emitted graphs are canonical forms


def brute_force_connected_chordal_keys(n):
    """Independent oracle: filter all labelled graphs on n vertices."""
    keys = set()
    pairs = list(itertools.combinations(range(n), 2))
    for bitsmask in range(1 << len(pairs)):
        g = Graph(n, [pairs[i] for i in range(len(pairs)) if bitsmask >> i & 1])
        if is_connected(g) and is_chordal(g):
            keys.add(canonical_key(g))
    return keys


def test_enumeration_completeness_small():
    # counts frozen from the brute-force filter below
    counts = Counter(g.n for g in enumerate_connected_chordal(5))
    assert counts == {1: 1, 2: 1, 3: 2, 4: 5, 5: 15}
    for n in (1, 2, 3, 4, 5):
        enumerated = {
            canonical_key(g)
            for g in enumerate_connected_chordal(n)
            if g.n == n
        }
        assert enumerated == brute_force_connected_chordal_keys(n)
