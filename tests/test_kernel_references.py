"""Differential tests of the bitset kernels against pairwise references.

The references below are the straightforward pair-scanning versions of
``lex_bfs``, the PEO check of ``is_chordal``, ``verify_assignment`` and
``induced``.  The library versions must return exactly the same orders,
holes, first violations and subgraphs on every input.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mpartition import (
    M1,
    Graph,
    Pattern,
    PartitionViolation,
    induced,
    is_chordal,
    random_chordal,
    solve_certifying,
    verify_assignment,
)
from mpartition.chordal import _find_hole, lex_bfs
from mpartition.graph import bits, disjoint_union
from mpartition.patterns import ONE, STAR

#: A pattern with clique parts (1 on the diagonal) and a 0 off it.
DIAG_ONE = Pattern.parse("1*0\n*01\n011")

MAX_N = 40


def ref_lex_bfs(g):
    n = g.n
    label = [[] for _ in range(n)]
    order = []
    unvisited = set(range(n))
    for step in range(n):
        v = max(unvisited, key=lambda u: (label[u], -u))
        unvisited.discard(v)
        order.append(v)
        for w in bits(g.adj[v]):
            if w in unvisited:
                label[w].append(n - step)
    return order


def ref_is_chordal(g):
    """(peo, hole) as the pairwise PEO check finds them."""
    peo = ref_lex_bfs(g)[::-1]
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    for v in peo:
        later = [u for u in bits(g.adj[v]) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        for w in later:
            if w != parent and not g.has_edge(parent, w):
                return None, _find_hole(g, hint=(v, parent, w))
    return tuple(peo), None


def ref_verify_assignment(g, pattern, assignment):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cell = pattern.cells[assignment[u]][assignment[v]]
            if cell == STAR:
                continue
            if (cell == ONE) != g.has_edge(u, v):
                return PartitionViolation(u, v, assignment[u], assignment[v], cell)
    return None


def ref_induced(g, s):
    keep = sorted(set(s))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for i, u in enumerate(keep)
        for v in keep[i + 1:]
        if g.has_edge(u, v)
    ]
    return Graph(len(keep), edges)


@st.composite
def arbitrary_graphs(draw):
    """Any simple graph on 0..MAX_N vertices: sparse, or the complement of
    a sparse one, so empty, disconnected, dense and holed graphs occur."""
    n = draw(st.integers(0, MAX_N))
    if n < 2:
        return Graph(n)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=3 * n,
        )
    )
    g = Graph(n, pairs)
    if draw(st.booleans()):
        full = (1 << n) - 1
        g = Graph(n, [(u, v) for u in range(n)
                      for v in bits(full & ~g.adj[u] & ~((1 << (u + 1)) - 1))])
    return g


@st.composite
def chordal_graphs(draw):
    """random_chordal graphs, alone or as a disjoint union of two."""
    def one(max_n):
        return random_chordal(
            draw(st.integers(1, max_n)),
            draw(st.floats(0.0, 1.0)),
            draw(st.integers(0, 2**32)),
        )

    g = one(MAX_N)
    if draw(st.booleans()):
        g = disjoint_union(g, one(MAX_N // 4))
    return g


@st.composite
def near_chordal_graphs(draw):
    """A random_chordal graph with one to three edges added: mostly holed,
    with the first PEO failure anywhere in the order."""
    g = draw(chordal_graphs())
    if g.n < 4:
        return g
    vertex = st.integers(0, g.n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    return Graph(g.n, g.edges() + [(u, v) for u, v in extra if u != v])


any_graphs = st.one_of(arbitrary_graphs(), chordal_graphs(), near_chordal_graphs())


@settings(max_examples=300, deadline=None)
@given(any_graphs)
def test_lex_bfs_matches_reference(g):
    assert lex_bfs(g) == ref_lex_bfs(g)


@settings(max_examples=300, deadline=None)
@given(any_graphs)
def test_is_chordal_matches_reference(g):
    cert = is_chordal(g)
    assert (cert.peo, cert.hole) == ref_is_chordal(g)


@st.composite
def planted_assignments(draw, pattern):
    """An assignment and a graph built to satisfy it, with one to three
    vertex pairs then toggled, so violations fall anywhere."""
    n = draw(st.integers(0, MAX_N))
    assignment = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = draw(st.randoms(use_true_random=False))
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            cell = pattern.cells[assignment[u]][assignment[v]]
            if cell == ONE or (cell == STAR and rng.random() < 0.3):
                edges.add((u, v))
    if n >= 2:
        vertex = st.integers(0, n - 1)
        toggled = st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3)
        for u, v in draw(toggled):
            if u != v:
                edges ^= {(min(u, v), max(u, v))}
    return Graph(n, edges), assignment


@st.composite
def assignment_cases(draw):
    """(graph, pattern, assignment): planted, a solver's yes-partition with
    at most one vertex moved, or arbitrary."""
    pattern = draw(st.sampled_from([M1, DIAG_ONE]))
    how = draw(st.sampled_from(["planted", "solver", "arbitrary"]))
    if how == "planted":
        return (pattern, *draw(planted_assignments(pattern)))
    g = draw(any_graphs)
    assignment = None
    if how == "solver" and is_chordal(g):
        assignment = solve_certifying(g).assignment
    if assignment is None:
        return pattern, g, draw(
            st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)
        )
    assignment = list(assignment)
    if g.n and draw(st.booleans()):
        assignment[draw(st.integers(0, g.n - 1))] = draw(st.integers(0, 2))
    return pattern, g, assignment


@settings(max_examples=400, deadline=None)
@given(assignment_cases())
def test_verify_assignment_matches_reference(case):
    pattern, g, assignment = case
    assert verify_assignment(g, pattern, assignment) == ref_verify_assignment(
        g, pattern, assignment
    )


@settings(max_examples=300, deadline=None)
@given(any_graphs, st.data())
def test_induced_matches_reference(g, data):
    s = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    sub = induced(g, s)
    assert sub == ref_induced(g, s)
