"""Differential tests of the bitset kernels against pairwise references.

The references below are the straightforward pair-scanning versions of
``lex_bfs``, the PEO check of ``is_chordal``, ``verify_assignment`` and
``induced``, and the bit-at-a-time graph6 codec.  The library versions
must return exactly the same orders, holes, first violations, subgraphs,
graph6 text and decode errors on every input.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from mpartition import (
    M1,
    Graph,
    Graph6Error,
    Pattern,
    PartitionViolation,
    from_graph6,
    induced,
    is_chordal,
    random_chordal,
    solve_certifying,
    to_graph6,
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


def ref_to_graph6(g):
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(
        chr((n >> s & 63) + 63) for s in (12, 6, 0)
    )
    bitstream = 0
    npairs = 0
    for j in range(1, n):
        for i in range(j):
            bitstream = (bitstream << 1) | (g.adj[i] >> j & 1)
            npairs += 1
    pad = (-npairs) % 6
    bitstream <<= pad
    return head + "".join(
        chr((bitstream >> s & 63) + 63) for s in range(npairs + pad - 6, -1, -6)
    )


def ref_from_graph6(text):
    s = text.strip()
    lead = text.find(s)  # 0 when s is empty
    if s.startswith(">>graph6<<"):
        s = s[10:]
        lead += 10

    def fail(message, offset):
        return Graph6Error(message, lead + offset)

    if not s:
        raise fail("empty graph6 string", 0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise fail("non-ASCII character", exc.start) from None
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise fail("8-byte size form (n > 258047) not supported", 0)
        if len(data) < 4:
            raise fail("truncated long-form size header", len(data))
        n = 0
        for i in range(1, 4):
            if not 63 <= data[i] <= 126:
                raise fail(f"illegal size byte {data[i]:#x}", i)
            n = (n << 6) | (data[i] - 63)
        if n <= 62:
            raise fail("long-form size header used for n <= 62", 0)
        pos = 4
    else:
        if not 63 <= data[0] <= 126:
            raise fail(f"illegal size byte {data[0]:#x}", 0)
        n = data[0] - 63
        pos = 1
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(data) - pos < nbytes:
        raise fail(
            f"truncated bit field: need {nbytes} bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise fail("trailing bytes after bit field", pos + nbytes)
    bitstream = 0
    for i in range(nbytes):
        byte = data[pos + i]
        if not 63 <= byte <= 126:
            raise fail(f"illegal character {byte:#x} in bit field", pos + i)
        bitstream = (bitstream << 6) | (byte - 63)
    pad = nbytes * 6 - npairs
    if pad and bitstream & ((1 << pad) - 1):
        raise fail("nonzero padding bits", pos + nbytes - 1)
    bitstream >>= pad
    edges = []
    shift = npairs - 1
    for j in range(1, n):
        for i in range(j):
            if bitstream >> shift & 1:
                edges.append((i, j))
            shift -= 1
    return Graph(n, edges)


def nx_graph6(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nx.to_graph6_bytes(nxg, header=False).rstrip().decode("ascii")


def decode_outcome(decode, text):
    """The graph decoded, or the error's text and offset."""
    try:
        return decode(text)
    except Graph6Error as exc:
        return str(exc), exc.offset


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


G6_MAX_N = 130  # past the 62/63 header boundary; every padding of 0-5 bits


@st.composite
def codec_graphs(draw):
    n = draw(st.integers(0, G6_MAX_N))
    return random_graph(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))


def check_codec(g, with_reference=True):
    text = to_graph6(g)
    assert from_graph6(text) == g
    if with_reference:
        assert text == ref_to_graph6(g)
        assert ref_from_graph6(text) == g
    assert text == nx_graph6(g)
    back = nx.from_graph6_bytes(text.encode("ascii"))
    assert sorted(tuple(sorted(e)) for e in back.edges()) == g.edges()


def test_graph6_codec_matches_references_at_every_n():
    for n in range(G6_MAX_N + 1):
        check_codec(random_graph(n, 0.5, n))


def test_graph6_large_round_trip_matches_networkx():
    # the bit-at-a-time reference would take minutes here
    check_codec(random_chordal(2000, 0.5, 1), with_reference=False)


@settings(max_examples=200, deadline=None)
@given(codec_graphs())
def test_graph6_codec_matches_references(g):
    check_codec(g)


#: Characters a mutation writes: the whole ASCII range (printable graph6
#: digits, '~', whitespace, controls), a non-ASCII letter and a non-ASCII
#: space that str.strip() removes.
MUTATION_CHARS = st.one_of(
    st.characters(max_codepoint=127), st.sampled_from("\u00e9\u2003")
)


@settings(max_examples=500, deadline=None)
@given(codec_graphs(), st.data())
def test_graph6_decoder_rejects_like_reference(g, data):
    text = data.draw(st.sampled_from(["", ">>graph6<<", " "])) + to_graph6(g)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        c = data.draw(MUTATION_CHARS)
        if op == "insert":
            text = text[:at] + c + text[at:]
        elif at < len(text):
            text = text[:at] + (c if op == "replace" else "") + text[at + 1:]
    assert decode_outcome(from_graph6, text) == decode_outcome(ref_from_graph6, text)
