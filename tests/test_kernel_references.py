"""Differential tests of the bitset kernels against pairwise references.

The references below are the straightforward pair-scanning versions of
LexBFS, the PEO check of ``is_chordal``, ``verify_assignment`` and
``induced``, the partition-refinement LexBFS followed by a separate
reversed PEO pass (now one sweep), the bit-at-a-time graph6 codec, the
case analysis that scanned for triangles and K4s and ran one BFS variant
per need, and the colour/parent-list bipartiteness test, the dict-parent
hole search, the pairwise hole check, the pattern order built with a
pair scan per step, the embedding search that tested its pattern's edge
to every earlier step at every node, the catalogue scan that tried every
fan with at most n vertices, the canonical labelling that tried every
order of twins, the enumeration that attached a vertex to every clique
and labelled every child, the simplicial vertices found pair by pair,
and the hub branch that walked its spokes and outer vertices one at a
time and searched each spoke tree from its lowest vertex, the reading of
a yes certificate's parts vertex by vertex, and the certificate reader
that tested the parts' cover with one sort and filled the assignment in
C before it named a fault vertex by vertex.
The library versions must return exactly the same orders, holes, first
violations, subgraphs, graph6 text, decode errors, triangles, K4s,
bipartizer sets, colourings, certificate JSON, embeddings, scan
witnesses, canonical keys and read certificates or reasons on every
input; odd cycles and holes found by a layer search need only be valid
and, for holes, as long as the reference's.
"""

import importlib.util
import io
import itertools
import json
import math
import random
import sys
from collections import Counter, deque
from functools import reduce
from itertools import chain, repeat
from operator import and_, or_
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpartition import (
    M1,
    Graph,
    Graph6Error,
    M1Certificate,
    ObstructionKind,
    VertexSet,
    bipartizer_set,
    canonical_key,
    components,
    contains_induced,
    enumerate_connected_chordal,
    fan,
    fan_kind,
    find_obstruction_by_scan,
    is_bipartite,
    Pattern,
    PartitionViolation,
    from_graph6,
    induced,
    is_chordal,
    random_chordal,
    solve_certifying,
    solve_one_bipartizer,
    to_graph6,
    verify_assignment,
    verify_certificate,
)
from mpartition.catalogue import FINITE_MINIMAL_TAGS, catalogue_graph
from mpartition.cli import _InputError, _is_int_list, _read_certificate
from mpartition.chordal import (
    ChordalityCertificate,
    _canonical_columns,
    _child_simplicial,
    _from_columns,
    _hole_through,
    _lex_bfs,
    _least_simplicial,
    _nonempty_cliques,
    _refinement_classes,
    _simplicial,
    verify_hole,
)
from mpartition.graph import (
    BipartitenessCertificate,
    _embed,
    _pattern_order,
    bfs_layers,
    bits,
    first_edge,
    forest,
    lowest,
    selector,
    tree_path,
)
from mpartition.solver import (
    Witness,
    _disjoint_triangle_witness,
    _first_clique,
    _no,
    _tree_edge,
    _triangle_witness,
    _yes,
)
from mpartition.patterns import ONE, STAR, _cells_hold

from auxiliary import complete_graph, cycle_graph, disjoint_union, path_graph

#: A pattern with clique parts (1 on the diagonal) and a 0 off it.
DIAG_ONE = Pattern.parse("1*0\n*01\n011")
#: M1 with its last part a clique: the case the paper leaves open.
M2 = Pattern.parse("0**\n*01\n*11")

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


def ref_is_chordal(g, find_hole=None):
    """(peo, hole) as the pairwise PEO check finds them; ``find_hole``
    (default ``ref_find_hole``) turns the failed check into a hole."""
    find_hole = find_hole or ref_find_hole
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
                return None, find_hole(g, hint=(v, parent, w))
    return tuple(peo), None


def ref_partition_lex_bfs(g: Graph) -> tuple[list[int], list[int]]:
    """LexBFS order, and for each vertex its neighbour visited last before
    it (-1 for none)."""
    n = g.n
    adj = g.adj
    order: list[int] = []
    parent = [-1] * n
    if n == 0:
        return order, parent
    # Classes of unvisited vertices with equal labels, highest label first:
    # masks by class id, linked through prev/nxt from head.
    members = [(1 << n) - 1]
    prev = [-1]
    nxt = [-1]
    cls = [0] * n
    head = 0
    unvisited = (1 << n) - 1
    for _ in range(n):
        first = members[head]
        low = first & -first
        v = low.bit_length() - 1
        order.append(v)
        unvisited ^= low
        members[head] = first ^ low
        if first == low:
            head = nxt[head]
            if head >= 0:
                prev[head] = -1
        nb = adj[v] & unvisited
        split: dict[int, int] = {}
        for w in bits(nb):
            parent[w] = v
            c = cls[w]
            d = split.get(c)
            if d is None:
                # neighbours of v outrank the rest of their class
                d = split[c] = len(members)
                members.append(0)
                p = prev[c]
                prev.append(p)
                nxt.append(c)
                prev[c] = d
                if p < 0:
                    head = d
                else:
                    nxt[p] = d
            cls[w] = d
        for c, d in split.items():
            moved = members[c] & nb
            members[d] = moved
            members[c] ^= moved
            if not members[c]:
                q = nxt[c]
                nxt[d] = q
                if q >= 0:
                    prev[q] = d
    return order, parent


def ref_two_pass_is_chordal(g: Graph) -> ChordalityCertificate:
    """LexBFS, then the PEO check as a second pass over the reversed order,
    stopping at the first failure; a PEO comes with ``nx_depth_facts``."""
    order, parent = ref_partition_lex_bfs(g)
    earlier = (1 << g.n) - 1
    cliques = []
    # The reversed order is a PEO iff, for each vertex v, the neighbours
    # visited before v are adjacent to the last of them.
    for v in reversed(order):
        earlier ^= 1 << v
        later = g.adj[v] & earlier
        if not later:
            continue
        p = parent[v]
        bad = later & ~(g.adj[p] | 1 << p)
        if bad:
            w = (bad & -bad).bit_length() - 1
            hole = _hole_through(g, v, p, w)
            if hole is None or not verify_hole(g, hole):
                raise RuntimeError(f"internal error: no hole through {p}, {v}, {w}")
            return ChordalityCertificate(None, hole)
        if later & (later - 1):
            cliques.append(later | 1 << v)
    return ChordalityCertificate(
        tuple(order[::-1]), None, tuple(cliques), *nx_depth_facts(g))


def ref_verify_assignment(g, pattern, assignment):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cell = pattern.cells[assignment[u]][assignment[v]]
            if cell == STAR:
                continue
            if (cell == ONE) != g.has_edge(u, v):
                return PartitionViolation(u, v, assignment[u], assignment[v], cell)
    return None


def ref_cell_counts(g, m, assignment):
    """The part sizes of an m-part assignment, and its edges counted pair
    by pair: ``counts[i][j]`` edges (u, v), u < v, have u in part i and v
    in part j."""
    sizes = [list(assignment).count(i) for i in range(m)]
    counts = [[0] * m for _ in range(m)]
    for u, v in g.edges():
        counts[assignment[u]][assignment[v]] += 1
    return sizes, counts


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
    assert _lex_bfs(g)[0] == ref_lex_bfs(g)


@settings(max_examples=300, deadline=None)
@given(any_graphs)
def test_is_chordal_matches_reference(g):
    # the same PEO, and the same failing triple handed to the hole search
    cert = is_chordal(g)
    assert (cert.peo, cert.hole) == ref_is_chordal(
        g, lambda g, hint: _hole_through(g, *hint))


@settings(max_examples=300, deadline=None)
@given(any_graphs)
def test_is_chordal_agrees_with_networkx(g):
    assert bool(is_chordal(g)) == nx.is_chordal(nx_graph(g))


@st.composite
def planted_assignments(draw, pattern):
    """An assignment over one to three of the parts (so some may stay
    empty) and a graph built to satisfy it, with no vertex pair or one to
    three then toggled, so violations fall anywhere."""
    n = draw(st.integers(0, MAX_N))
    used = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    assignment = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
    rng = draw(st.randoms(use_true_random=False))
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            cell = pattern.cells[assignment[u]][assignment[v]]
            if cell == ONE or (cell == STAR and rng.random() < 0.3):
                edges.add((u, v))
    if n >= 2:
        vertex = st.integers(0, n - 1)
        toggled = st.lists(st.tuples(vertex, vertex), max_size=3)
        for u, v in draw(toggled):
            if u != v:
                edges ^= {(min(u, v), max(u, v))}
    return Graph(n, edges), assignment


@st.composite
def assignment_cases(draw):
    """(graph, pattern, assignment): planted, a solver's yes-partition with
    at most one vertex moved, or arbitrary."""
    pattern = draw(st.sampled_from([M1, M2, DIAG_ONE]))
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


@settings(max_examples=600, deadline=None)
@given(assignment_cases())
@example((M1, Graph(0), []))
@example((M2, Graph(1), [2]))
@example((M2, Graph(3, [(0, 1)]), [2, 2, 2]))  # a 1 diagonal missing one pair
@example((DIAG_ONE, Graph(2), [1, 1]))
@example((M1, complete_graph(3), [0, 1, 2]))  # one vertex per part: valid
def test_verify_assignment_matches_reference(case):
    # the cell rule accepts exactly when the pairwise scan finds no pair,
    # and a failure names the same first pair
    pattern, g, assignment = case
    expected = ref_verify_assignment(g, pattern, assignment)
    assert verify_assignment(g, pattern, assignment) == expected
    holds = _cells_hold(pattern, *ref_cell_counts(g, pattern.m, assignment))
    assert holds == (expected is None)


def test_verify_assignment_matches_reference_on_large_hubs():
    # a 500-vertex hub host of the benchmark with its yes-assignment (part
    # 2 the hub, part 1 hub neighbours), and K2,249 with its hubs in part 2
    # beside 249 isolated vertices in part 0 (each join part has two or
    # more members, so a missing pair leaves the others seeing the whole
    # other part): each as it is, with one missing join pair, and with one
    # edge inside part 0, against the pairwise scan's first pair
    hub = bench_host("certify_yes", "yes_hub")
    k2 = Graph(500, [(h, v) for h in (0, 499) for v in range(1, 250)])
    for g, a in ((hub, solve_certifying(hub).assignment),
                 (k2, [2] + [1] * 249 + [0] * 249 + [2])):
        x, y = a.index(2), [v for v in range(g.n) if a[v] == 1][-1]
        u, w = [v for v in range(g.n) if a[v] == 0][-2:]
        assert not g.has_edge(u, w)
        broken = Graph(g.n, [e for e in g.edges() if set(e) != {x, y}])
        inside = Graph(g.n, g.edges() + [(u, w)])
        for h, violated in ((g, False), (broken, True), (inside, True)):
            expected = ref_verify_assignment(h, M1, a)
            assert (expected is not None) == violated
            assert verify_assignment(h, M1, a) == expected
            assert _cells_hold(M1, *ref_cell_counts(h, 3, a)) == (expected is None)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([M1, M2, DIAG_ONE]), st.data())
def test_verify_assignment_rejects_invalid_parts_with_the_first(pattern, data):
    # negative parts, part m and parts of 256 or more (which no byte
    # holds) raise for the first vertex that has one, after valid ones
    # that may violate the pattern or not
    n = data.draw(st.integers(1, 12))
    g = random_graph(n, 0.4, data.draw(st.integers(0, 99)))
    invalid = st.sampled_from([-1, -300, 3, 255, 256, 1000, 2**70])
    assignment = data.draw(st.lists(st.integers(0, 2) | invalid, min_size=n, max_size=n))
    at = data.draw(st.integers(0, n - 1))
    assignment[at] = data.draw(invalid)
    v = next(v for v, part in enumerate(assignment) if not 0 <= part < 3)
    with pytest.raises(ValueError) as caught:
        verify_assignment(g, pattern, assignment)
    assert str(caught.value) == f"vertex {v} assigned to invalid part {assignment[v]}"


@settings(max_examples=300, deadline=None)
@given(any_graphs, st.data())
def test_induced_matches_reference(g, data):
    s = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    sub = induced(g, s)
    assert sub == ref_induced(g, s)


@settings(max_examples=300, deadline=None)
@given(any_graphs, st.data())
def test_first_edge_matches_reference(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    inside = [(u, v) for u, v in g.edges() if mask >> u & 1 and mask >> v & 1]
    assert first_edge(g, mask) == min(inside, default=None)


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


def nx_graph(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def nx_graph6(g):
    return nx.to_graph6_bytes(nx_graph(g), header=False).rstrip().decode("ascii")


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


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 200])
def test_graph6_codec_on_empty_and_complete_graphs(n):
    # all-empty and all-full columns, which random draws need not give
    check_codec(Graph(n))
    check_codec(complete_graph(n))


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


# ---------------------------------------------------------------------------
# certificate reading: the yes parts checked vertex by vertex
# ---------------------------------------------------------------------------


def ref_read_yes_parts(g, parts):
    """The certificate that the yes ``parts`` state, or why they state
    none; raises ValueError when they are not three lists of ints."""

    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    if not (isinstance(parts, list) and len(parts) == 3
            and all(isinstance(p, list) and all(map(is_int, p)) for p in parts)):
        raise ValueError("malformed certificate: parts must be three lists of ints")
    assignment = [-1] * g.n
    for i, part in enumerate(parts):
        for v in part:
            if not 0 <= v < g.n or assignment[v] != -1:
                return f"bad or duplicated vertex {v!r} in parts"
            assignment[v] = i
    if -1 in assignment:
        return "parts do not cover every vertex"
    return M1Certificate(tuple(assignment), None)


def read_outcome(read, g, parts):
    """What ``read`` makes of a yes document with these parts: the
    certificate, the reason, or the text of the error it raises."""
    try:
        return read(g, parts)
    except (_InputError, ValueError) as exc:
        return "error", str(exc)


def cli_read_yes_parts(g, parts):
    doc = json.dumps({"decision": "yes", "parts": parts, "witness": None})
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        return _read_certificate(g.n, "-")
    finally:
        sys.stdin = saved


def check_yes_parts(g, parts):
    got = read_outcome(cli_read_yes_parts, g, parts)
    assert got == read_outcome(ref_read_yes_parts, g, parts)


def shuffled_parts(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.randint(0, n) for _ in range(2))
    return [order[:cuts[0]], order[cuts[0]:cuts[1]], order[cuts[1]:]]


YES_PARTS_CASES = [
    # vertices permuted across the three parts, and empty parts
    (4, [[3, 1], [0], [2]]),
    (4, [[0, 1, 2, 3], [], []]),
    (4, [[], [], [3, 2, 1, 0]]),
    (0, [[], [], []]),
    (0, [[0], [], []]),
    (1, [[], [0], []]),
    # an entry that is not an int
    (4, [[0, True], [1, 3], []]),
    (4, [[0, 2.0], [1, 3], []]),
    (4, [[0, "2"], [1, 3], []]),
    (4, [[0, 2], [1, 3], [None]]),
    # negative and huge ints
    (4, [[0, -1], [1, 3], [2]]),
    (4, [[0, 2], [1, 3, 10**30], []]),
    (4, [[-10**30], [0, 1, 2, 3], []]),
    # duplicates, with the total length kept at n or not
    (4, [[0, 0, 2], [1], []]),
    (4, [[0, 2], [1, 2], []]),
    (4, [[0, 2], [1, 3], [3, 0]]),
    (4, [[0, 2], [1], []]),
    (4, [[0, 1, 2, 3, 4], [], []]),
    # not three lists
    (4, [[0, 1, 2, 3], []]),
    (4, [[0, 1], [2, 3], [], []]),
    (4, [[0, 1], [2, 3], {}]),
    (4, "[[0, 1], [2, 3], []]"),
]


@pytest.mark.parametrize("n, parts", YES_PARTS_CASES)
def test_yes_parts_read_like_reference(n, parts):
    check_yes_parts(path_graph(n), parts)


def test_shuffled_yes_parts_read_like_reference():
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 200):
        g = random_chordal(n, 0.9, n) if n else Graph(0)
        for _ in range(20):
            parts = shuffled_parts(n, rng)
            check_yes_parts(g, parts)
            if n:  # one vertex repeated in place of another
                parts[rng.randrange(3)].append(rng.randrange(n))
                flat = [p for p in parts if p]
                flat[rng.randrange(len(flat))].pop(0)
                check_yes_parts(g, parts)


_part_entries = st.integers(-2, 9) | st.booleans() | st.floats(0, 9) | st.text(max_size=1)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.lists(st.lists(_part_entries, max_size=9), min_size=2, max_size=4))
def test_drawn_yes_parts_read_like_reference(n, parts):
    check_yes_parts(Graph(n), parts)


def ref_read_certificate(n, text):
    """The CLI certificate reader with two paths for yes parts: a sorted
    cover test and a whole-list fill, or the vertex-by-vertex loop that
    names the first fault; it reads the document ``text``."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("malformed certificate: not a JSON object")
    if doc.get("decision") == "yes":
        parts = doc.get("parts")
        if not (isinstance(parts, list) and len(parts) == 3
                and all(map(_is_int_list, parts))):
            raise ValueError("malformed certificate: parts must be three lists of ints")
        assignment = [-1] * n
        if sorted(chain(*parts)) == list(range(n)):  # each vertex once
            for i, part in enumerate(parts):  # assignment[v] = i, in C
                deque(map(assignment.__setitem__, part, repeat(i)), 0)
            return M1Certificate(tuple(assignment), None)
        for i, part in enumerate(parts):  # name the first fault
            for v in part:
                if not 0 <= v < n or assignment[v] != -1:
                    return f"bad or duplicated vertex {v!r} in parts"
                assignment[v] = i
        return "parts do not cover every vertex"
    if doc.get("decision") == "no":
        wit = doc.get("witness")
        if not isinstance(wit, dict):
            raise ValueError("malformed certificate: no witness object")
        kind, k, vertices = wit.get("kind"), wit.get("k"), wit.get("vertices")
        if not isinstance(kind, str):
            raise ValueError("malformed certificate: witness kind must be a string")
        if k is not None and type(k) is not int:
            raise ValueError("malformed certificate: witness k must be an int")
        if not _is_int_list(vertices):
            raise ValueError("malformed certificate: witness vertices must be a list of ints")
        seen = set()
        for v in vertices:
            if v in seen:
                return f"duplicated witness vertex {v}"
            seen.add(v)
        try:
            return M1Certificate(None, (ObstructionKind(kind, k), frozenset(vertices)))
        except ValueError as exc:
            return f"bad witness kind: {exc}"
    return "decision must be 'yes' or 'no'"


@st.composite
def edited_covers(draw):
    """A vertex count n and three parts that cover 0..n-1 once each, or
    do so after up to three edits: a vertex repeated, a vertex dropped,
    an id out of range put in, or a part emptied."""
    n = draw(st.integers(0, 12))
    order = draw(st.permutations(range(n)))
    a, b = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    parts = [list(order[:a]), list(order[a:b]), list(order[b:])]
    for _ in range(draw(st.integers(0, 3))):
        part = parts[draw(st.integers(0, 2))]
        at = draw(st.integers(0, len(part)))
        edit = draw(st.sampled_from(["repeat", "drop", "out-of-range", "empty"]))
        if edit == "repeat" and n:
            part.insert(at, draw(st.integers(0, n - 1)))
        elif edit == "drop" and part:
            del part[at - 1]
        elif edit == "out-of-range":
            part.insert(at, draw(st.sampled_from([-1, n, n + 1, -10**30, 10**30])))
        elif edit == "empty":
            part.clear()
    return n, parts


@settings(max_examples=500, deadline=None)
@given(edited_covers())
def test_yes_parts_read_like_the_two_path_reader(case):
    # one loop names the same fault, or builds the same certificate, as
    # the sorted cover test with its whole-list fill did
    n, parts = case
    doc = json.dumps({"decision": "yes", "parts": parts, "witness": None})
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        got = _read_certificate(n, "-")
    finally:
        sys.stdin = saved
    assert got == ref_read_certificate(n, doc)


# ---------------------------------------------------------------------------
# case analysis: triangle and K4 scans, per-need BFS variants, and the
# solver built on them
# ---------------------------------------------------------------------------


def ref_yes(assignment):
    return M1Certificate(tuple(assignment), None)


def ref_find_triangle(g: Graph, exclude: int = -1) -> tuple[int, int, int] | None:
    """Lexicographically first triangle avoiding ``exclude``."""
    banned = 0 if exclude < 0 else 1 << exclude
    for u in range(g.n):
        if banned >> u & 1:
            continue
        nb_u = g.adj[u] & ~banned & ~((1 << (u + 1)) - 1)
        for v in bits(nb_u):
            common = g.adj[u] & g.adj[v] & ~banned & ~((1 << (v + 1)) - 1)
            if common:
                return u, v, (common & -common).bit_length() - 1
    return None


def ref_two_colourable(g: Graph, removed: int) -> bool:
    """Is g minus the vertices in the ``removed`` bitset bipartite?"""
    colour = {}
    for root in range(g.n):
        if removed >> root & 1 or root in colour:
            continue
        colour[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                cu = colour[u]
                for v in bits(g.adj[u] & ~removed):
                    if v not in colour:
                        colour[v] = cu ^ 1
                        nxt.append(v)
                    elif colour[v] == cu:
                        return False
            queue = nxt
    return True


def ref_bipartizer_set(g: Graph) -> VertexSet:
    """All vertices whose removal leaves a bipartite graph.

    Matches the per-vertex definition exactly.  When the host has a
    triangle, only its three vertices can qualify (a bipartizer must lie
    on every odd cycle), so only those deletions are tested; triangle-free
    non-bipartite hosts fall back to the full per-vertex scan.
    """
    if ref_is_bipartite(g):
        return frozenset(range(g.n))
    tri = ref_find_triangle(g)
    if tri is None:  # odd girth >= 5: cannot happen for chordal hosts
        return frozenset(
            v for v in range(g.n) if ref_two_colourable(g, 1 << v)
        )
    return frozenset(v for v in tri if ref_two_colourable(g, 1 << v))


def ref_bfs_tree(
    g: Graph, root: int, removed: int
) -> tuple[int, list[int], list[int]]:
    """Component of ``root`` in g minus ``removed``: (mask, depth, parent).

    ``depth[v]`` is -1 outside the component; parents follow BFS discovery
    with ascending vertex order, so paths are deterministic.
    """
    depth = [-1] * g.n
    parent = [-1] * g.n
    depth[root] = 0
    comp = 1 << root
    queue = [root]
    while queue:
        nxt = []
        for u in queue:
            for v in bits(g.adj[u] & ~removed & ~comp):
                comp |= 1 << v
                depth[v] = depth[u] + 1
                parent[v] = u
                nxt.append(v)
        queue = nxt
    return comp, depth, parent


def ref_tail_edge(depth: list[int], parent: list[int], d: int) -> tuple[int, int]:
    """Deterministic (depth d-1, depth d) tree edge: deepest vertex first."""
    y = min(v for v, dv in enumerate(depth) if dv == d)
    return parent[y], y


def ref_find_k4(g: Graph) -> tuple[int, ...] | None:
    for u in range(g.n):
        for v in bits(g.adj[u] & ~((1 << (u + 1)) - 1)):
            common = g.adj[u] & g.adj[v]
            for w in bits(common & ~((1 << (v + 1)) - 1)):
                rest = common & g.adj[w] & ~((1 << (w + 1)) - 1)
                if rest:
                    return u, v, w, (rest & -rest).bit_length() - 1
    return None


def ref_all_triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u in range(g.n):
        for v in bits(g.adj[u] & ~((1 << (u + 1)) - 1)):
            common = g.adj[u] & g.adj[v] & ~((1 << (v + 1)) - 1)
            out.extend((u, v, w) for w in bits(common))
    return out


def ref_induced_member_within(
    g: Graph, region: set[int], tags: tuple[str, ...]
) -> Witness:
    sub_vertices = sorted(region)
    sub = induced(g, region)
    for tag in tags:
        hit = contains_induced(sub, catalogue_graph(tag))
        if hit is not None:
            return ObstructionKind(tag), frozenset(sub_vertices[i] for i in hit)
    raise RuntimeError(
        f"internal error: no member of {tags} induced within {sorted(region)}"
    )


def ref_extract_unbipartizable_obstruction(g: Graph) -> Witness:
    """Witness for a chordal graph whose bipartizer set is empty.

    A complete subgraph on four vertices is an immediate F7.  Otherwise at
    most one triangle closes over each vertex, so all triangles are listed
    and compared pairwise: a disjoint pair carries an induced F1, F6 or F7
    among its six vertices (the connecting edges either miss a matching,
    concentrate on one vertex, or close a chorded four-cycle); a pair
    sharing one vertex combines with a triangle avoiding that vertex into
    six vertices carrying an induced F5 or F7.  With an empty bipartizer
    set one of these configurations always exists.
    """
    k4 = ref_find_k4(g)
    if k4 is not None:
        return ObstructionKind("F7"), frozenset(k4)
    triangles = ref_all_triangles(g)
    sets = [frozenset(t) for t in triangles]
    for i in range(len(triangles)):
        for j in range(i + 1, len(triangles)):
            if not sets[i] & sets[j]:
                return ref_induced_member_within(
                    g, set(sets[i] | sets[j]), ("F7", "F6", "F1")
                )
    for i in range(len(triangles)):
        for j in range(i + 1, len(triangles)):
            shared = sets[i] & sets[j]
            if len(shared) != 1:
                continue
            (w,) = shared
            third = ref_find_triangle(g, exclude=w)
            if third is None:
                raise RuntimeError("internal error: bipartizer set not empty")
            c = frozenset(third)
            if len(c & sets[i]) != 1 or len(c & sets[j]) != 1:
                # two shared vertices would close a complete quadruple,
                # excluded above
                raise RuntimeError("internal error: unexpected triangle overlap")
            return ref_induced_member_within(
                g, set(sets[i] | sets[j] | c), ("F7", "F5")
            )
    raise RuntimeError("internal error: no obstruction found with empty bipartizer set")


def ref_solve_unique_triangle(g: Graph, bipartizers: VertexSet) -> M1Certificate:
    """Certify a connected non-bipartite chordal graph whose bipartizer set
    is a triangle (then it is the only triangle in the graph)."""
    b = sorted(bipartizers)
    if len(b) != 3 or not all(
        g.has_edge(u, v) for u, v in ((b[0], b[1]), (b[0], b[2]), (b[1], b[2]))
    ):
        raise RuntimeError("internal error: bipartizers do not induce a triangle")
    tri_mask = sum(1 << v for v in b)
    trees = {v: ref_bfs_tree(g, v, tri_mask & ~(1 << v)) for v in b}
    covered = 0
    for mask, _, _ in trees.values():
        covered |= mask
    if covered != (1 << g.n) - 1:
        raise RuntimeError("internal error: triangle trees do not cover the graph")

    heights = {v: max(trees[v][1]) for v in b}
    trivial = [v for v in b if heights[v] == 0]
    if not trivial:
        children = [min(bits(g.adj[v] & trees[v][0])) for v in b]
        return _no(ObstructionKind("F2"), set(b) | set(children))
    v0 = trivial[0]
    rest = [v for v in b if v != v0]
    if heights[rest[0]] >= 2 and heights[rest[1]] >= 2:
        wit = set(b)
        for v in rest:
            x, y = ref_tail_edge(trees[v][1], trees[v][2], 2)
            wit |= {x, y}
        return _no(ObstructionKind("F3"), wit)
    # taller tree becomes the depth-2 side; ties keep the lower id first
    rest.sort(key=lambda v: (-heights[v], v))
    v1, v2 = rest
    if heights[v1] >= 3:
        x, y = ref_tail_edge(trees[v1][1], trees[v1][2], 3)
        return _no(ObstructionKind("F1"), set(b) | {x, y})

    assignment = [0] * g.n
    assignment[v0] = 0
    assignment[v1] = 2
    assignment[v2] = 1
    for v, d in enumerate(trees[v2][1]):
        if d == 1:
            assignment[v] = 0
    for v, d in enumerate(trees[v1][1]):
        if d == 1:
            assignment[v] = 1
        elif d == 2:
            assignment[v] = 0
    return ref_yes(assignment)


def ref_solve_two_bipartizers(g: Graph, bipartizers: VertexSet) -> M1Certificate:
    """Certify a connected non-bipartite chordal graph with exactly two
    bipartizers (they span the edge common to every triangle)."""
    b = sorted(bipartizers)
    if len(b) != 2 or not g.has_edge(b[0], b[1]):
        raise RuntimeError("internal error: bipartizer pair must span an edge")
    v1, v2 = b
    pair_mask = 1 << v1 | 1 << v2
    apexes = sorted(bits(g.adj[v1] & g.adj[v2]))
    if len(apexes) < 2:
        raise RuntimeError("internal error: a unique triangle implies three bipartizers")

    apex_trees = {v: ref_bfs_tree(g, v, pair_mask) for v in apexes}
    for v in apexes:
        depth, parent = apex_trees[v][1], apex_trees[v][2]
        if max(depth) >= 2:
            other = min(a for a in apexes if a != v)
            x, y = ref_tail_edge(depth, parent, 2)
            return _no(ObstructionKind("F1"), {v1, v2, other, x, y})

    apex_mask = sum(1 << v for v in apexes)

    def side_tree(root: int, other: int):
        return ref_bfs_tree(g, root, apex_mask | 1 << other)

    t1, t2 = side_tree(v1, v2), side_tree(v2, v1)
    h1, h2 = max(t1[1]), max(t2[1])

    tall_apexes = [v for v in apexes if max(apex_trees[v][1]) == 1]
    if tall_apexes:
        v0 = tall_apexes[0]
        if h1 >= 1 and h2 >= 1:
            wit = {
                v1,
                v2,
                v0,
                min(bits(g.adj[v0] & apex_trees[v0][0])),
                min(bits(g.adj[v1] & t1[0])),
                min(bits(g.adj[v2] & t2[0])),
            }
            return _no(ObstructionKind("F2"), wit)
        if h2 >= 1:  # keep the trivial side at v2
            v1, v2, t1, t2, h1, h2 = v2, v1, t2, t1, h2, h1
        if h1 >= 3:
            x, y = ref_tail_edge(t1[1], t1[2], 3)
            return _no(ObstructionKind("F1"), {v1, v2, apexes[0], x, y})
        assignment = [0] * g.n
        assignment[v1] = 2
        assignment[v2] = 0
        for v in apexes:
            assignment[v] = 1
            for u, d in enumerate(apex_trees[v][1]):
                if d == 1:
                    assignment[u] = 0
        for u, d in enumerate(t1[1]):
            if d == 1:
                assignment[u] = 1
            elif d == 2:
                assignment[u] = 0
        return ref_yes(assignment)

    # every apex is bare: bound the two side trees by F3 then F1
    if h1 >= 2 and h2 >= 2:
        wit = {v1, v2, apexes[0]}
        for t in (t1, t2):
            x, y = ref_tail_edge(t[1], t[2], 2)
            wit |= {x, y}
        return _no(ObstructionKind("F3"), wit)
    if h2 >= 2:  # keep the shallow side at v2
        v1, v2, t1, t2, h1, h2 = v2, v1, t2, t1, h2, h1
    if h1 >= 3:
        x, y = ref_tail_edge(t1[1], t1[2], 3)
        return _no(ObstructionKind("F1"), {v1, v2, apexes[0], x, y})
    assignment = [0] * g.n
    assignment[v1] = 2
    assignment[v2] = 1
    for v in apexes:
        assignment[v] = 0
    for u, d in enumerate(t2[1]):
        if d == 1:
            assignment[u] = 0
    for u, d in enumerate(t1[1]):
        if d == 1:
            assignment[u] = 1
        elif d == 2:
            assignment[u] = 0
    return ref_yes(assignment)


def ref_solve_one_bipartizer(g: Graph, hub: int) -> M1Certificate:
    """Certify a connected non-bipartite chordal graph whose only
    bipartizer is ``hub``."""
    full = (1 << g.n) - 1
    _, dist, parent = ref_bfs_tree(g, hub, 0)

    far = [v for v, d in enumerate(dist) if d >= 3]
    if far:
        x3 = min(v for v in far if dist[v] == 3)
        x2 = parent[x3]
        x1 = parent[x2]
        tri = ref_find_triangle(g, exclude=x1)
        if tri is None:
            raise RuntimeError("internal error: hub vertex is not the only bipartizer")
        return _no(ObstructionKind("F1"), set(tri) | {x2, x3})

    spokes = [v for v, d in enumerate(dist) if d == 1]
    outer_mask = sum(1 << v for v, d in enumerate(dist) if d == 2)
    spoke_mask = sum(1 << v for v in spokes)

    # structure forced by chordality and the unique bipartizer
    for v in bits(outer_mask):
        if g.adj[v] & outer_mask:
            raise RuntimeError("internal error: outer layer is not independent")
        if g.degree(v) != 1:
            raise RuntimeError("internal error: outer vertices must be pendant")

    attach: dict[int, int] = {}
    attach_mask = 0
    for u in spokes:
        pendant = g.adj[u] & outer_mask
        if pendant:
            attach[u] = (pendant & -pendant).bit_length() - 1
            attach_mask |= 1 << u

    spoke_edges = [
        (u, v)
        for u in spokes
        for v in bits(g.adj[u] & spoke_mask & ~((1 << (u + 1)) - 1))
    ]

    for u, w in spoke_edges:
        if u not in attach or w not in attach:
            continue
        # adjacent spokes both holding pendants: an F2 via any third spoke
        # clear of both, otherwise second neighbours on both sides give F4
        loose = [
            x
            for x in spokes
            if x not in (u, w) and not g.has_edge(x, u) and not g.has_edge(x, w)
        ]
        if loose:
            return _no(
                ObstructionKind("F2"), {hub, u, w, loose[0], attach[u], attach[w]}
            )
        eu = next((e for e in spoke_edges if u not in e), None)
        ew = next((e for e in spoke_edges if w not in e), None)
        if eu is None or ew is None or w not in eu or u not in ew:
            raise RuntimeError("internal error: spoke forest structure violated")
        pw = eu[0] if eu[1] == w else eu[1]
        pu = ew[0] if ew[1] == u else ew[1]
        return _no(
            ObstructionKind("F4"), {hub, u, w, attach[u], attach[w], pu, pw}
        )

    assignment = [0] * g.n  # outer (pendant) vertices stay in part 0
    assignment[hub] = 2

    remaining = spoke_mask
    while remaining:
        seed = (remaining & -remaining).bit_length() - 1
        comp, cdepth, cparent = ref_bfs_tree(g, seed, full & ~spoke_mask)
        attached_here = list(bits(comp & attach_mask))
        root = attached_here[0] if attached_here else seed
        if root != seed:
            comp, cdepth, cparent = ref_bfs_tree(g, root, full & ~spoke_mask)
        odd = [v for v in attached_here if cdepth[v] % 2 == 1]
        if odd:
            w = odd[0]
            path = [w]
            while path[-1] != root:
                path.append(cparent[path[-1]])
            d = len(path) - 1
            if d < 3 or d % 2 == 0:
                raise RuntimeError("internal error: adjacent pendant spokes missed")
            wit = {hub, attach[root], attach[w]} | set(path)
            return _no(fan_kind((d + 1) // 2), wit)
        for v in bits(comp):
            assignment[v] = 1 if cdepth[v] % 2 == 0 else 0
        remaining &= ~comp
    return ref_yes(assignment)


def ref_certify_connected(g: Graph) -> M1Certificate:
    b = ref_bipartizer_set(g)
    if not b:
        return _no(*ref_extract_unbipartizable_obstruction(g))
    if len(b) == 3:
        return ref_solve_unique_triangle(g, b)
    if len(b) == 2:
        return ref_solve_two_bipartizers(g, b)
    if len(b) == 1:
        return ref_solve_one_bipartizer(g, next(iter(b)))
    raise RuntimeError("internal error: more than three bipartizers without bipartiteness")


def ref_certify(g: Graph) -> M1Certificate:
    bip = ref_is_bipartite(g)
    if bip:
        return ref_yes(list(bip.colouring))
    comps = [comp for comp, _ in forest(g)]
    if len(comps) == 1:
        return ref_certify_connected(g)
    tri = ref_find_triangle(g)
    assert tri is not None
    tri_comp = next(c for c in comps if c >> tri[0] & 1)
    for comp in comps:
        if comp == tri_comp:
            continue
        for u in bits(comp):
            inner = g.adj[u] & comp & ~((1 << (u + 1)) - 1)
            if inner:
                v = (inner & -inner).bit_length() - 1
                return _no(ObstructionKind("F1"), set(tri) | {u, v})
    # all other components are isolated vertices: park them in part 0
    verts = sorted(bits(tri_comp))
    sub_cert = ref_certify_connected(induced(g, verts))
    if sub_cert.assignment is not None:
        assignment = [0] * g.n
        for i, v in enumerate(verts):
            assignment[v] = sub_cert.assignment[i]
        return ref_yes(assignment)
    kind, wit = sub_cert.witness
    return _no(kind, {verts[i] for i in wit})


@st.composite
def case_analysis_graphs(draw):
    """random_chordal graphs of up to 60 vertices at bias 0.3-1.0 (half of
    them 0.95-1.0, where few triangles leave one to three bipartizers):
    alone, beside isolated vertices and perhaps a tree, in any order, or
    with one to four K4s made by joining a new vertex to a triangle."""
    seeds = st.integers(0, 2**32)
    bias = draw(st.floats(0.3, 1.0) | st.floats(0.95, 1.0))
    g = random_chordal(draw(st.integers(1, 60)), bias, draw(seeds))
    how = draw(st.sampled_from(["alone", "union", "k4"]))
    if how == "union":
        parts = [g, Graph(draw(st.integers(0, 5)))]
        if draw(st.booleans()):
            parts.append(random_chordal(draw(st.integers(1, 15)), 1.0, draw(seeds)))
        g = reduce(disjoint_union, draw(st.permutations(parts)))
    elif how == "k4":
        for _ in range(draw(st.integers(1, 4))):
            triangles = ref_all_triangles(g)
            if not triangles:
                break
            tri = draw(st.sampled_from(triangles))
            g = Graph(g.n + 1, g.edges() + [(v, g.n) for v in tri])
    return g


@settings(max_examples=300, deadline=None)
@given(case_analysis_graphs())
# the second component's edge comes before the K4: F1, not F7
@example(disjoint_union(complete_graph(4), path_graph(2)))
# isolated vertices beside a K4 leave it to F7
@example(disjoint_union(Graph(2), complete_graph(4)))
# a unique triangle whose corners all have a neighbour off it, and one
# whose only bare corner, 1, is not its lowest
@example(Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]))
@example(Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 4)]))
def test_case_analysis_matches_reference(g):
    cliques = is_chordal(g).cliques
    assert _first_clique(cliques, 4) == ref_find_k4(g)
    assert _first_clique(cliques, 3) == ref_find_triangle(g)
    for w in range(g.n):  # C_v minus w is still a clique
        avoiding = tuple(c & ~(1 << w) for c in cliques)
        assert _first_clique(avoiding, 3) == ref_find_triangle(g, exclude=w)
    if ref_find_k4(g) is None:
        assert sorted(tuple(bits(c)) for c in cliques) == ref_all_triangles(g)
    public = bipartizer_set(g)
    assert public == ref_bipartizer_set(g)
    if ref_find_k4(g) is not None:
        assert public == frozenset()
    elif cliques:
        assert frozenset(bits(reduce(and_, cliques))) == public
    assert solve_certifying(g).to_json() == ref_certify(g).to_json()


def hub_host(paths, pendants):
    """A hub, the highest id, joined to every vertex of the spoke
    ``paths``, with one pendant leaf on each spoke in ``pendants``."""
    spokes = [v for path in paths for v in path]
    n = len(spokes) + len(pendants) + 1
    edges = [(u, v) for path in paths for u, v in zip(path, path[1:])]
    edges += [(v, n - 1) for v in spokes]
    edges += [(u, len(spokes) + i) for i, u in enumerate(pendants)]
    return Graph(n, edges)


def test_spoke_parity_from_an_odd_seed_matches_reference():
    # in every spoke path the lowest vertex (the seed of its layer search)
    # is at odd depth from the lowest spoke holding a pendant (the root)
    yes = hub_host([[0, 1, 2, 3, 4], [5, 6, 7]], [1, 3, 6])
    fan2 = hub_host([[0, 1, 2, 3, 4]], [1, 4])
    for g, decision, kind in ((yes, "yes", None), (fan2, "no", "Fan")):
        assert bipartizer_set(g) == {g.n - 1}
        cert = solve_certifying(g)
        assert cert.decision == decision
        assert (cert.witness[0].tag if cert.witness else None) == kind
        assert cert.to_json() == ref_certify(g).to_json()


def with_paths(n, edges, lengths):
    """The graph on 0..n-1 with ``edges`` and, for each vertex i below
    ``len(lengths)``, a new path of ``lengths[i]`` edges hanging off i."""
    edges = list(edges)
    for v, length in enumerate(lengths):
        for _ in range(length):
            edges.append((v, n))
            v, n = n, n + 1
    return Graph(n, edges)


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shared_edge_hosts():
    """A triangle with a path of 0-3 edges on each corner (three
    bipartizers), and an edge 0-1 with two or three apexes, paths of 0-2
    edges on the apexes and of 0-3 edges on both ends (two bipartizers)."""
    for lengths in itertools.product(range(4), repeat=3):
        yield with_paths(3, [(0, 1), (0, 2), (1, 2)], lengths)
    for k in (2, 3):
        edge = [(0, 1)] + [(v, a) for a in range(2, 2 + k) for v in (0, 1)]
        for sides in itertools.product(range(4), repeat=2):
            for apexes in itertools.product(range(3), repeat=k):
                yield with_paths(2 + k, edge, sides + apexes)


def test_shared_edge_matches_reference_under_relabelling():
    # which end of the shared edge or corner of the triangle takes which
    # role depends on the labels: six labellings of each host
    rng = random.Random(13)
    kinds = set()
    count = 0
    for host in shared_edge_hosts():
        for _ in range(6):
            g = relabelled(host, rng)
            cert = solve_certifying(g)
            assert cert.to_json() == ref_certify(g).to_json()
            kinds.add(cert.witness[0].tag if cert.witness else "yes")
            count += 1
    assert count == 3840
    assert {"yes", "F1", "F2", "F3"} <= kinds


def test_hub_f2_f4_witnesses_match_reference_on_labellings():
    # F4 (hub 0, spokes u = 1 and w = 2 with pendants, second neighbours
    # 6 and 5) under every labelling, then under fixed-seed labellings
    # with one or two bare spokes (an F2) and with a third neighbour on
    # each of u and w (an F4): the spoke pair, the loose spoke and the
    # second neighbours all follow the labels
    f4 = catalogue_graph("F4")
    for perm in itertools.permutations(range(7)):
        g = Graph(7, [(perm[u], perm[v]) for u, v in f4.edges()])
        cert = solve_certifying(g)
        assert cert.witness == (ObstructionKind("F4"), frozenset(range(7)))
        assert cert.to_json() == ref_certify(g).to_json()
    rng = random.Random(4)
    for n, extra, kind, count in (
        (8, [(0, 7)], "F2", 1000),
        (9, [(0, 7), (0, 8)], "F2", 500),
        (9, [(0, 7), (1, 7), (0, 8), (2, 8)], "F4", 500),
    ):
        host = Graph(n, f4.edges() + extra)
        for _ in range(count):
            g = relabelled(host, rng)
            cert = solve_certifying(g)
            assert cert.witness[0] == ObstructionKind(kind)
            assert cert.to_json() == ref_certify(g).to_json()


def hub_hosts_with_a_third_layer(rng, count):
    """``count`` randomly labelled hub hosts of about 60 to 300 vertices:
    spoke paths of one to eight vertices, a pendant on some spokes, and
    one to three vertices at distance three from the hub, each on its own
    pendant and perhaps starting a path further out."""
    for _ in range(count):
        paths, n, spokes = [], 0, rng.randrange(55, 220)
        while n < spokes:
            k = rng.randrange(1, 9)
            paths.append(list(range(n, n + k)))
            n += k
        pendants = rng.sample(range(n), rng.randrange(5, n // 4))
        g = hub_host(paths, pendants)
        edges, m = g.edges(), g.n
        for leaf in rng.sample(range(n, n + len(pendants)), rng.randrange(1, 4)):
            for step in range(rng.randrange(1, 4)):
                edges.append((leaf if step == 0 else m - 1, m))
                m += 1
        yield relabelled(Graph(m, edges), rng)


def test_hub_f1_from_the_third_layer_matches_reference():
    # the hub branch's first check: a vertex at distance three from the
    # hub gives an F1 with the first spoke edge clear of its spoke
    count = 0
    for g in hub_hosts_with_a_third_layer(random.Random(16), 150):
        (hub,) = bipartizer_set(g)
        assert 60 <= g.n <= 300 and g.degree(hub) >= 55
        cert = solve_certifying(g)
        assert cert.witness[0] == ObstructionKind("F1")
        assert cert.to_json() == ref_certify(g).to_json()
        count += 1
    assert count == 150


def ref_forest_solve_one_bipartizer(g: Graph, hub: int) -> M1Certificate:
    """The hub branch that walks the spokes and the outer vertices one at
    a time and searches each spoke tree from its lowest vertex, then again
    from its lowest attached spoke when that tree holds a fan (the only
    change: ``bfs_layers`` takes the root as a bitset)."""
    adj = g.adj
    spoke_mask = adj[hub]
    beyond = ~(spoke_mask | 1 << hub)
    attach: dict[int, int] = {}
    attach_mask = outer_mask = 0
    for u in bits(spoke_mask):
        pendant = adj[u] & beyond
        if pendant:
            attach[u] = lowest(pendant)
            attach_mask |= 1 << u
            outer_mask |= pendant
    grown = crowded = 0  # crowded: non-zero if an outer vertex is not pendant
    for v in bits(outer_mask):
        grown |= adj[v]
        crowded |= adj[v] & (adj[v] - 1)
    deeper = grown & ~(spoke_mask | outer_mask)

    if deeper:
        x2, x3 = _tree_edge(g, [1 << hub, spoke_mask, outer_mask, deeper], 3)
        x1 = lowest(g.adj[x2] & spoke_mask)
        # every triangle is the hub and a spoke edge, and with the hub in
        # each the first such edge gives the first triangle
        edge = first_edge(g, spoke_mask & ~(1 << x1))
        if edge is None:
            raise RuntimeError("internal error: hub vertex is not the only bipartizer")
        return _no(ObstructionKind("F1"), {hub, *edge, x2, x3})

    # structure forced by chordality and the unique bipartizer: pendant
    # outer vertices, so the outer layer is independent too
    if crowded:
        raise RuntimeError("internal error: outer vertices must be pendant")

    edge = first_edge(g, attach_mask)
    if edge:
        # adjacent spokes both holding pendants: an F2 via the first third
        # spoke clear of both, otherwise second neighbours on both sides
        # give F4.  Without such a spoke the spoke forest is the stars of
        # u and w joined by u-w: another spoke edge would close a K4 with
        # the hub or a chordless four-cycle.
        u, w = edge
        pair = 1 << u | 1 << w
        loose = spoke_mask & ~(g.adj[u] | g.adj[w] | pair)
        if loose:
            return _no(
                ObstructionKind("F2"), {hub, u, w, lowest(loose), attach[u], attach[w]}
            )
        pu = g.adj[u] & spoke_mask & ~pair
        pw = g.adj[w] & spoke_mask & ~pair
        if not pu or not pw or first_edge(g, spoke_mask & ~pair):
            raise RuntimeError("internal error: spoke forest structure violated")
        return _no(
            ObstructionKind("F4"),
            {hub, u, w, attach[u], attach[w], lowest(pu), lowest(pw)},
        )

    # spoke trees: even depth from the root in part 1, odd depth and the
    # outer (pendant) vertices in part 0.  g minus the hub is bipartite, so
    # parity from the root is parity from the tree's lowest vertex, flipped
    # if the root is odd.
    part1 = 0
    for comp, tree in forest(g, ~spoke_mask):
        attached_here = comp & attach_mask
        root = lowest(attached_here or comp)
        odd = reduce(or_, tree[1::2], 0)
        if odd >> root & 1:
            odd = comp & ~odd
        if attached_here & odd:
            tree = bfs_layers(g, 1 << root, ~spoke_mask)
            w = lowest(attached_here & odd)
            d = next(d for d, layer in enumerate(tree) if layer >> w & 1)
            if d < 3:
                raise RuntimeError("internal error: adjacent pendant spokes missed")
            wit = {hub, attach[root], attach[w], *tree_path(g, tree, w, d)}
            return _no(fan_kind((d + 1) // 2), wit)
        part1 |= comp & ~odd
    return _yes(g.n, part1, 1 << hub)


def spoke_tree(rng, kind):
    """(size, edges, attached spokes, holds a fan) of one spoke tree in
    local ids:
    ``bare`` a random tree without pendants, ``even`` one with pendants on
    some vertices of one colour class, ``fan`` a path of 2k spokes with
    pendants on both ends (k from 2 to 6), and ``branching fan`` a random
    tree with pendants on some vertices of one class and on one vertex x
    of the other class that none of them is next to, so at odd distance
    three or more from x."""
    if kind == "fan":
        k = rng.randrange(2, 7)
        return 2 * k, [(i, i + 1) for i in range(2 * k - 1)], [0, 2 * k - 1], True
    size = rng.randrange(1, 14) if kind != "branching fan" else rng.randrange(4, 14)
    parent = [None] + [rng.randrange(i) for i in range(1, size)]
    edges = [(parent[v], v) for v in range(1, size)]
    colour = [0] * size
    for v in range(1, size):
        colour[v] = 1 - colour[parent[v]]
    if kind == "bare":
        return size, edges, [], False
    side = rng.randrange(2)
    cls = [v for v in range(size) if colour[v] == side]
    if kind == "even":
        return size, edges, rng.sample(cls, rng.randrange(0, len(cls) + 1)), False
    others = [v for v in range(size) if colour[v] != side]
    rng.shuffle(others)
    for x in others:
        near = {parent[x]} | {v for v in range(1, size) if parent[v] == x}
        far = [v for v in cls if v not in near]
        if far:
            return size, edges, rng.sample(far, rng.randrange(1, len(far) + 1)) + [x], True
    return size, edges, [], False


def spoke_forest_host(rng, trees, isolated=0):
    """A hub over the disjoint spoke trees ``trees`` (from ``spoke_tree``),
    one pendant leaf on each attached spoke and ``isolated`` isolated
    vertices, randomly labelled; returns the graph and its hub."""
    edges, attached, n = [], [], 0
    for size, tree_edges, pendants, _ in trees:
        edges += [(n + u, n + v) for u, v in tree_edges]
        attached += [n + u for u in pendants]
        n += size
    hub = n
    edges += [(v, hub) for v in range(n)]
    edges += [(u, hub + 1 + i) for i, u in enumerate(attached)]
    perm = list(range(hub + 1 + len(attached) + isolated))
    rng.shuffle(perm)
    return Graph(len(perm), [(perm[u], perm[v]) for u, v in edges]), perm[hub]


def hub_forest_hosts(rng, count):
    """``count`` hub hosts of two to nine spoke trees: even-distance,
    bare and fan trees (paths and branching) in random order, so zero to
    three trees hold a fan, at any place in the order of lowest vertices,
    beside zero to three isolated vertices; each tree set labelled three
    ways.  Hosts whose triangles share a second vertex are skipped.
    Yields each host, its hub and how many of its trees hold a fan."""
    kinds = ["bare", "bare", "even", "even", "even", "even", "fan", "branching fan"]
    made = 0
    while made < count:
        trees = [spoke_tree(rng, rng.choice(kinds)) for _ in range(rng.randrange(2, 10))]
        isolated = rng.randrange(4)
        for _ in range(3):
            g, hub = spoke_forest_host(rng, trees, isolated)
            if bipartizer_set(g) == {hub} and made < count:
                made += 1
                yield g, hub, sum(tree[3] for tree in trees)


def test_hub_branch_matches_forest_reference():
    # the first tree in order of lowest vertex that holds a fan is named,
    # trees without a pendant are 2-coloured from their lowest vertex
    named = Counter()
    for g, hub, fans in hub_forest_hosts(random.Random(19), 600):
        cert = solve_one_bipartizer(g, hub)
        assert cert.to_json() == ref_forest_solve_one_bipartizer(g, hub).to_json()
        assert verify_certificate(g, cert) is None
        assert cert.decision == ("no" if fans else "yes")
        named[min(fans, 2)] += 1
    # hosts with no fan, one, and two or three
    assert min(named.values()) > 120, named


def test_fans_up_to_100_match_forest_reference():
    # Fan(k) alone and beside other spoke trees, each labelled twice
    rng = random.Random(100)
    for k in range(2, 101):
        fan_path = (2 * k, [(i, i + 1) for i in range(2 * k - 1)], [0, 2 * k - 1], True)
        for trees in ([fan_path], [spoke_tree(rng, "even"), fan_path, spoke_tree(rng, "bare")]):
            g, hub = spoke_forest_host(rng, trees, rng.randrange(3))
            cert = solve_one_bipartizer(g, hub)
            assert cert.witness[0] == fan_kind(k)
            assert cert.to_json() == ref_forest_solve_one_bipartizer(g, hub).to_json()


@settings(max_examples=200, deadline=None)
@given(any_graphs)
def test_bipartizer_set_matches_reference_on_any_graph(g):
    # holed graphs too, where a layer edge need not close a triangle
    assert bipartizer_set(g) == ref_bipartizer_set(g)


def disjoint_triangle_hosts():
    """Every labelled chordal, K4-free graph on 0..5 made of the triangles
    {0, 1, 2} and {3, 4, 5} and some of the 9 edges between them, under
    all 720 relabellings: the distinct graphs, and how many edge sets of
    the unlabelled form passed."""
    cross = list(itertools.product(range(3), range(3, 6)))
    base = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    kept = []
    for mask in range(1 << len(cross)):
        g = Graph(6, base + [e for i, e in enumerate(cross) if mask >> i & 1])
        cert = is_chordal(g)
        if cert and max(map(int.bit_count, cert.cliques)) == 3:
            kept.append(g)
    hosts = {
        Graph(6, [(perm[u], perm[v]) for u, v in g.edges()])
        for g in kept
        for perm in itertools.permutations(range(6))
    }
    return kept, sorted(hosts, key=lambda g: g.edges())


def test_disjoint_triangle_rule_matches_search_on_every_labelling():
    # the rule names the very F6 or F1 that the embedder finds first
    kept, hosts = disjoint_triangle_hosts()
    assert (len(kept), len(hosts)) == (64, 640)
    for g in hosts:
        expected = ref_induced_member_within(g, set(range(6)), ("F6", "F1"))
        assert _disjoint_triangle_witness(g, 0b111111) == expected
        assert _triangle_witness(g, is_chordal(g).cliques) == expected


def bench_inputs():
    """The benchmark's ``inputs.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    spec.loader.exec_module(inputs)
    return inputs


def bench_pools():
    """Every input of the three certify pools of the benchmark, seeds 1-3."""
    inputs = bench_inputs()
    for workload in ("certify_yes", "certify_no", "cli_check_verify"):
        for seed in (1, 2, 3):
            for inst in inputs.pool(workload, seed, random_chordal):
                yield Graph(inst.n, inst.edges)


def bench_host(workload, label):
    """The first host built by ``label`` in the seed-1 pool of ``workload``."""
    inst = next(i for i in bench_inputs().pool(workload, 1, random_chordal)
                if i.label == label)
    return Graph(inst.n, inst.edges)


def test_case_analysis_matches_reference_on_corpus_and_bench_pools(corpus8):
    checked = 0
    for g in [*corpus8, *bench_pools()]:
        cliques = is_chordal(g).cliques
        if cliques:
            # a K4 leaves no bipartizer; otherwise they are every triangle's
            k4 = max(map(int.bit_count, cliques)) > 3
            expected = frozenset() if k4 else frozenset(bits(reduce(and_, cliques)))
            assert bipartizer_set(g) == expected
            checked += 1
        assert solve_certifying(g).to_json() == ref_certify(g).to_json()
    assert checked > 1500


# ---------------------------------------------------------------------------
# bipartiteness and holes: the colour/parent/depth-list BFS and the
# dict-parent hole search, both following discovery-order parents
# ---------------------------------------------------------------------------


def ref_is_bipartite(g: Graph) -> BipartitenessCertificate:
    colour = [-1] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    for root in range(g.n):
        if colour[root] != -1:
            continue
        colour[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in g.neighbors(u):
                    if colour[v] == -1:
                        colour[v] = colour[u] ^ 1
                        parent[v] = u
                        depth[v] = depth[u] + 1
                        nxt.append(v)
                    elif colour[v] == colour[u]:
                        return BipartitenessCertificate(
                            None, ref_odd_cycle_from(u, v, parent, depth)
                        )
            queue = nxt
    return BipartitenessCertificate(tuple(colour), None)


def ref_odd_cycle_from(u, v, parent, depth):
    pu, pv = [u], [v]
    while depth[pu[-1]] > depth[pv[-1]]:
        pu.append(parent[pu[-1]])
    while depth[pv[-1]] > depth[pu[-1]]:
        pv.append(parent[pv[-1]])
    while pu[-1] != pv[-1]:
        pu.append(parent[pu[-1]])
        pv.append(parent[pv[-1]])
    return tuple(pu + pv[-2::-1])


def ref_hole_through(g, v, u, w):
    banned = (g.adj[v] | 1 << v) & ~(1 << u) & ~(1 << w)
    parent = {u: -1}
    queue = [u]
    while queue:
        nxt = []
        for x in queue:
            for y in bits(g.adj[x] & ~banned):
                if y in parent:
                    continue
                parent[y] = x
                if y == w:
                    path = [w]
                    while path[-1] != u:
                        path.append(parent[path[-1]])
                    return (v, *path[::-1])
                nxt.append(y)
        queue = nxt
    return None


def ref_find_hole(g, hint=None):
    """``_find_hole`` on ``ref_hole_through``: the hint, then every
    mid-path triple in order."""
    triples = [hint] if hint is not None else []
    for v in range(g.n):
        nb = list(bits(g.adj[v]))
        triples += [(v, u, w) for i, u in enumerate(nb) for w in nb[i + 1:]
                    if not g.has_edge(u, w)]
    for triple in triples:
        hole = ref_hole_through(g, *triple)
        if hole is not None and ref_verify_hole(g, hole):
            return hole
    raise ValueError("graph is chordal: no hole exists")


def ref_verify_hole(g, hole):
    """The pairwise hole check: consecutive vertices adjacent, all other
    pairs non-adjacent, len >= 4."""
    k = len(hole)
    if k < 4 or len(set(hole)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(hole[i], hole[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


@st.composite
def odd_cycle_hosts(draw):
    """Triangle-free and not bipartite: C5, C7 or C9 with pendant trees
    grown on it, relabelled at random, alone or beside a second such host,
    a tree or isolated vertices.  No layer edge closes a triangle here,
    so ``bipartizer_set`` tests the vertices of an odd cycle."""
    def one():
        k = draw(st.sampled_from([5, 7, 9]))
        edges = cycle_graph(k).edges()
        n = k + draw(st.integers(0, 12))
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(k, n)]
        perm = draw(st.permutations(range(n)))
        return Graph(n, [(perm[u], perm[v]) for u, v in edges])

    g = one()
    other = draw(st.sampled_from(["alone", "host", "tree", "isolated"]))
    if other == "host":
        g = disjoint_union(g, one())
    elif other == "tree":
        tree = random_chordal(draw(st.integers(1, 10)), 1.0, draw(st.integers(0, 99)))
        g = disjoint_union(tree, g)
    elif other == "isolated":
        g = disjoint_union(Graph(draw(st.integers(1, 4))), g)
    return g


TRIANGLE = [(0, 1), (0, 2), (1, 2)]


@st.composite
def sparse_hosts(draw):
    """A random_chordal graph (a tree at bias 1.0) beside up to three
    small trees and perhaps a triangle with pendant paths, among many
    isolated vertices, relabelled at random: one to five components with
    an edge, so the triangle's need not come first."""
    seeds = st.integers(0, 2**32)
    parts = [random_chordal(draw(st.integers(1, 30)), draw(st.sampled_from([0.5, 1.0])),
                            draw(seeds))]
    for _ in range(draw(st.integers(0, 3))):
        parts.append(random_chordal(draw(st.integers(1, 10)), 1.0, draw(seeds)))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
        parts.append(with_paths(3, TRIANGLE, lengths))
    parts.append(Graph(draw(st.integers(0, 60))))
    g = reduce(disjoint_union, parts)
    perm = draw(st.permutations(range(g.n)))
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def nx_depth_facts(g):
    """The bitset of the vertices at odd depth from the lowest vertex of
    their component, and the number of components with an edge."""
    nxg = nx_graph(g)
    odd = edge_components = 0
    for c in nx.connected_components(nxg):
        depth = nx.single_source_shortest_path_length(nxg, min(c))
        odd |= sum(1 << v for v in c if depth[v] % 2)
        edge_components += len(c) > 1
    return odd, edge_components


def check_traversals(g):
    # components by their lowest vertex; the sweep's depth parity from it
    # and its count of components with an edge, on any graph, and carried
    # by the certificate of a chordal one
    nxg = nx_graph(g)
    comps = sorted((sorted(c) for c in nx.connected_components(nxg)), key=min)
    assert components(g) == [frozenset(c) for c in comps]
    facts = nx_depth_facts(g)
    assert _lex_bfs(g)[3:] == facts
    cert = is_chordal(g)
    if cert:
        assert (cert.odd, cert.edge_components) == facts
    bip = is_bipartite(g)
    ref = ref_is_bipartite(g)
    assert bip.colouring == ref.colouring
    if bip.odd_cycle is not None:
        cycle = bip.odd_cycle
        k = len(cycle)
        assert k % 2 == 1 and len(set(cycle)) == k
        assert all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(k))
        # the closing edge (last, first) lies inside one breadth-first
        # layer from the lowest vertex of its component
        root = min(nx.node_connected_component(nxg, cycle[0]))
        depth = nx.single_source_shortest_path_length(nxg, root)
        assert depth[cycle[0]] == depth[cycle[-1]]
    hole = cert.hole
    ref_hole = ref_is_chordal(g)[1]
    assert (hole is None) == (ref_hole is None)
    if hole is not None:
        assert verify_hole(g, hole) and len(hole) == len(ref_hole)
    assert bipartizer_set(g) == ref_bipartizer_set(g)


@settings(max_examples=400, deadline=None)
@given(st.one_of(any_graphs, case_analysis_graphs(), odd_cycle_hosts(), sparse_hosts()))
@example(disjoint_union(random_chordal(50, 1.0, 3), Graph(450)))
@example(disjoint_union(Graph(450), random_chordal(50, 1.0, 3)))
def test_traversals_match_references(g):
    check_traversals(g)


@settings(max_examples=300, deadline=None)
@given(sparse_hosts())
# F1 from a path that comes before the triangle's component
@example(disjoint_union(Graph(3), disjoint_union(path_graph(3), complete_graph(3))))
# F1 from a second triangle
@example(disjoint_union(complete_graph(3), disjoint_union(Graph(2), complete_graph(3))))
# yes: a triangle with paths among isolated vertices, and a forest
@example(disjoint_union(Graph(4), disjoint_union(with_paths(3, TRIANGLE, [2, 0, 1]), Graph(3))))
@example(disjoint_union(path_graph(4), disjoint_union(Graph(2), path_graph(3))))
def test_sweep_facts_and_certificates_match_references_on_mixed_hosts(g):
    cert = is_chordal(g)
    assert (cert.odd, cert.edge_components) == nx_depth_facts(g)
    assert solve_certifying(g).to_json() == ref_certify(g).to_json()


def test_traversals_match_references_on_odd_cycle_families():
    # a C_k with one pendant path per cycle vertex, every length to 3
    for k in (5, 7, 9):
        for length in range(4):
            edges = cycle_graph(k).edges()
            n = k
            for v in range(k):
                for step in range(length):
                    edges.append((v if step == 0 else n - 1, n))
                    n += 1
            g = Graph(n, edges)
            check_traversals(g)
            assert bipartizer_set(g) == frozenset(range(k))


def star(n, hub=0):
    return Graph(n, [(hub, v) for v in range(n) if v != hub])


def nx_layers(g, sources, removed):
    """Breadth-first layers of g minus ``removed`` from ``sources``, as
    bitsets, by networkx."""
    nxg = nx_graph(g)
    nxg.remove_nodes_from(bits(removed))
    return [sum(1 << v for v in layer) for layer in nx.bfs_layers(nxg, list(bits(sources)))]


def selector_calls(monkeypatch):
    """The masks the layer search builds a selector for, as it goes."""
    calls = []
    monkeypatch.setattr("mpartition.graph.selector",
                        lambda n, mask: calls.append(mask) or selector(n, mask))
    return calls


def test_layer_search_matches_networkx_across_the_wide_layer_rule(monkeypatch):
    # hosts with layers on both sides of the rule that sends a wide layer
    # through one pass over a selector, from one and from several sources,
    # with and without removed vertices
    calls = selector_calls(monkeypatch)
    rng = random.Random(7)
    hosts = [star(2001), random_chordal(2000, 0.5, 1), random_chordal(2000, 0.5, 2),
             bench_host("certify_no", "no_fan100")]
    for g in hosts:
        calls.clear()
        expanded = 0
        for count in (1, 1, 5, 40):
            sources = sum(1 << v for v in rng.sample(range(g.n), count))
            for share in (0, 10, 3):
                removed = 0 if not share else sum(
                    1 << v for v in range(g.n) if rng.randrange(share) == 0) & ~sources
                layers = bfs_layers(g, sources, removed)
                assert layers == nx_layers(g, sources, removed)
                expanded += len(layers)
        assert 0 < len(calls) < expanded


def test_only_wide_layers_build_a_selector(monkeypatch):
    calls = selector_calls(monkeypatch)
    assert bfs_layers(path_graph(2000), 1) == [1 << v for v in range(2000)]
    assert calls == []
    assert bfs_layers(star(2001), 1) == [1, (1 << 2001) - 2]
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the hole through a failed PEO check, and the O(k) hole check
# ---------------------------------------------------------------------------


def failing_triples(g):
    """Every (v, parent, w) where the PEO check fails, not only the last:
    each vertex v of the sweep's order, its neighbour visited last before
    it, and each earlier neighbour of v that the parent misses."""
    order = _lex_bfs(g)[0]
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [u for u in bits(g.adj[v]) if pos[u] < pos[v]]
        if earlier:
            p = max(earlier, key=pos.__getitem__)
            yield from ((v, p, w) for w in earlier if w != p and not g.has_edge(p, w))


def check_holes_through_failures(g):
    triples = list(failing_triples(g))
    assert bool(triples) == (not nx.is_chordal(nx_graph(g)))
    for v, p, w in triples:
        hole = _hole_through(g, v, p, w)
        assert hole is not None and hole[:2] == (v, p) and hole[-1] == w
        assert ref_verify_hole(g, hole) and verify_hole(g, hole)
    # the sweep keeps the failure of the last vertex visited
    failure = _lex_bfs(g)[2]
    if not triples:
        assert failure is None
    else:
        v, p, _ = triples[-1]
        assert failure == (v, p, sum(1 << w for u, _, w in triples if u == v))


@st.composite
def cycles_with_chords_and_tails(draw):
    """C_k, 4 <= k <= 12, with some chords and pendant paths, relabelled."""
    k = draw(st.integers(4, 12))
    edges = cycle_graph(k).edges()
    chord = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    edges += [(u, v) for u, v in draw(st.lists(chord, max_size=k)) if u != v]
    n = k
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, n - 1))
        for step in range(draw(st.integers(1, 4))):
            edges.append((at if step == 0 else n - 1, n))
            n += 1
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_graphs, cycles_with_chords_and_tails()))
def test_sweep_matches_two_pass_reference(g):
    # the same PEO, cliques and hole as LexBFS then a reversed pass
    assert is_chordal(g) == ref_two_pass_is_chordal(g)


def test_sweep_matches_references_on_every_graph_up_to_six_vertices():
    # all 33868 labelled graphs on at most 6 vertices: every small way of
    # labelling a vertex once or again, emptying class 0, and closing a hole
    count = holed = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
            cert = is_chordal(g)
            assert cert == ref_two_pass_is_chordal(g)
            sweep = _lex_bfs(g)
            assert sweep[0] == ref_partition_lex_bfs(g)[0]
            assert sweep[3:] == nx_depth_facts(g)
            count += 1
            holed += not cert
    assert count == 33868 and holed > 0


def test_sweep_matches_two_pass_reference_on_corpus_and_bench_pools(corpus8):
    # each bench host also with an edge between its first and last vertex,
    # which mostly closes a hole far into the order
    holed = 0
    for g in [*corpus8, *bench_pools()]:
        assert is_chordal(g) == ref_two_pass_is_chordal(g)
        if g.n > 8:
            g = Graph(g.n, g.edges() + [(0, g.n - 1)])
            cert = is_chordal(g)
            assert cert == ref_two_pass_is_chordal(g)
            holed += not cert
    assert holed > 100


def test_sweep_matches_references_on_large_hosts():
    # a star (quiet visits); K2,498 with hubs 0 and 499 (at every leaf but
    # the first, the second hub is the one labelled neighbour left and
    # the only member of its class, so it stays); the square of a path
    # (likewise the next vertex, at every visit); a Fan(100) host (single
    # moves along the spoke path); each also with the edge (0, n - 1),
    # which closes a hole in the last two and removes every hole of K2,498
    n = 500
    hosts = [
        star(n, 250),
        Graph(n, [(hub, v) for hub in (0, n - 1) for v in range(1, n - 1)]),
        Graph(n, [(u, v) for u in range(n) for v in (u + 1, u + 2) if v < n]),
        bench_host("certify_no", "no_fan100"),
    ]
    holed = []
    for g in hosts:
        for h in (g, Graph(n, g.edges() + [(0, n - 1)])):
            cert = is_chordal(h)
            assert cert == ref_two_pass_is_chordal(h)
            assert _lex_bfs(h)[0] == ref_partition_lex_bfs(h)[0]
            holed.append(not cert)
    assert holed == [False, False, True, False, False, True, False, True]


def lone_neighbour_hosts():
    """Pairs of a host and the host with one edge added.  A hub over spoke
    paths with pendants on the even positions, and a relabelled Fan(30)
    host with 30 bare spoke paths, each with an edge between two
    pendants (a 5-hole through the hub); a star with an edge between two
    leaves (a triangle); a long path and the cycle that closes it; 40
    isolated vertices before and after the first hub host."""
    paths = [list(range(i, i + 20)) for i in range(0, 400, 20)]
    hub = hub_host(paths, [v for path in paths for v in path[::2]])
    # pendants 400 (on spoke 0) and 599 (on spoke 398), hub 600
    hub_e = Graph(hub.n, hub.edges() + [(400, 599)])
    fan_paths = [list(range(60))] + [list(range(i, i + 10)) for i in range(60, 360, 10)]
    fan = hub_host(fan_paths, [0, 59])
    fan_e = Graph(fan.n, fan.edges() + [(360, 361)])
    n = 300
    path = path_graph(n)
    iso = Graph(40)
    return [
        (hub, hub_e),
        (relabelled(fan, random.Random(30)), relabelled(fan_e, random.Random(30))),
        (star(n, 150), Graph(n, star(n, 150).edges() + [(1, 2)])),
        (path, Graph(n, path.edges() + [(0, n - 1)])),
        (disjoint_union(iso, hub), disjoint_union(iso, hub_e)),
        (disjoint_union(hub, iso), disjoint_union(hub_e, iso)),
    ]


def test_sweep_matches_references_where_lone_neighbours_leave_the_head():
    # A visit whose one labelled neighbour w shares the head class makes
    # w the next visit, with no class built.  Each spoke visit on a hub
    # host leaves the next spoke of its path in the hub's class of
    # spokes, so that fires 378 times on the hub host and 154 on the
    # Fan(30) host, and as often with the edge added, where the hole
    # search then runs; the star with its triangle fires it once, and the
    # path and the star alone have only quiet and fresh moves.  The
    # Hypothesis references reach 40 vertices only.
    holed = []
    for pair in lone_neighbour_hosts():
        for g in pair:
            assert _lex_bfs(g)[0] == ref_lex_bfs(g)
            cert = is_chordal(g)
            assert (cert.peo, cert.hole) == ref_is_chordal(
                g, lambda g, hint: _hole_through(g, *hint))
            assert cert == ref_two_pass_is_chordal(g)
            holed.append(not cert)
    assert holed == [False, True] * 2 + [False, False] + [False, True] * 3


def test_hole_comes_from_the_last_failing_vertex():
    # two 4-cycles 0-1-2-3 and 2-4-5-6 sharing vertex 2: LexBFS visits
    # 0, 1, 3, 2, 4, 6, 5, and the check fails at 2 and again at 5
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 2)])
    order, _, failure, odd, edge_components = _lex_bfs(g)
    assert order == [0, 1, 3, 2, 4, 6, 5]
    assert (odd, edge_components) == (0b1011010, 1)
    assert [t[0] for t in failing_triples(g)] == [2, 5]
    assert failure == (5, 6, 1 << 4)
    assert is_chordal(g) == ChordalityCertificate(None, (5, 6, 2, 4))
    assert is_chordal(g) == ref_two_pass_is_chordal(g)


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_graphs, cycles_with_chords_and_tails()))
def test_every_failed_check_gives_a_hole(g):
    check_holes_through_failures(g)


def test_every_failed_check_gives_a_hole_on_wheels():
    for k in range(4, 20):
        rim = cycle_graph(k).edges()
        for hub in (0, k // 2, k):  # the hub first, in the middle, last
            perm = [v + (v >= hub) for v in range(k)]
            g = Graph(k + 1, [(perm[u], perm[v]) for u, v in rim]
                      + [(hub, perm[v]) for v in range(k)])
            check_holes_through_failures(g)
            assert len(is_chordal(g).hole) == k


@st.composite
def hole_candidates(draw):
    """A graph and a vertex tuple: short, repeating, arbitrary, or a
    rotation or reversal of the graph's hole, possibly with one vertex
    replaced."""
    g = draw(st.one_of(any_graphs, cycles_with_chords_and_tails()))
    vertex = st.integers(0, max(g.n - 1, 0))
    hole = is_chordal(g).hole
    if hole is None or draw(st.booleans()):
        if g.n == 0:
            return g, ()
        return g, tuple(draw(st.lists(vertex, max_size=min(g.n + 2, 12))))
    i = draw(st.integers(0, len(hole) - 1))
    cand = hole[i:] + hole[:i]
    if draw(st.booleans()):
        cand = cand[::-1]
    if draw(st.booleans()):
        j = draw(st.integers(0, len(cand) - 1))
        cand = cand[:j] + (draw(vertex),) + cand[j + 1:]
    return g, cand


@settings(max_examples=500, deadline=None)
@given(hole_candidates())
def test_verify_hole_matches_pairwise_reference(case):
    g, cand = case
    assert verify_hole(g, cand) == ref_verify_hole(g, cand)


def test_verify_hole_rejects_short_repeated_and_chorded_tuples():
    c6 = cycle_graph(6)
    assert verify_hole(c6, (0, 1, 2, 3, 4, 5))
    assert verify_hole(c6, (3, 2, 1, 0, 5, 4))
    assert not verify_hole(c6, (0, 1, 2))
    assert not verify_hole(c6, (0, 1, 2, 3, 4, 5, 0))
    assert not verify_hole(c6, (0, 1, 2, 1, 0, 5))
    # a walk to and fro along one edge: each vertex sees its two neighbours
    assert not verify_hole(Graph(3, [(0, 2)]), (0, 2, 0, 2, 0, 2))
    assert not verify_hole(c6, (0, 1, 0, 1))
    assert not verify_hole(c6, (0, 1, 2, 4, 3, 5))
    assert not verify_hole(Graph(6, c6.edges() + [(0, 3)]), (0, 1, 2, 3, 4, 5))
    assert not verify_hole(c6, (0, 1, 2, 3, 4, 6))
    assert not verify_hole(c6, (-1, 0, 1, 2))


# ---------------------------------------------------------------------------
# the pattern order of the embedding search, and the catalogue scan
# ---------------------------------------------------------------------------


def ref_pattern_order(h: Graph) -> list[int]:
    # Place high-degree vertices first and keep each new vertex attached to
    # the placed prefix when possible, so constraint masks prune early.
    remaining = set(range(h.n))
    order: list[int] = []
    while remaining:
        best = None
        for v in sorted(remaining):
            placed_neighbors = sum(1 for u in order if h.has_edge(u, v))
            key = (-placed_neighbors, -h.degree(v), v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        remaining.discard(best[1])
    return order


def ref_embed(g: Graph, h: Graph) -> dict[int, int] | None:
    """Injective map of h into g that preserves edges and non-edges.
    Deterministic: candidates tried in ascending vertex order."""
    if h.n > g.n:
        return None
    order = _pattern_order(h)
    gdeg = [g.degree(v) for v in range(g.n)]
    hdeg = [h.degree(v) for v in range(h.n)]
    full = (1 << g.n) - 1
    image = [-1] * h.n

    def place(step: int, used: int) -> bool:
        if step == len(order):
            return True
        x = order[step]
        cand = full & ~used
        for u in order[:step]:
            if h.has_edge(u, x):
                cand &= g.adj[image[u]]
            else:
                cand &= ~g.adj[image[u]]
        for v in bits(cand):
            if gdeg[v] < hdeg[x]:
                continue
            image[x] = v
            if place(step + 1, used | (1 << v)):
                return True
        image[x] = -1
        return False

    if place(0, 0):
        return {x: image[x] for x in range(h.n)}
    return None


def test_pattern_order_matches_reference_on_catalogue_and_fans():
    for tag in FINITE_MINIMAL_TAGS:
        h = catalogue_graph(tag)
        assert _pattern_order(h) == ref_pattern_order(h)
    for k in range(2, 41):
        assert _pattern_order(fan(k)) == ref_pattern_order(fan(k))


@settings(max_examples=300, deadline=None)
@given(any_graphs)
def test_pattern_order_matches_reference(g):
    assert _pattern_order(g) == ref_pattern_order(g)


def ref_find_obstruction_by_scan(g: Graph):
    """F1..F7 in tag order, then every fan with at most n vertices."""
    for tag in FINITE_MINIMAL_TAGS:
        witness = contains_induced(g, catalogue_graph(tag))
        if witness is not None:
            return ObstructionKind(tag), witness
    k = 2
    while 2 * k + 3 <= g.n:
        witness = contains_induced(g, fan(k))
        if witness is not None:
            return fan_kind(k), witness
        k += 1
    return None


@st.composite
def small_graphs(draw):
    """A graph on at most 12 vertices of any density, holes included, or a
    random_chordal graph of that size."""
    n = draw(st.integers(0, 12))
    if n and draw(st.booleans()):
        return random_chordal(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))
    p = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_scan_matches_unbounded_reference(g):
    assert find_obstruction_by_scan(g) == ref_find_obstruction_by_scan(g)


def test_scan_matches_unbounded_reference_on_fan_hosts():
    # with m <= 1 the fan's apex has the maximum degree 2k, the bound itself
    for k in range(2, 9):
        for m in range(5):
            g = disjoint_union(fan(k), path_graph(m))
            assert find_obstruction_by_scan(g) == ref_find_obstruction_by_scan(g)


def check_embed(g: Graph, h: Graph) -> None:
    """The whole map, keys in the same order, or both None."""
    got, want = _embed(g, h), ref_embed(g, h)
    assert got == want
    assert got is None or list(got.items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(small_graphs(), any_graphs, st.data())
def test_embed_matches_reference(g, h, data):
    # Patterns have at most six vertices: a search that fails only at its
    # last step tries every ordered placement of the earlier ones, up to
    # 12!/6! of them for a seven-vertex pattern in a complete host.
    check_embed(g, induced(h, range(min(h.n, 6))))
    # a pattern the host is sure to hold: the subgraph it induces on a drawn set
    keep = data.draw(st.sets(st.integers(0, g.n - 1), max_size=6)) if g.n else set()
    check_embed(g, induced(g, keep))


def test_embed_matches_reference_on_corpus8(corpus8):
    patterns = [catalogue_graph(tag) for tag in FINITE_MINIMAL_TAGS] + [fan(2)]
    for g in corpus8:
        for h in patterns:
            check_embed(g, h)


# ---------------------------------------------------------------------------
# canonical labelling: the search over every colour-respecting order,
# twins included, the refinement that called bits() every round and ran
# one confirming round, and the growth from every clique
# ---------------------------------------------------------------------------


def ref_refinement_classes(g: Graph) -> list[list[int]]:
    """Partition vertices by iterated neighbour-colour refinement.

    Class order and membership depend only on the isomorphism type, so a
    canonical relabelling may be searched within colour-respecting
    permutations only.
    """
    colour = [g.degree(v) for v in range(g.n)]
    while True:
        sig = [
            (colour[v], tuple(sorted(colour[w] for w in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[sig[v]] for v in range(g.n)]
        if new == colour:
            break
        colour = new
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(colour[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def ref_canonical_labelling(g: Graph) -> list[int]:
    """Vertex order whose adjacency bitstring is lexicographically minimal
    among all colour-respecting orders.  Isomorphic graphs map to the same
    relabelled graph."""
    n = g.n
    if n == 0:
        return []
    classes = ref_refinement_classes(g)
    slot_class = [ci for ci, cls in enumerate(classes) for _ in cls]
    available = [list(cls) for cls in classes]
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    cols: list[int] = []
    perm: list[int] = []

    def search(i: int, equal: bool) -> None:
        nonlocal best_cols, best_perm
        if i == n:
            if best_cols is None or cols < best_cols:
                best_cols = cols.copy()
                best_perm = perm.copy()
            return
        cls = slot_class[i]
        for v in list(available[cls]):
            col = 0
            for j, u in enumerate(perm):
                col |= (g.adj[u] >> v & 1) << j
            if equal and best_cols is not None and col > best_cols[i]:
                continue
            nxt_equal = equal and (best_cols is None or col == best_cols[i])
            available[cls].remove(v)
            perm.append(v)
            cols.append(col)
            search(i + 1, nxt_equal)
            cols.pop()
            perm.pop()
            available[cls].append(v)

    search(0, True)
    assert best_perm is not None
    return best_perm


def ref_canonical_form(g: Graph) -> Graph:
    perm = ref_canonical_labelling(g)
    pos = {v: i for i, v in enumerate(perm)}
    return Graph(g.n, [(pos[u], pos[v]) for u, v in g.edges()])


def ref_canonical_key(g: Graph) -> str:
    return to_graph6(ref_canonical_form(g))


def ref_nonempty_cliques(g: Graph):
    """All non-empty cliques of g as bitsets (ascending-id extension)."""
    stack = [(1 << v, g.adj[v] & ~((1 << (v + 1)) - 1)) for v in range(g.n)]
    while stack:
        clique, ext = stack.pop()
        yield clique
        for v in bits(ext):
            stack.append((clique | 1 << v, ext & g.adj[v] & ~((1 << (v + 1)) - 1)))


def grown_children(parent: Graph, cliques) -> list[Graph]:
    """parent with one new vertex attached to each clique in turn."""
    n = parent.n + 1
    return [Graph(n, parent.edges() + [(u, n - 1) for u in bits(clique)])
            for clique in cliques]


def ref_enumerate_connected_chordal(max_n: int) -> list[Graph]:
    """Simplicial growth from every clique with the reference canonical
    forms, each level in key order."""
    level = {ref_canonical_key(Graph(1)): Graph(1)}
    out = [level[key] for key in sorted(level)]
    for n in range(2, max_n + 1):
        grown: dict[str, Graph] = {}
        for parent in level.values():
            for child in grown_children(parent, ref_nonempty_cliques(parent)):
                canon = ref_canonical_form(child)
                grown.setdefault(to_graph6(canon), canon)
        out.extend(grown[key] for key in sorted(grown))
        level = grown
    return out


def has_twins(g: Graph) -> bool:
    return any(g.adj[a] & ~(1 << b) == g.adj[b] & ~(1 << a)
               for a, b in itertools.combinations(range(g.n), 2))


def reference_orders(g: Graph) -> int:
    """The colour-respecting orders that the reference may visit."""
    return math.prod(math.factorial(len(c)) for c in ref_refinement_classes(g))


def check_canonical(g: Graph) -> None:
    assert _refinement_classes(g) == ref_refinement_classes(g)
    assert canonical_key(g) == ref_canonical_key(g)
    # the graph built from the search's columns is the key's graph
    assert to_graph6(_from_columns(_canonical_columns(g))) == canonical_key(g)


def test_canonical_key_matches_reference_on_relabelled_corpus(corpus8):
    rng = random.Random(17)
    for g in corpus8:
        h = relabelled(g, rng)
        check_canonical(h)
        assert canonical_key(h) == to_graph6(g)


@st.composite
def canonical_hosts(draw):
    """A graph on at most 9 vertices of any density, with few enough
    colour-respecting orders for the reference."""
    n = draw(st.integers(0, 9))
    p = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@settings(max_examples=200, deadline=None)
@given(canonical_hosts())
def test_canonical_key_matches_reference(g):
    assume(reference_orders(g) <= math.factorial(8))
    check_canonical(g)


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def complete_multipartite(sizes) -> Graph:
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if part[u] != part[v]])


def integer_partitions(n: int, most: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield first, *rest


def blown_up(g: Graph, v: int, copies: int, true_twins: bool) -> Graph:
    """g with ``copies`` new twins of v, adjacent to v and each other if
    ``true_twins``."""
    n = g.n + copies
    new = range(g.n, n)
    edges = g.edges() + [(u, w) for w in new for u in bits(g.adj[v])]
    if true_twins:
        clique = [v, *new]
        edges += list(itertools.combinations(clique, 2))
    return Graph(n, edges)


def twin_hosts(rng, count=60, base=(3, 6), most=9):
    """``count`` random chordal graphs on ``base`` (a range) vertices with
    one to three vertices blown up into twin classes, ``most`` vertices at
    most.  True twins may blow up any vertex; false twins only a simplicial
    one, which keeps the graph chordal."""
    for _ in range(count):
        g = random_chordal(rng.randint(*base), rng.random(), rng.randrange(2**32))
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(g.n)
            simplicial = all(g.adj[a] >> b & 1 for a, b in
                             itertools.combinations(bits(g.adj[v]), 2))
            copies = min(rng.randint(1, 3), most - g.n)
            if copies:
                g = blown_up(g, v, copies, rng.random() < 0.5 or not simplicial)
        yield g


def test_canonical_key_matches_reference_on_twin_hosts():
    rng = random.Random(4)
    hosts = [star_graph(k) for k in range(1, 9)]
    hosts += [complete_multipartite(sizes)
              for n in range(1, 10) for sizes in integer_partitions(n)]
    blown = list(twin_hosts(rng))
    assert all(is_chordal(g) for g in blown)
    assert sum(map(has_twins, blown)) == len(blown)
    for g in hosts + blown:
        h = relabelled(g, rng)
        check_canonical(h)
        assert canonical_key(h) == canonical_key(g)


def test_enumeration_matches_reference_enumeration():
    assert list(enumerate_connected_chordal(7)) == ref_enumerate_connected_chordal(7)


def test_twin_prefix_cliques_grow_every_child():
    # swapping twins maps cliques to cliques, so growing from the cliques
    # that meet each twin class in a prefix reaches every child's class
    for g in ref_enumerate_connected_chordal(7):
        pruned = list(_nonempty_cliques(g))
        every = set(ref_nonempty_cliques(g))
        assert len(set(pruned)) == len(pruned) and set(pruned) <= every
        assert ({canonical_key(c) for c in grown_children(g, pruned)}
                == {canonical_key(c) for c in grown_children(g, every)})


def ref_simplicial(g: Graph) -> int:
    """The vertices whose neighbours are pairwise adjacent, as a bitset."""
    return sum(1 << v for v in range(g.n)
               if all(g.has_edge(a, b) for a, b in itertools.combinations(bits(g.adj[v]), 2)))


def test_child_simplicial_matches_brute_force(corpus7):
    # every (parent, clique) pair up to 7 vertices, every clique of each
    pairs = [(g, clique) for g in corpus7 for clique in ref_nonempty_cliques(g)]
    # random chordal hosts with random cliques: a clique grown greedily
    # around a random vertex, then a random non-empty part of it
    rng = random.Random(20)
    for _ in range(300):
        g = random_chordal(rng.randint(2, 40), rng.random(), rng.randrange(2**32))
        clique = [rng.randrange(g.n)]
        cand = g.adj[clique[0]]
        while cand:
            clique.append(rng.choice(list(bits(cand))))
            cand &= g.adj[clique[-1]]
        pairs.append((g, sum(1 << v for v in rng.sample(clique, rng.randint(1, len(clique))))))
    assert len(pairs) > 3000
    for g, clique in pairs:
        simplicial = _simplicial(g.adj)
        assert simplicial == ref_simplicial(g)
        (child,) = grown_children(g, [clique])
        assert _child_simplicial(g.adj, simplicial, clique) == ref_simplicial(child)


def test_least_simplicial_children_reach_every_class():
    # each level grows from every class of the level before, built here from
    # every twin-prefix child; the children whose new vertex has the least
    # invariant among the simplicial vertices must reach the same classes
    level = [Graph(1)]
    labelled = total = 0
    for n in range(2, 9):
        every: dict[str, Graph] = {}
        kept: set[str] = set()
        for g in level:
            simplicial = _simplicial(g.adj)
            cliques = list(_nonempty_cliques(g))
            for clique, child in zip(cliques, grown_children(g, cliques)):
                assert _refinement_classes(child) == ref_refinement_classes(child)
                key = canonical_key(child)
                every.setdefault(key, from_graph6(key))
                child_simplicial = _child_simplicial(g.adj, simplicial, clique)
                if _least_simplicial(list(child.adj), child_simplicial):
                    kept.add(key)
                    labelled += 1
                total += 1
        assert kept == set(every), n
        level = list(every.values())
    assert (labelled, total) == (2296, 5764)


def test_canonical_keys_past_the_reference():
    # 10-15 vertices, where the reference may try up to 15! orders and the
    # labelling lists bits without its table: keys must survive relabelling
    # and tell isomorphism classes apart.  About half the random hosts are
    # trees, which often share a degree sequence.
    rng = random.Random(10)
    hosts = [random_chordal(rng.randint(10, 15), rng.choice([1.0, rng.random()]),
                            rng.randrange(2**32)) for _ in range(50)]
    hosts += twin_hosts(rng, 50, (9, 13), 15)
    assert all(10 <= g.n <= 15 for g in hosts)
    assert {g.n for g in hosts} == set(range(10, 16))
    pool = hosts + [relabelled(g, rng) for g in hosts]
    keys = [canonical_key(g) for g in pool]
    for g, key in zip(pool, keys):
        if g.n >= 13:
            assert _refinement_classes(g) == ref_refinement_classes(g)
        assert to_graph6(_from_columns(_canonical_columns(g))) == key
        for _ in range(3):
            assert canonical_key(relabelled(g, rng)) == key
    nxs = [nx_graph(g) for g in pool]
    degrees = [sorted(d for _, d in h.degree) for h in nxs]
    isomorphic = near_misses = 0
    for i, j in itertools.combinations(range(len(pool)), 2):
        same = nx.is_isomorphic(nxs[i], nxs[j])
        assert (keys[i] == keys[j]) == same
        isomorphic += same
        near_misses += not same and degrees[i] == degrees[j]
    assert isomorphic >= len(hosts)  # each host and its relabelled copy
    assert near_misses > 0


def test_twin_heavy_graphs_past_the_reference_canonicalise():
    # 12! orders of the star's leaves, and 12! in the one refinement class
    # of K6,6 and of K4,4,4
    rng = random.Random(6)
    for g in (star_graph(12), complete_multipartite((6, 6)),
              complete_multipartite((4, 4, 4))):
        canon = from_graph6(canonical_key(g))
        assert nx.is_isomorphic(nx_graph(canon), nx_graph(g))
        for _ in range(5):
            assert from_graph6(canonical_key(relabelled(g, rng))) == canon
