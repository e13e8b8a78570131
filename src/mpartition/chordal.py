"""Chordality with certificates, random generation, and exhaustive
enumeration of small connected chordal graphs up to isomorphism.

Recognition is one lexicographic BFS sweep that checks the reversed visit
order as a perfect elimination ordering as it goes.  LexBFS works by
ordered partition refinement (Rose, Tarjan & Lueker 1976): the unvisited
vertices sit in a list of classes of equal label, kept as bitsets;
visiting a vertex moves its unvisited neighbours of each class into a new
class just before it, and the next vertex is the lowest id of the first
class.  The last class holds the vertices no visit has labelled yet, and a
visit moves its neighbours there in one mask step; only a neighbour that
is already labelled is handled on its own.  The edges that first label a
vertex form a spanning forest, so the sweep takes a constant number of
steps per vertex plus one per edge outside that forest (m - n + c of them
for c components, none on a forest), each a bitset operation on n-bit
ints.
Each visit also tests the vertex's earlier neighbours against the last
of them.  A failed test yields a hole (a chordless cycle of length at
least four) through the last failing vertex by one layer search.
LexBFS is a breadth-first search that visits each component whole from
its lowest vertex, so the sweep also 2-colours each component by depth
parity, one mask step per visit, and counts the components with an edge.

Enumeration grows graphs one simplicial vertex at a time: removing a
simplicial vertex from a connected graph keeps it connected, so every
connected chordal graph on k+1 vertices arises from one on k vertices by
attaching a new vertex to a non-empty clique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, bfs_layers, bits, lowest, to_graph6, tree_path


@dataclass(frozen=True)
class ChordalityCertificate:
    """A perfect elimination ordering, or a hole (chordless cycle >= 4).

    A PEO comes with ``cliques``: for each vertex v with two or more
    neighbours later in the PEO, in PEO order, the bitset of v and those
    neighbours.  Each is a clique and every clique of the graph lies in
    one of them (Gavril 1972), so the graph has a triangle iff ``cliques``
    is non-empty and a K4 iff one of them has four members; without a K4
    each triangle is exactly one of them.  A PEO also comes with ``odd``,
    the bitset of the vertices at odd depth from the lowest vertex of their
    component, and ``edge_components``, the number of components with an edge.
    """

    peo: tuple[int, ...] | None
    hole: tuple[int, ...] | None
    cliques: tuple[int, ...] = ()
    odd: int = 0
    edge_components: int = 0

    def __bool__(self) -> bool:
        return self.peo is not None


def _lex_bfs(g: Graph) -> tuple[list[int], list[int], tuple | None, int, int]:
    """One LexBFS sweep: the visit order, its PEO cliques, the last PEO
    check failure ``(v, p, bad)`` or None (p is v's neighbour visited last
    before it, ``bad`` the bitset of v's earlier neighbours that p
    misses), the odd-depth bitset and the count of components with an edge."""
    n = g.n
    adj = g.adj
    order: list[int] = []
    cliques: list[int] = []
    failure = None
    odd = edge_components = 0
    # Classes of unvisited vertices with equal labels, highest label first:
    # masks by class id, linked through prev/nxt from head.  Class 0 holds
    # the unlabelled vertices and stays last, even when empty.  A vertex's
    # class is cls[w] once two visits have labelled it, else the class
    # opened[f] that its one labeller f opened; class ids are never
    # reused.  parent[w], the last labeller, is only kept from the second
    # label on: it is read only for a vertex with two or more earlier
    # neighbours.
    members = [(1 << n) - 1]
    prev = [-1]
    nxt = [-1]
    cls = [-1] * n
    opened = [0] * n
    parent = [-1] * n
    head = 0
    unvisited = (1 << n) - 1
    for _ in range(n):
        first = members[head]
        low = first & -first
        v = low.bit_length() - 1
        order.append(v)
        if head == 0 and adj[v]:  # no labelled vertex left: v starts a component
            edge_components += 1
        unvisited ^= low
        members[head] = first ^ low
        if first == low:
            head = nxt[head]
            if head >= 0:
                prev[head] = -1
        nb = adj[v] & unvisited
        # the reverse is a PEO iff v's earlier neighbours see the last one, p
        earlier = adj[v] ^ nb
        if earlier & (earlier - 1):
            p = parent[v]
            bad = earlier & ~(adj[p] | 1 << p)
            if bad:
                failure = v, p, bad
            cliques.append(earlier | low)
        fresh = nb & members[0]
        if fresh:
            # v's unlabelled neighbours, a layer below v, move as one class
            # just before class 0
            if not odd & low:
                odd |= fresh
            d = opened[v] = len(members)
            members.append(fresh)
            members[0] ^= fresh
            q = prev[0]
            prev.append(q)
            nxt.append(0)
            prev[0] = d
            if q < 0:
                head = d
            else:
                nxt[q] = d
            nb ^= fresh
        if not nb:
            continue
        split: dict[int, int] = {}
        rest = nb
        while rest:  # bits(nb), inlined: v's neighbours labelled before
            lw = rest & -rest
            w = lw.bit_length() - 1
            rest ^= lw
            parent[w] = v
            c = cls[w]
            if c < 0:  # labelled once before, by the other visited neighbour
                c = opened[((adj[w] & ~unvisited) ^ low).bit_length() - 1]
            d = split.get(c)
            if d is None:
                # neighbours of v outrank the rest of their class
                d = split[c] = len(members)
                members.append(0)
                q = prev[c]
                prev.append(q)
                nxt.append(c)
                prev[c] = d
                if q < 0:
                    head = d
                else:
                    nxt[q] = d
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
    cliques.reverse()
    return order, cliques, failure, odd, edge_components


def verify_hole(g: Graph, hole: tuple[int, ...]) -> bool:
    """Consecutive vertices adjacent, all other pairs non-adjacent, len >= 4:
    within the bitset of the hole, each vertex sees exactly its two cycle
    neighbours, so the check takes O(k) mask steps for k vertices."""
    k = len(hole)
    if k < 4 or len(set(hole)) != k or not all(0 <= v < g.n for v in hole):
        return False
    ring = sum(1 << v for v in hole)
    return all(g.adj[v] & ring == 1 << hole[i - 1] | 1 << hole[(i + 1) % k]
               for i, v in enumerate(hole))


def is_chordal(g: Graph) -> ChordalityCertificate:
    """Perfect elimination ordering if chordal, otherwise a hole.

    If the sweep's check fails last at v, with p the neighbour visited last
    before v and w the lowest earlier neighbour of v that p misses, v and a
    shortest p-w path avoiding v's other neighbours form a hole.  That
    path exists: the order cut at v is a LexBFS of the subgraph H on v
    and the vertices before it, and its last vertex v lies in a moplex M
    of H, a clique of true twins whose neighbourhood is a minimal
    separator (Berry & Bordat 1998, "Separability generalizes Dirac's
    theorem", Discrete Appl. Math. 84).  A twin of v would see both p
    and w, so both lie in N(M) and have neighbours in a full component
    of H - N(M) other than M, which avoids N[v] = M + N(M).  A missing or
    invalid hole is therefore an internal error.
    """
    order, cliques, failure, *facts = _lex_bfs(g)
    if failure is None:
        return ChordalityCertificate(tuple(order[::-1]), None, tuple(cliques), *facts)
    v, p, bad = failure
    w = lowest(bad)
    hole = _hole_through(g, v, p, w)
    if hole is None or not verify_hole(g, hole):
        raise RuntimeError(f"internal error: no hole through {p}, {v}, {w}")
    return ChordalityCertificate(None, hole)


def _hole_through(g: Graph, v: int, u: int, w: int) -> tuple[int, ...] | None:
    # Shortest u-w path avoiding every neighbour of v except u, w closes a
    # chordless cycle with v (path chords are ruled out by minimality).
    banned = (g.adj[v] | 1 << v) & ~(1 << u) & ~(1 << w)
    layers = bfs_layers(g, u, banned)
    for d, layer in enumerate(layers):
        if layer >> w & 1:
            return (v, *reversed(tree_path(g, layers, w, d)))
    return None


# ---------------------------------------------------------------------------
# random chordal graphs
# ---------------------------------------------------------------------------


def random_chordal(n: int, attach_bias: float = 0.5, seed: int = 0) -> Graph:
    """Random connected chordal graph built by simplicial attachment.

    Each new vertex picks a uniformly random existing vertex, grows a random
    maximal clique around it, and attaches to a non-empty random subset of
    that clique whose size is geometric with parameter ``attach_bias``
    (smaller bias, larger subsets).  The neighbourhood of every added vertex
    is a clique, so the result is chordal, and non-emptiness keeps it
    connected.  Deterministic for fixed ``(n, attach_bias, seed)``.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= attach_bias <= 1.0:
        raise ValueError("attach_bias must lie in [0, 1]")
    rng = random.Random(seed)
    adj = [0] * n
    for v in range(1, n):
        anchor = rng.randrange(v)
        clique = [anchor]
        cand = adj[anchor] & ((1 << v) - 1)
        while cand:
            w = rng.choice(list(bits(cand)))
            clique.append(w)
            cand &= adj[w]
        size = 1
        while size < len(clique) and (attach_bias <= 0.0 or rng.random() > attach_bias):
            size += 1
        for w in rng.sample(sorted(clique), size):
            adj[v] |= 1 << w
            adj[w] |= 1 << v
    edges = [(u, v) for u in range(n) for v in bits(adj[u]) if u < v]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# canonical forms (permutation search with refinement pruning, n <= 9)
# ---------------------------------------------------------------------------

MAX_ENUMERATION_N = 9


def _refinement_classes(g: Graph) -> list[list[int]]:
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


def canonical_labelling(g: Graph) -> list[int]:
    """Vertex order whose adjacency bitstring is lexicographically minimal
    among all colour-respecting orders.  Isomorphic graphs map to the same
    relabelled graph."""
    n = g.n
    if n == 0:
        return []
    classes = _refinement_classes(g)
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


def canonical_form(g: Graph) -> Graph:
    """Canonically relabelled copy of g."""
    perm = canonical_labelling(g)
    pos = {v: i for i, v in enumerate(perm)}
    return Graph(g.n, [(pos[u], pos[v]) for u, v in g.edges()])


def canonical_key(g: Graph) -> str:
    """Canonical graph6 string: equal iff the graphs are isomorphic."""
    return to_graph6(canonical_form(g))


# ---------------------------------------------------------------------------
# enumeration of connected chordal graphs
# ---------------------------------------------------------------------------


def _nonempty_cliques(g: Graph) -> Iterator[int]:
    """All non-empty cliques of g as bitsets (ascending-id extension)."""
    stack = [(1 << v, g.adj[v] & ~((1 << (v + 1)) - 1)) for v in range(g.n)]
    while stack:
        clique, ext = stack.pop()
        yield clique
        for v in bits(ext):
            stack.append((clique | 1 << v, ext & g.adj[v] & ~((1 << (v + 1)) - 1)))


def enumerate_connected_chordal(max_n: int) -> Iterator[Graph]:
    """All connected chordal graphs with up to ``max_n`` vertices, one
    canonical representative per isomorphism class, in increasing order of
    vertex count (canonical-key order within each count)."""
    if not 1 <= max_n <= MAX_ENUMERATION_N:
        raise ValueError(f"max_n must lie in 1..{MAX_ENUMERATION_N}")
    level = {canonical_key(Graph(1)): Graph(1)}
    for key in sorted(level):
        yield level[key]
    for n in range(2, max_n + 1):
        grown: dict[str, Graph] = {}
        for parent in level.values():
            for clique in _nonempty_cliques(parent):
                child = Graph(
                    n, parent.edges() + [(u, n - 1) for u in bits(clique)]
                )
                canon = canonical_form(child)
                grown.setdefault(to_graph6(canon), canon)
        for key in sorted(grown):
            yield grown[key]
        level = grown


__all__ = [
    "ChordalityCertificate",
    "MAX_ENUMERATION_N",
    "canonical_form",
    "canonical_key",
    "canonical_labelling",
    "enumerate_connected_chordal",
    "is_chordal",
    "random_chordal",
    "verify_hole",
]
