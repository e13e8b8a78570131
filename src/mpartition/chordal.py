"""Chordality with certificates, random generation, and exhaustive
enumeration of small connected chordal graphs up to isomorphism.

Recognition runs lexicographic BFS and checks the reversed visit order as a
perfect elimination ordering.  LexBFS works by ordered partition
refinement (Rose, Tarjan & Lueker 1976): the unvisited vertices sit in a
list of classes of equal label, kept as bitsets; visiting a vertex moves
its unvisited neighbours of each class into a new class just before it,
and the next vertex is the lowest id of the first class.  Each edge is
handled once, when its first endpoint is visited, so the search costs
O(n + m) steps, each a bitset operation on n-bit ints.  The PEO check
tests one bitset of earlier-visited neighbours per vertex against its
parent's neighbourhood.  A failed check yields a hole (a chordless cycle
of length at least four) through the failing vertex by one layer search,
checked in O(k) mask steps, so callers get a verifiable answer either way.

Enumeration grows graphs one simplicial vertex at a time: removing a
simplicial vertex from a connected graph keeps it connected, so every
connected chordal graph on k+1 vertices arises from one on k vertices by
attaching a new vertex to a non-empty clique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, bfs_layers, bits, to_graph6, tree_path


@dataclass(frozen=True)
class ChordalityCertificate:
    """A perfect elimination ordering, or a hole (chordless cycle >= 4).

    A PEO comes with ``cliques``: for each vertex v with two or more
    neighbours later in the PEO, in PEO order, the bitset of v and those
    neighbours.  Each is a clique and every clique of the graph lies in
    one of them (Gavril 1972), so the graph has a triangle iff ``cliques``
    is non-empty and a K4 iff one of them has four members; without a K4
    each triangle is exactly one of them.
    """

    peo: tuple[int, ...] | None
    hole: tuple[int, ...] | None
    cliques: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.peo is not None


def _lex_bfs(g: Graph) -> tuple[list[int], list[int]]:
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

    If the check fails at v, with p the neighbour visited last before v
    and w the lowest earlier neighbour of v that p misses, v and a
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
    order, parent = _lex_bfs(g)
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
    return ChordalityCertificate(tuple(order[::-1]), None, tuple(cliques))


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
        clique_mask = 1 << anchor
        cand = adj[anchor] & ((1 << v) - 1)
        while cand:
            w = rng.choice(list(bits(cand)))
            clique.append(w)
            clique_mask |= 1 << w
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
