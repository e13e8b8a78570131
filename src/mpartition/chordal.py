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
is already labelled is handled on its own.  Most visits need less: a
quiet visit, whose vertex has no unvisited neighbour, ends after the PEO
check, and a single labelled neighbour moves alone into a new class just
before its own, or stays if it is that class's only member.  A class
just before the head would be visited at once, so a single neighbour
that leaves the head class is simply the next visit, with no class
built.  Only two or more labelled neighbours go through the general
split.  The edges that first label a vertex form a spanning forest, so
the sweep takes a constant number of steps per vertex plus one per edge
outside that forest (m - n + c of them for c components, none on a
forest), each a bitset operation on n-bit ints.
Each visit also tests the vertex's earlier neighbours against the last
of them.  A failed test yields a hole (a chordless cycle of length at
least four) through the last failing vertex by one layer search.
LexBFS is a breadth-first search that visits each component whole from
its lowest vertex, so the sweep also 2-colours each component by depth
parity, one mask step per visit, and counts the components with an edge.

Enumeration grows graphs one simplicial vertex at a time: removing a
simplicial vertex from a connected graph keeps it connected, so every
connected chordal graph on k+1 vertices arises from one on k vertices by
attaching a new vertex to a non-empty clique.  Swapping twins of the
smaller graph is an automorphism, so the cliques that meet each of its
twin classes in a prefix suffice.  A child is labelled only if its new
vertex is a least simplicial vertex by (degree, sorted neighbour
degrees), ties kept: the pre-test of canonical augmentation (McKay 1998,
"Isomorph-free exhaustive generation", J. Algorithms 26(2)).  Every class
still arises: the canonical form of a graph minus a least such vertex is
a parent, and growing it back makes that vertex the new one, which
passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .graph import Graph, _graph6_from_columns, bfs_layers, bits, lowest, tree_path


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
    # neighbours.  forced is the bit of a vertex already taken out of the
    # head class to be the next visit, or 0.
    members = [(1 << n) - 1]
    prev = [-1]
    nxt = [-1]
    cls = [-1] * n
    opened = [0] * n
    parent = [-1] * n
    head = 0
    forced = 0
    unvisited = (1 << n) - 1
    for _ in range(n):
        if forced:  # the last visit's lone labelled neighbour
            low = forced
            forced = 0
        else:
            first = members[head]
            low = first & -first
            members[head] = first ^ low
            if first == low:
                head = nxt[head]
                if head >= 0:
                    prev[head] = -1
        v = low.bit_length() - 1
        order.append(v)
        unvisited ^= low
        nb = adj[v] & unvisited
        # the reverse is a PEO iff v's earlier neighbours see the last one, p;
        # a quiet visit, with no neighbour left to label, ends after that
        # (its own copy of the check spares most visits a mask step)
        if not nb:
            earlier = adj[v]
            if earlier & (earlier - 1):
                p = parent[v]
                bad = earlier & ~(adj[p] | 1 << p)
                if bad:
                    failure = v, p, bad
                cliques.append(earlier | low)
            continue
        earlier = adj[v] ^ nb
        if not earlier:  # v has a neighbour and none visited: a new component
            edge_components += 1
        elif earlier & (earlier - 1):
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
        if not nb & (nb - 1):
            # one labelled neighbour w: it moves alone into a new class just
            # before its own, or stays if it is that class's only member.  A
            # class just before the head would be visited at once, so a w
            # that leaves the head class is the next visit, with no class
            # built; parent[w] = v stays for its PEO check
            w = nb.bit_length() - 1
            parent[w] = v
            c = cls[w]
            if c < 0:
                c = opened[((adj[w] & ~unvisited) ^ low).bit_length() - 1]
            if members[c] != nb:
                members[c] ^= nb
                if c == head:
                    forced = nb
                    continue
                d = len(members)
                members.append(nb)
                q = prev[c]  # c is not the head, so q >= 0
                prev.append(q)
                nxt.append(c)
                prev[c] = d
                nxt[q] = d
                c = d
            cls[w] = c
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
    layers = bfs_layers(g, 1 << u, banned)
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
        cand = adj[anchor]  # every edge so far joins vertices below v
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
    return Graph._from_adj(adj)


# ---------------------------------------------------------------------------
# canonical forms (permutation search with refinement pruning, n <= 9)
# ---------------------------------------------------------------------------

MAX_ENUMERATION_N = 9

# _SET_BITS[m]: the set bits of m in ascending order, for every mask of a
# graph on at most MAX_ENUMERATION_N vertices.  The labelling lists the
# bits of such masks for every neighbourhood, candidate and column, and a
# tuple lookup costs a fraction of a bits() generator.  The table's 2^9
# entries take about 0.1 ms to build, once; it stops there because each
# further vertex doubles it, and enumeration never goes past 9 vertices.
# Larger graphs (canonical_key takes any) list their bits in a loop.
_SET_BITS: tuple[tuple[int, ...], ...] = ((),)
for _v in range(MAX_ENUMERATION_N):
    _SET_BITS += tuple(t + (_v,) for t in _SET_BITS)
del _v


def _bit_list(mask: int) -> list[int]:
    """The set bits of ``mask`` in ascending order, without a generator."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _set_bits(n: int) -> Callable[[int], Sequence[int]]:
    """The lister of set bits for the masks of an n-vertex graph."""
    return _SET_BITS.__getitem__ if n <= MAX_ENUMERATION_N else _bit_list


def _refinement_classes(g: Graph) -> list[list[int]]:
    """Partition vertices by iterated neighbour-colour refinement.

    Class order and membership depend only on the isomorphism type, so a
    canonical relabelling may be searched within colour-respecting
    permutations only.  Each round ranks the vertices by their colour,
    then by their sorted neighbour colours, starting from the degrees.  A
    round only splits classes, so one that keeps their count keeps the
    partition and ends the refinement: its ranks are those of the round
    before, or after the first round, of the degrees.  A round that
    leaves n classes ends it too, since singletons cannot split.

    A round ranks one int per vertex, ``(colour << room) - packed``, where
    ``packed`` holds the vertex's count of neighbours of each colour as
    one digit of n.bit_length() bits (counts stay below n), colour 0 the
    most significant.  Equal colours mean equal degrees, so their sorted
    neighbour colours have one length, and the first colour whose counts
    differ decides: the vertex with more neighbours of it has the smaller
    tuple and the larger ``packed``.  So ranking by (colour, -packed)
    ranks exactly as by (colour, sorted neighbour colours).
    """
    n = g.n
    if not n:
        return []
    nbrs = list(map(_set_bits(n), g.adj))
    colour = [len(ws) for ws in nbrs]
    count = len(set(colour))
    digit = n.bit_length()
    while True:
        top = max(colour)
        room = digit * (top + 1)
        weight = [1 << digit * (top - c) for c in colour]
        sig = [(c << room) - sum(map(weight.__getitem__, ws))
               for c, ws in zip(colour, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = list(map(rank.__getitem__, sig))
        if len(rank) in (count, n):  # stable, or singletons, which stay
            break
        count = len(rank)
    classes: list[list[int]] = [[] for _ in rank]
    for v, c in enumerate(colour):
        classes[c].append(v)
    return classes


def _lower_twins(adj: tuple[int, ...]) -> list[int]:
    """twin[b]: b's highest twin below it, or -1.  False twins share their
    neighbourhood and true twins their closed one; no vertex's
    neighbourhood is another's closed one, so one dict holds both.  Twins
    are an equivalence (a vertex with a true twin has no false twin)."""
    twin = [-1] * len(adj)
    last: dict[int, int] = {}
    for b, m in enumerate(adj):
        for key in (m, m | 1 << b):
            twin[b] = last.get(key, twin[b])
            last[key] = b
    return twin


def _canonical_columns(g: Graph) -> list[int]:
    """The columns of the least colour-respecting order, in graph6's bit
    order: ``cols[i]`` has bit j set, for j < i, iff the order's j-th and
    i-th vertices are adjacent.  They are the canonical form's lower
    triangle: the canonical key encodes them, and enumeration builds each
    new class's graph from them (``_from_columns``).

    Twins, two vertices a < b with ``adj[a]`` and ``adj[b]`` equal apart
    from each other, share a refinement class, and the search places b
    only after a.  Swapping twins is an automorphism, so swaps turn every
    order into one with its twins in id order and the same columns: the
    minimum over those orders is the minimum over all.  Once a leaf is
    found below a prefix, the prefix's remaining extensions are compared
    with it, and one whose next column is larger is dropped: all its
    leaves are larger, so the least leaf stays, whatever order the
    candidates are tried in: each slot tries its class in id order.  A
    candidate's column is the sum of the slot bits of its placed
    neighbours, and a partition of singletons is its one order, taken
    without a search.
    """
    n = g.n
    adj = g.adj
    members = _set_bits(n)
    classes = _refinement_classes(g)
    slot_bit = [0] * n  # 1 << the slot of each placed vertex
    cols: list[int] = []
    if len(classes) == n:
        placed = 0
        for i, (v,) in enumerate(classes):
            cols.append(sum(map(slot_bit.__getitem__, members(adj[v] & placed))))
            slot_bit[v] = 1 << i
            placed |= 1 << v
        return cols
    slot_class = [cls for cls in classes for _ in cls]
    # twins share a refinement class; b may be placed once twin[b] is, so
    # b is free iff placed & guard[b] is twin[b]
    twin = [1 << a if a >= 0 else 0 for a in _lower_twins(adj)]
    guard = [1 << b | t for b, t in enumerate(twin)]
    best: list[int] | None = None

    def search(i: int, equal: bool, placed: int) -> bool:
        # equal: cols[:i] is the best leaf's prefix, else it is smaller.
        # Returns whether a new best leaf was found below; the prefix is
        # then the new best's, so the remaining siblings are compared.
        nonlocal best
        if i == n:
            if best is None or cols < best:
                best = cols.copy()
                return True
            return False
        found = False
        for v in slot_class[i]:
            if placed & guard[v] != twin[v]:
                continue
            col = sum(map(slot_bit.__getitem__, members(adj[v] & placed)))
            if equal and best is not None and col > best[i]:
                continue
            slot_bit[v] = 1 << i
            cols.append(col)
            if search(i + 1, equal and (best is None or col == best[i]),
                      placed | 1 << v):
                found = equal = True
            cols.pop()
            slot_bit[v] = 0
        return found

    search(0, True, 0)
    assert best is not None
    return best


def _from_columns(cols: Sequence[int]) -> Graph:
    """The graph whose lower-triangle columns are ``cols``: bit j of
    ``cols[i]``, for j < i, is the edge j-i."""
    adj = list(cols)
    members = _set_bits(len(cols))
    for i, col in enumerate(cols):
        for j in members(col):
            adj[j] |= 1 << i
    return Graph._from_adj(adj)


def canonical_key(g: Graph) -> str:
    """Canonical graph6 string: equal iff the graphs are isomorphic."""
    return _graph6_from_columns(g.n, _canonical_columns(g))


# ---------------------------------------------------------------------------
# enumeration of connected chordal graphs
# ---------------------------------------------------------------------------


def _nonempty_cliques(g: Graph) -> Iterator[int]:
    """The non-empty cliques of g that meet each twin class of g in a
    prefix (in id order), as bitsets (ascending-id extension): a vertex b
    extends a clique only if its next lower twin is in it.

    Swapping twins is an automorphism of g and maps cliques to cliques, so
    swaps carry every clique onto one of these, and a new vertex attached
    to either gives isomorphic graphs.
    """
    adj = g.adj
    lead = [1 << a if a >= 0 else 0 for a in _lower_twins(adj)]
    stack = [(1 << v, adj[v] & ~((1 << (v + 1)) - 1))
             for v in range(g.n) if not lead[v]]
    while stack:
        clique, ext = stack.pop()
        yield clique
        for v in bits(ext):
            if not lead[v] & ~clique:
                stack.append((clique | 1 << v, ext & adj[v] & ~((1 << (v + 1)) - 1)))


def _simplicial(adj: tuple[int, ...]) -> int:
    """The bitset of the vertices whose neighbourhood is a clique: each
    neighbour sees all the others."""
    return sum(1 << v for v, m in enumerate(adj)
               if all(not m & ~adj[u] & ~(1 << u) for u in bits(m)))


def _child_simplicial(adj: tuple[int, ...], simplicial: int, clique: int) -> int:
    """The simplicial vertices of the child that attaches a new vertex x =
    len(adj) to ``clique``, from the parent's ``simplicial``.  A vertex
    outside the clique keeps its neighbourhood.  One inside gains x, so
    its neighbourhood stays a clique iff it lies in the clique.  x sees the
    clique only."""
    kept = simplicial & ~clique
    for v in bits(simplicial & clique):
        if not adj[v] & ~clique:
            kept |= 1 << v
    return kept | 1 << len(adj)


def _least_simplicial(adj: list[int], simplicial: int) -> bool:
    """Whether no simplicial vertex of the graph ``adj`` has a smaller
    invariant than its last vertex x.  The invariant is the degree, then
    the sorted degrees of the neighbours; ties pass."""
    members = _set_bits(len(adj))
    degree = [m.bit_count() for m in adj]
    x = len(adj) - 1
    own = degree[x]
    nbr_degrees = None
    for v in members(simplicial ^ 1 << x):
        if degree[v] < own:
            return False
        if degree[v] == own:
            if nbr_degrees is None:
                nbr_degrees = sorted(map(degree.__getitem__, members(adj[x])))
            if sorted(map(degree.__getitem__, members(adj[v]))) < nbr_degrees:
                return False
    return True


def enumerate_connected_chordal(max_n: int) -> Iterator[Graph]:
    """All connected chordal graphs with up to ``max_n`` vertices, one
    canonical representative per isomorphism class, in increasing order of
    vertex count (canonical-key order within each count)."""
    return (g for _, g in _keyed_connected_chordal(max_n))


def _keyed_connected_chordal(max_n: int) -> Iterator[tuple[str, Graph]]:
    """``enumerate_connected_chordal`` with each graph's canonical key, its
    graph6 line, before it.

    Each level grows the one before by a new vertex x on each twin-prefix
    clique of each parent, and labels only the children in which x is a
    least simplicial vertex by (degree, sorted neighbour degrees), ties
    kept: the pre-test of canonical augmentation (McKay 1998,
    "Isomorph-free exhaustive generation", J. Algorithms 26(2)).  No class
    is lost.  Take a class C and a least-invariant simplicial vertex y of
    C.  C - y is connected and chordal, so its canonical form P is a
    parent.  An isomorphism from C - y onto P carries N(y) to a clique of
    P, and twin swaps of P carry that onto a twin-prefix clique K; so P
    plus x on K is isomorphic to C, with x sent to y.  Isomorphisms keep
    simplicial vertices and the invariant, so x is least too and the
    child is labelled.  The child's simplicial vertices come from the
    parent's, found once per parent (`_child_simplicial`).  A level is the
    set of its classes' canonical columns, so each class's key and graph
    are built once.
    """
    if not 1 <= max_n <= MAX_ENUMERATION_N:
        raise ValueError(f"max_n must lie in 1..{MAX_ENUMERATION_N}")
    level = [Graph(1)]
    yield _graph6_from_columns(1, [0]), level[0]
    for n in range(2, max_n + 1):
        grown: set[tuple[int, ...]] = set()
        top = 1 << (n - 1)
        for parent in level:
            adj = parent.adj
            simplicial = _simplicial(adj)
            for clique in _nonempty_cliques(parent):
                child_adj = [m | top if clique >> u & 1 else m
                             for u, m in enumerate(adj)] + [clique]
                child_simplicial = _child_simplicial(adj, simplicial, clique)
                if _least_simplicial(child_adj, child_simplicial):
                    grown.add(tuple(_canonical_columns(Graph._from_adj(child_adj))))
        keyed = sorted((_graph6_from_columns(n, cols), cols) for cols in grown)
        level = [_from_columns(cols) for _, cols in keyed]
        yield from zip([key for key, _ in keyed], level)
