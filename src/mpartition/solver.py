"""Certifying polynomial solver for the three-part pattern ``M1`` on
chordal graphs.

``solve_certifying`` returns either a verified partition (yes-certificate)
or a vertex set inducing a named catalogue member (no-certificate).  The
algorithm is driven by the *bipartizer set* of the host: the vertices
whose removal leaves a bipartite graph.  For a non-bipartite chordal graph
every bipartizer lies in every triangle, so the set has at most three
elements, and each cardinality forces enough structure to either colour
the graph directly or point at a concrete obstruction:

* empty set: the host stays non-bipartite after any single deletion, and a
  short triangle analysis always exposes an induced F1, F5, F6 or F7;
* three bipartizers: they form the unique triangle; the three subtrees
  hanging off it are bounded by F2/F3/F1 checks;
* two bipartizers: every triangle shares the same edge; the apex trees and
  the two side trees are bounded by F1/F2/F3 checks;
* one bipartizer: the host is a hub of eccentricity two; adjacency and
  path-parity among the spoke trees is bounded by F1/F2/F4/fan checks.

The set, the triangles and the first K4 are read off the cliques of the
perfect elimination ordering that the chordality test finds
(``ChordalityCertificate.cliques``), and every traversal is one
breadth-first layer search on bitsets (``graph.bfs_layers``).

Every certificate is re-verified before it is returned, so a structural
bug surfaces as an internal error rather than a wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_

from .catalogue import ObstructionKind, catalogue_graph, fan_kind, obstruction_size
from .chordal import is_chordal
from .graph import (
    Graph,
    VertexSet,
    bfs_layers,
    bits,
    induced,
    is_bipartite,
    is_isomorphic,
    layer_edge,
    lowest,
    odd_depth,
    tree_path,
)
from .patterns import M1, Assignment, verify_assignment

Witness = tuple[ObstructionKind, VertexSet]


class NotChordalError(ValueError):
    """Input graph is not chordal; carries the hole certificate."""

    def __init__(self, hole: tuple[int, ...]) -> None:
        super().__init__(f"graph is not chordal: chordless cycle {list(hole)}")
        self.hole = hole


@dataclass(frozen=True)
class M1Certificate:
    """Either a satisfying 3-part assignment or an induced-witness pair."""

    assignment: Assignment | None
    witness: Witness | None

    @property
    def decision(self) -> str:
        return "yes" if self.assignment is not None else "no"

    def to_json_dict(self) -> dict:
        if self.assignment is not None:
            parts: list[list[int]] = [[], [], []]
            for v, part in enumerate(self.assignment):
                parts[part].append(v)
            return {"decision": "yes", "parts": parts, "witness": None}
        kind, vertices = self.witness  # type: ignore[misc]
        wit = kind.to_json_dict(vertices=sorted(vertices))
        return {"decision": "no", "parts": None, "witness": wit}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _no(kind: ObstructionKind, vertices: set[int] | frozenset[int]) -> M1Certificate:
    return M1Certificate(None, (kind, frozenset(vertices)))


def verify_certificate(g: Graph, cert: M1Certificate) -> str | None:
    """Independent certificate check; None if valid, else a reason."""
    if (cert.assignment is None) == (cert.witness is None):
        return "certificate must carry exactly one of assignment/witness"
    if cert.assignment is not None:
        try:
            violation = verify_assignment(g, M1, cert.assignment)
        except ValueError as exc:
            return str(exc)
        return None if violation is None else str(violation)
    kind, vertices = cert.witness
    if not all(0 <= v < g.n for v in vertices):
        return "witness vertices out of range"
    # sized first: k comes from outside and may be huge
    size = obstruction_size(kind)
    if len(vertices) != size:
        return f"witness has {len(vertices)} vertices, {kind} needs {size}"
    if kind.tag == "Fan":
        fits = _induces_fan(g, vertices, kind.k)
    else:
        fits = is_isomorphic(induced(g, vertices), catalogue_graph(kind.tag))
    return None if fits else f"witness does not induce {kind}"


def _induces_fan(g: Graph, vertices: VertexSet, k: int) -> bool:
    """Do ``vertices`` induce Fan(k)?  O(k) mask steps on ``g.adj``.

    The apex is the one vertex seeing 2k others and the path ends are the
    two it misses, so the apex sees exactly the inner path vertices.  A
    walk from one end that meets exactly one unvisited neighbour at each
    of its 2k+1 steps and stops on the other end is an induced path: a
    chord would be a second unvisited neighbour at its nearer end.
    """
    w = 0
    for v in vertices:
        w |= 1 << v
    nbrs = {v: g.adj[v] & w for v in vertices}
    apexes = [v for v, nb in nbrs.items() if nb.bit_count() == 2 * k]
    if len(apexes) != 1:
        return False
    path = w & ~(1 << apexes[0])
    ends = path & ~nbrs[apexes[0]]
    if ends.bit_count() != 2:
        return False
    cur = (ends & -ends).bit_length() - 1
    visited = 1 << cur
    for _ in range(2 * k + 1):
        step = nbrs[cur] & path & ~visited
        if not step or step & (step - 1):
            return False
        visited |= step
        cur = step.bit_length() - 1
    return bool(ends >> cur & 1)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _cliques(g: Graph) -> tuple[int, ...]:
    """The PEO cliques of a chordal graph (``ChordalityCertificate``)."""
    chordality = is_chordal(g)
    if not chordality:
        raise NotChordalError(chordality.hole)
    return chordality.cliques


def _first_clique(cliques: tuple[int, ...], size: int) -> tuple[int, ...] | None:
    """Lexicographically first clique of ``size`` vertices: the least of
    the ``size`` smallest members of each of ``cliques``.  Of two vertex
    sets of one size, the lexicographically first (as sorted tuples) holds
    the lowest vertex of their symmetric difference."""
    best = 0
    for c in cliques:
        extra = c.bit_count() - size
        if extra < 0:
            continue
        for _ in range(extra):
            c ^= 1 << (c.bit_length() - 1)
        diff = c ^ best
        if not best or c & diff & -diff:
            best = c
    return tuple(bits(best)) if best else None


def _peo_bipartizers(cliques: tuple[int, ...]) -> int:
    """Bipartizer set of a chordal graph with a triangle, from its PEO
    cliques: with a K4 it is empty, otherwise g - v is bipartite iff v
    lies in every triangle."""
    return 0 if max(map(int.bit_count, cliques)) > 3 else reduce(and_, cliques)


def bipartizer_set(g: Graph) -> VertexSet:
    """All vertices whose removal leaves a bipartite graph.

    Matches the per-vertex definition exactly.  A bipartizer lies on
    every odd cycle, so when the ends of an edge inside a layer have a
    common neighbour only that triangle is tested.  On a chordal host
    they always have one: otherwise a shortest path between their
    neighbourhoods in the earlier layers would close a hole.  Other
    non-bipartite hosts test the vertices of one odd cycle.
    """
    edge = layer_edge(g)
    if edge is None:
        return frozenset(range(g.n))
    u, w = edge[:2]
    common = g.adj[u] & g.adj[w]
    candidates = (u, w, lowest(common)) if common else is_bipartite(g).odd_cycle
    return frozenset(v for v in candidates if layer_edge(g, 1 << v) is None)


def _edges_within(g: Graph, mask: int) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, with both ends in the bitset ``mask``, in
    lexicographic order."""
    return [
        (u, v) for u in bits(mask) for v in bits(g.adj[u] & mask >> (u + 1) << (u + 1))
    ]


def _tree_edge(g: Graph, layers: list[int], d: int) -> tuple[int, int]:
    """Deterministic (depth d-1, depth d) tree edge: the lowest vertex of
    layer d and its neighbour in layer d-1.  That neighbour is unique in
    every use: g minus its bipartizers is a forest, and in layers from the
    single bipartizer two such neighbours would be adjacent (chordality)
    and close a triangle without it."""
    y = lowest(layers[d])
    return lowest(g.adj[y] & layers[d - 1]), y


def _yes(n: int, part1: int, part2: int = 0) -> M1Certificate:
    """Yes-certificate with the bitsets ``part1`` and ``part2`` in parts 1
    and 2 and every other vertex in part 0."""
    assignment = [0] * n
    for v in bits(part1):
        assignment[v] = 1
    for v in bits(part2):
        assignment[v] = 2
    return M1Certificate(tuple(assignment), None)


# ---------------------------------------------------------------------------
# empty bipartizer set: triangle analysis
# ---------------------------------------------------------------------------


def _disjoint_triangle_witness(g: Graph, region: VertexSet) -> Witness:
    """F6 or F1 within the six vertices ``region`` of two disjoint
    triangles {a, b, c} and {x, y, z} of a chordal, K4-free graph.

    A vertex with three cross neighbours closes a K4, and two disjoint
    cross edges a-x, b-y need exactly one diagonal a-y or b-x (none
    leaves the chordless cycle a-x-y-b, both close a K4).  So three
    cross edges form a path x-a-y-b, which with the triangles is F6, and
    no fourth fits: the six vertices induce F6 iff they span 9 edges.
    With at most two cross edges, the non-neighbours of one triangle
    keep an edge of the other, an F1.  The one returned, the first
    triangle in lexicographic order whose non-neighbours in ``region``
    span an edge, with the first such edge, is the F1 that a search in
    ascending vertex order finds first.
    """
    adj = g.adj
    r = sum(1 << v for v in region)
    if sum((adj[v] & r).bit_count() for v in region) == 18:
        return ObstructionKind("F6"), region
    for a, b, c in combinations(sorted(region), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            far = r & ~(adj[a] | adj[b] | adj[c] | 1 << a | 1 << b | 1 << c)
            for u in bits(far):
                if adj[u] & far:
                    edge = (u, lowest(adj[u] & far))
                    return ObstructionKind("F1"), frozenset((a, b, c, *edge))
    raise RuntimeError(f"internal error: no F6 or F1 within {sorted(region)}")


def extract_unbipartizable_obstruction(
    g: Graph, cliques: tuple[int, ...] | None = None
) -> Witness:
    """Witness for a chordal graph whose bipartizer set is empty.

    A complete subgraph on four vertices is an immediate F7.  Otherwise at
    most one triangle closes over each vertex, so all triangles are listed
    and compared pairwise.  The first disjoint pair spans F6 if its six
    vertices span 9 edges and holds an F1 otherwise
    (``_disjoint_triangle_witness``).  A pair
    {w, a, b}, {w, c, d} sharing one vertex w combines with a triangle
    {a, c, z} avoiding w into six vertices that induce F5, the 3-sun with
    inner triangle w, a, c: an extra edge among them either completes a
    K4 with that inner triangle (b-c, a-d, w-z), or joins two outer
    vertices and closes a four-cycle through two inner ones (b-d-c-a,
    b-z-c-w, d-z-a-w) whose chords would each complete a K4, so the cycle
    is chordless; g is chordal and K4-free, so neither can happen.
    ``solve_certifying`` checks that witness like every other.  With an
    empty bipartizer set one of these configurations always exists.
    ``cliques`` are ``g``'s PEO cliques (``ChordalityCertificate``) if the
    caller has them.
    """
    if cliques is None:
        cliques = _cliques(g)
    k4 = _first_clique(cliques, 4)
    if k4 is not None:
        return ObstructionKind("F7"), frozenset(k4)
    triangles = sorted(tuple(bits(c)) for c in cliques)
    sets = [frozenset(t) for t in triangles]
    for i in range(len(triangles)):
        for j in range(i + 1, len(triangles)):
            if not sets[i] & sets[j]:
                return _disjoint_triangle_witness(g, sets[i] | sets[j])
    for i in range(len(triangles)):
        for j in range(i + 1, len(triangles)):
            shared = sets[i] & sets[j]
            if len(shared) != 1:
                continue
            (w,) = shared
            c = next((t for t in sets if w not in t), None)
            if c is None:
                raise RuntimeError("internal error: bipartizer set not empty")
            if len(c & sets[i]) != 1 or len(c & sets[j]) != 1:
                # two shared vertices would close a complete quadruple,
                # excluded above
                raise RuntimeError("internal error: unexpected triangle overlap")
            return ObstructionKind("F5"), sets[i] | sets[j] | c
    raise RuntimeError("internal error: no obstruction found with empty bipartizer set")


# ---------------------------------------------------------------------------
# three bipartizers: the unique triangle
# ---------------------------------------------------------------------------


def solve_unique_triangle(g: Graph, bipartizers: VertexSet) -> M1Certificate:
    """Certify a non-bipartite chordal graph, connected but for isolated
    vertices (left in part 0), whose bipartizer set is a triangle (then it
    is the only triangle in the graph)."""
    b = sorted(bipartizers)
    if len(b) != 3 or not all(
        g.has_edge(u, v) for u, v in ((b[0], b[1]), (b[0], b[2]), (b[1], b[2]))
    ):
        raise RuntimeError("internal error: bipartizers do not induce a triangle")
    tri_mask = sum(1 << v for v in b)
    trees = {v: bfs_layers(g, v, tri_mask & ~(1 << v)) for v in b}
    covered = reduce(or_, (layer for layers in trees.values() for layer in layers))
    if any(g.adj[v] for v in bits(((1 << g.n) - 1) & ~covered)):
        raise RuntimeError("internal error: triangle trees do not cover the graph")

    heights = {v: len(trees[v]) - 1 for v in b}
    trivial = [v for v in b if heights[v] == 0]
    if not trivial:
        children = [lowest(trees[v][1]) for v in b]
        return _no(ObstructionKind("F2"), set(b) | set(children))
    v0 = trivial[0]
    rest = [v for v in b if v != v0]
    if heights[rest[0]] >= 2 and heights[rest[1]] >= 2:
        wit = set(b)
        for v in rest:
            wit |= set(_tree_edge(g, trees[v], 2))
        return _no(ObstructionKind("F3"), wit)
    # taller tree becomes the depth-2 side; ties keep the lower id first
    rest.sort(key=lambda v: (-heights[v], v))
    v1, v2 = rest
    if heights[v1] >= 3:
        return _no(ObstructionKind("F1"), set(b) | set(_tree_edge(g, trees[v1], 3)))
    # v0, v2's children and v1's grandchildren stay in part 0
    t1 = trees[v1]
    return _yes(g.n, 1 << v2 | (t1[1] if len(t1) > 1 else 0), 1 << v1)


# ---------------------------------------------------------------------------
# two bipartizers: all triangles share one edge
# ---------------------------------------------------------------------------


def solve_two_bipartizers(g: Graph, bipartizers: VertexSet) -> M1Certificate:
    """Certify a non-bipartite chordal graph, connected but for isolated
    vertices (left in part 0), with exactly two bipartizers (they span the
    edge common to every triangle)."""
    b = sorted(bipartizers)
    if len(b) != 2 or not g.has_edge(b[0], b[1]):
        raise RuntimeError("internal error: bipartizer pair must span an edge")
    v1, v2 = b
    pair_mask = 1 << v1 | 1 << v2
    apex_mask = g.adj[v1] & g.adj[v2]
    apexes = list(bits(apex_mask))
    if len(apexes) < 2:
        raise RuntimeError("internal error: a unique triangle implies three bipartizers")

    apex_trees = {v: bfs_layers(g, v, pair_mask) for v in apexes}
    for v in apexes:
        if len(apex_trees[v]) > 2:
            other = min(a for a in apexes if a != v)
            return _no(
                ObstructionKind("F1"),
                {v1, v2, other, *_tree_edge(g, apex_trees[v], 2)},
            )

    t1 = bfs_layers(g, v1, apex_mask | 1 << v2)
    t2 = bfs_layers(g, v2, apex_mask | 1 << v1)
    h1, h2 = len(t1) - 1, len(t2) - 1

    tall_apexes = [v for v in apexes if len(apex_trees[v]) == 2]
    if tall_apexes:
        v0 = tall_apexes[0]
        if h1 >= 1 and h2 >= 1:
            wit = {v1, v2, v0, lowest(apex_trees[v0][1]), lowest(t1[1]), lowest(t2[1])}
            return _no(ObstructionKind("F2"), wit)
        if h2 >= 1:  # keep the trivial side at v2
            v1, v2, t1, t2, h1, h2 = v2, v1, t2, t1, h2, h1
        if h1 >= 3:
            return _no(
                ObstructionKind("F1"), {v1, v2, apexes[0], *_tree_edge(g, t1, 3)}
            )
        # v2, the apexes' children and v1's grandchildren stay in part 0
        return _yes(g.n, apex_mask | (t1[1] if h1 else 0), 1 << v1)

    # every apex is bare: bound the two side trees by F3 then F1
    if h1 >= 2 and h2 >= 2:
        wit = {v1, v2, apexes[0], *_tree_edge(g, t1, 2), *_tree_edge(g, t2, 2)}
        return _no(ObstructionKind("F3"), wit)
    if h2 >= 2:  # keep the shallow side at v2
        v1, v2, t1, t2, h1, h2 = v2, v1, t2, t1, h2, h1
    if h1 >= 3:
        return _no(ObstructionKind("F1"), {v1, v2, apexes[0], *_tree_edge(g, t1, 3)})
    # the apexes, v2's children and v1's grandchildren stay in part 0
    return _yes(g.n, 1 << v2 | (t1[1] if h1 else 0), 1 << v1)


# ---------------------------------------------------------------------------
# one bipartizer: hub of eccentricity two
# ---------------------------------------------------------------------------


def solve_one_bipartizer(g: Graph, hub: int) -> M1Certificate:
    """Certify a non-bipartite chordal graph, connected but for isolated
    vertices (left in part 0), whose only bipartizer is ``hub``."""
    layers = bfs_layers(g, hub)
    spoke_mask = layers[1] if len(layers) > 1 else 0
    outer_mask = layers[2] if len(layers) > 2 else 0
    spokes = list(bits(spoke_mask))

    if len(layers) > 3:
        x2, x3 = _tree_edge(g, layers, 3)
        x1 = lowest(g.adj[x2] & spoke_mask)
        # every triangle is the hub and a spoke edge
        tri = min(
            (
                sorted((hub, u, w))
                for u, w in _edges_within(g, spoke_mask)
                if x1 not in (u, w)
            ),
            default=None,
        )
        if tri is None:
            raise RuntimeError("internal error: hub vertex is not the only bipartizer")
        return _no(ObstructionKind("F1"), set(tri) | {x2, x3})

    # structure forced by chordality and the unique bipartizer: pendant
    # outer vertices, so the outer layer is independent too
    for v in bits(outer_mask):
        if g.degree(v) != 1:
            raise RuntimeError("internal error: outer vertices must be pendant")

    attach: dict[int, int] = {}
    attach_mask = 0
    for u in spokes:
        pendant = g.adj[u] & outer_mask
        if pendant:
            attach[u] = lowest(pendant)
            attach_mask |= 1 << u

    for u, w in _edges_within(g, attach_mask):
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
        spoke_edges = _edges_within(g, spoke_mask)
        eu = next((e for e in spoke_edges if u not in e), None)
        ew = next((e for e in spoke_edges if w not in e), None)
        if eu is None or ew is None or w not in eu or u not in ew:
            raise RuntimeError("internal error: spoke forest structure violated")
        pw = eu[0] if eu[1] == w else eu[1]
        pu = ew[0] if ew[1] == u else ew[1]
        return _no(
            ObstructionKind("F4"), {hub, u, w, attach[u], attach[w], pu, pw}
        )

    # spoke trees: even depth from the root in part 1, odd depth and the
    # outer (pendant) vertices in part 0.  g minus the hub is bipartite, so
    # parity from the root is parity from the seed, flipped if root is odd.
    outside = ~spoke_mask
    part1 = 0
    remaining = spoke_mask
    while remaining:
        seed = lowest(remaining)
        tree = bfs_layers(g, seed, outside)
        comp = reduce(or_, tree)
        attached_here = comp & attach_mask
        root = lowest(attached_here) if attached_here else seed
        odd = reduce(or_, tree[1::2], 0)
        if odd >> root & 1:
            odd = comp & ~odd
        if attached_here & odd:
            tree = bfs_layers(g, root, outside)
            w = lowest(attached_here & odd)
            d = next(d for d, layer in enumerate(tree) if layer >> w & 1)
            if d < 3:
                raise RuntimeError("internal error: adjacent pendant spokes missed")
            wit = {hub, attach[root], attach[w], *tree_path(g, tree, w, d)}
            return _no(fan_kind((d + 1) // 2), wit)
        part1 |= comp & ~odd
        remaining &= ~comp
    return _yes(g.n, part1, 1 << hub)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _certify(g: Graph, cliques: tuple[int, ...]) -> M1Certificate:
    """Certificate for a chordal graph with the given PEO cliques."""
    if not cliques:
        # a triangle-free chordal graph is a forest: 2-colour each tree by
        # depth parity from its lowest vertex
        return _yes(g.n, odd_depth(g))
    tri = _first_clique(cliques, 3)
    comp = reduce(or_, bfs_layers(g, tri[0]))
    # the lowest vertex outside the triangle's component with an edge
    # starts the first other component that has one
    for u in bits(((1 << g.n) - 1) & ~comp):
        if g.adj[u]:
            return _no(ObstructionKind("F1"), set(tri) | {u, lowest(g.adj[u])})
    # any other component is an isolated vertex: the cases leave it in part 0
    b = _peo_bipartizers(cliques)
    if not b:
        return _no(*extract_unbipartizable_obstruction(g, cliques))
    if b.bit_count() == 3:
        return solve_unique_triangle(g, frozenset(bits(b)))
    if b.bit_count() == 2:
        return solve_two_bipartizers(g, frozenset(bits(b)))
    return solve_one_bipartizer(g, lowest(b))


def solve_certifying(g: Graph) -> M1Certificate:
    """Certificate for ``M1``-partitionability of a chordal graph.

    Raises :class:`NotChordalError` (carrying a hole) on non-chordal input.
    Output is deterministic for a fixed labelled input, and is re-verified
    internally before being returned.  The case analysis reads triangles,
    K4s and the bipartizer set off the cliques of the perfect elimination
    ordering that the chordality test finds.
    """
    cert = _certify(g, _cliques(g))
    problem = verify_certificate(g, cert)
    if problem is not None:
        raise RuntimeError(f"internal error: produced invalid certificate: {problem}")
    return cert
