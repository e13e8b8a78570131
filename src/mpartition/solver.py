"""Certifying polynomial solver for the three-part pattern ``M1`` on
chordal graphs.

``solve_certifying`` returns either a verified partition (yes-certificate)
or a vertex set inducing a named catalogue member (no-certificate).  Its
one entry to the case analysis, ``_certify``, reads each fact once off
the cliques of the perfect elimination ordering that the chordality test
finds (``ChordalityCertificate.cliques``), in this order:

* no clique: the host is a forest, 2-coloured by depth parity;
* an edge outside the first triangle's component: F1, looked for only
  when two or more components have an edge;
* a clique of four: F7, the first K4;
* the *bipartizer set*, the vertices whose removal leaves a bipartite
  graph: without a K4 these are the vertices in every triangle, the AND
  of the cliques, so the set has at most three elements;
* empty set: a short triangle analysis exposes an induced F1, F5 or F6;
* two or three bipartizers: every triangle holds the same edge, and the
  unique triangle (three bipartizers) is that edge with one apex; the
  apex trees and the two side trees are bounded by F1/F2/F3 checks;
* one bipartizer: the host is a hub of eccentricity two; adjacency and
  path-parity among the spoke trees is bounded by F1/F2/F4/fan checks.

The chordality sweep hands over depth parity and the number of
components with an edge.  The hub branch reads its layers in whole-set
passes (``graph.selector``) and 2-colours its spoke forest in one layer
search from every spoke that holds a pendant.  Every other traversal is
one breadth-first layer search on bitsets (``graph.bfs_layers``); every
"first edge inside a vertex set" is ``graph.first_edge``.

Every certificate is re-verified before it is returned, so a structural
bug surfaces as an internal error rather than a wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress
from operator import and_, or_

from .catalogue import ObstructionKind, catalogue_graph, fan_kind, obstruction_size
from .chordal import ChordalityCertificate, is_chordal
from .graph import (
    Graph,
    VertexSet,
    bfs_layers,
    bits,
    first_edge,
    forest,
    induced,
    is_bipartite,
    is_isomorphic,
    lowest,
    selector,
    tree_path,
)
from .patterns import M1, Assignment, assignment_parts, verify_assignment

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
            parts = assignment_parts(self.assignment, M1.m)
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


def bipartizer_set(g: Graph) -> VertexSet:
    """All vertices whose removal leaves a bipartite graph.

    Matches the per-vertex definition exactly.  A bipartizer lies on
    every odd cycle, so the candidates are the vertices of the one that
    ``is_bipartite`` returns, or only the triangle on its first and last
    vertices, an edge inside a layer, if they have a common neighbour.  On
    a chordal host they always have one: otherwise a shortest path between
    their neighbourhoods in the earlier layers would close a hole.  Each
    g - v is tested for an edge inside a layer, as ``is_bipartite`` does.
    """
    cycle = is_bipartite(g).odd_cycle
    if cycle is None:
        return frozenset(range(g.n))
    u, w = cycle[0], cycle[-1]
    common = g.adj[u] & g.adj[w]
    candidates = (u, w, lowest(common)) if common else cycle
    return frozenset(v for v in candidates
                     if not any(first_edge(g, layer)
                                for _, layers in forest(g, 1 << v) for layer in layers))


def _tree_edge(g: Graph, layers: list[int], d: int) -> tuple[int, int]:
    """Deterministic (depth d-1, depth d) tree edge: the lowest vertex of
    layer d and its neighbour in layer d-1.  That neighbour is unique in
    every use: g minus its bipartizers is a forest, and in layers from the
    single bipartizer two such neighbours would be adjacent (chordality)
    and close a triangle without it."""
    y = lowest(layers[d])
    return lowest(g.adj[y] & layers[d - 1]), y


def _yes(n: int, part1: int, part2: int = 0) -> M1Certificate:
    """Yes-certificate with the disjoint bitsets ``part1`` and ``part2`` in
    parts 1 and 2 and every other vertex in part 0.  Spreading each part
    one bit per byte (``selector``) builds the assignment in O(n) steps."""
    one, two = (int.from_bytes(selector(n, part), "little") for part in (part1, part2))
    parts = one | two << 1
    return M1Certificate(tuple(parts.to_bytes(n, "little")), None)


# ---------------------------------------------------------------------------
# empty bipartizer set: triangle analysis
# ---------------------------------------------------------------------------


def _disjoint_triangle_witness(g: Graph, region: int) -> Witness:
    """F6 or F1 within the six vertices of the bitset ``region``, two
    disjoint triangles {a, b, c} and {x, y, z} of a chordal, K4-free graph.

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
    if sum((adj[v] & region).bit_count() for v in bits(region)) == 18:
        return ObstructionKind("F6"), frozenset(bits(region))
    for a, b, c in combinations(bits(region), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            far = region & ~(adj[a] | adj[b] | adj[c] | 1 << a | 1 << b | 1 << c)
            edge = first_edge(g, far)
            if edge:
                return ObstructionKind("F1"), frozenset((a, b, c, *edge))
    raise RuntimeError(f"internal error: no F6 or F1 within {list(bits(region))}")


def _triangle_witness(g: Graph, triangles: tuple[int, ...]) -> Witness:
    """Witness for a chordal, K4-free graph whose triangles, as bitsets,
    are ``triangles`` and have no common vertex (an empty bipartizer set).

    The triangles are compared pairwise in lexicographic order.  The
    first disjoint pair spans F6 if its six vertices span 9 edges and
    holds an F1 otherwise (``_disjoint_triangle_witness``).  A pair
    {w, a, b}, {w, c, d} sharing one vertex w combines with a triangle
    {a, c, z} avoiding w into six vertices that induce F5, the 3-sun with
    inner triangle w, a, c: an extra edge among them either completes a
    K4 with that inner triangle (b-c, a-d, w-z), or joins two outer
    vertices and closes a four-cycle through two inner ones (b-d-c-a,
    b-z-c-w, d-z-a-w) whose chords would each complete a K4, so the cycle
    is chordless; g is chordal and K4-free, so neither can happen.
    ``solve_certifying`` checks that witness like every other.  With no
    common vertex one of these configurations always exists.
    """
    tris = sorted(triangles, key=lambda t: tuple(bits(t)))
    for s, t in combinations(tris, 2):
        if not s & t:
            return _disjoint_triangle_witness(g, s | t)
    for s, t in combinations(tris, 2):
        shared = s & t
        if shared.bit_count() != 1:
            continue
        c = next((u for u in tris if not u & shared), None)
        if c is None:
            raise RuntimeError("internal error: bipartizer set not empty")
        if (c & s).bit_count() != 1 or (c & t).bit_count() != 1:
            # two shared vertices would close a complete quadruple
            raise RuntimeError("internal error: unexpected triangle overlap")
        return ObstructionKind("F5"), frozenset(bits(s | t | c))
    raise RuntimeError("internal error: no obstruction found with empty bipartizer set")


# ---------------------------------------------------------------------------
# two or three bipartizers: every triangle holds one edge
# ---------------------------------------------------------------------------


def _shared_edge(g: Graph, v1: int, v2: int, apex_mask: int) -> M1Certificate:
    """Certify a non-bipartite chordal graph, connected but for isolated
    vertices (left in part 0), whose triangles are the edge v1-v2 with
    each apex in the bitset ``apex_mask``: the apex trees and the two side
    trees are bounded by F1/F2/F3 checks."""
    if not g.has_edge(v1, v2) or not apex_mask:
        raise RuntimeError("internal error: bipartizers must span a shared edge")
    apexes = list(bits(apex_mask))
    apex_trees = {v: bfs_layers(g, 1 << v, 1 << v1 | 1 << v2) for v in apexes}
    for v in apexes:
        if len(apex_trees[v]) > 2 and len(apexes) > 1:
            other = min(a for a in apexes if a != v)
            return _no(
                ObstructionKind("F1"),
                {v1, v2, other, *_tree_edge(g, apex_trees[v], 2)},
            )

    t1 = bfs_layers(g, 1 << v1, apex_mask | 1 << v2)
    t2 = bfs_layers(g, 1 << v2, apex_mask | 1 << v1)
    covered = reduce(or_, chain(*apex_trees.values(), t1, t2))
    rest = ((1 << g.n) - 1) & ~covered
    if rest and any(compress(g.adj, selector(g.n, rest))):
        raise RuntimeError("internal error: shared-edge trees do not cover the graph")
    h1, h2 = len(t1) - 1, len(t2) - 1

    # both side trees reach height one beside a tall apex (one with a
    # child): F2; both reach height two beside bare apexes only: F3
    tall = next((v for v in apexes if len(apex_trees[v]) > 1), None)
    reach = 2 if tall is None else 1
    if h1 >= reach and h2 >= reach:
        if tall is None:
            wit = {v1, v2, apexes[0], *_tree_edge(g, t1, 2), *_tree_edge(g, t2, 2)}
            return _no(ObstructionKind("F3"), wit)
        wit = {v1, v2, tall, lowest(apex_trees[tall][1]), lowest(t1[1]), lowest(t2[1])}
        return _no(ObstructionKind("F2"), wit)
    if h2 >= reach:  # keep the shorter side at v2
        v1, v2, t1, t2, h1, h2 = v2, v1, t2, t1, h2, h1
    if h1 >= 3:
        return _no(ObstructionKind("F1"), {v1, v2, apexes[0], *_tree_edge(g, t1, 3)})
    # v1's grandchildren stay in part 0, and beside a tall apex v2 and the
    # apexes' children do, else the apexes and v2's children
    part1 = 1 << v2 if tall is None else apex_mask
    return _yes(g.n, part1 | (t1[1] if h1 else 0), 1 << v1)


# ---------------------------------------------------------------------------
# one bipartizer: hub of eccentricity two
# ---------------------------------------------------------------------------


def solve_one_bipartizer(g: Graph, hub: int) -> M1Certificate:
    """Certify a non-bipartite chordal graph, connected but for isolated
    vertices (left in part 0), whose only bipartizer is ``hub``.  Whole-set
    passes read its layers: the outer vertices are what the spokes see
    beyond them, and the attached spokes (holding a pendant) are what the
    outer vertices see.  One layer search from every attached spoke
    2-colours their spoke trees; trees without one are searched from
    their lowest vertex."""
    adj = g.adj
    n = g.n
    spoke_mask = adj[hub]
    beyond = ~(spoke_mask | 1 << hub)
    outer_mask = reduce(or_, compress(adj, selector(n, spoke_mask)), 0) & beyond
    outer = list(compress(adj, selector(n, outer_mask)))
    grown = reduce(or_, outer, 0)
    attach_mask = grown & spoke_mask
    deeper = grown & ~(spoke_mask | outer_mask)

    def leaf(u: int) -> int:  # the lowest pendant of an attached spoke
        return lowest(adj[u] & beyond)

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
    # outer vertices (each sees one spoke), so the outer layer is
    # independent too
    if sum(map(int.bit_count, outer)) != outer_mask.bit_count():
        raise RuntimeError("internal error: outer vertices must be pendant")

    if reduce(or_, compress(adj, selector(n, attach_mask)), 0) & attach_mask:
        # adjacent spokes both holding pendants: an F2 via the first third
        # spoke clear of both, otherwise second neighbours on both sides
        # give F4.  Without such a spoke the spoke forest is the stars of
        # u and w joined by u-w: another spoke edge would close a K4 with
        # the hub or a chordless four-cycle.
        u, w = first_edge(g, attach_mask)
        pair = 1 << u | 1 << w
        loose = spoke_mask & ~(g.adj[u] | g.adj[w] | pair)
        if loose:
            wit = {hub, u, w, lowest(loose), leaf(u), leaf(w)}
            return _no(ObstructionKind("F2"), wit)
        pu = g.adj[u] & spoke_mask & ~pair
        pw = g.adj[w] & spoke_mask & ~pair
        if not pu or not pw or first_edge(g, spoke_mask & ~pair):
            raise RuntimeError("internal error: spoke forest structure violated")
        return _no(
            ObstructionKind("F4"),
            {hub, u, w, leaf(u), leaf(w), lowest(pu), lowest(pw)},
        )

    # spoke trees: even depth from an attached spoke in part 1, odd depth
    # and the pendants in part 0.  g minus the hub is a forest, so an edge
    # inside a layer (within the even or the odd ones) means that some
    # tree holds two attached spokes at odd distance: a fan.
    layers = bfs_layers(g, attach_mask, ~spoke_mask)
    even = reduce(or_, layers[::2])
    odd = reduce(or_, layers[1::2], 0)
    clash = reduce(or_, compress(adj, selector(n, even)), 0) & even
    clash |= reduce(or_, compress(adj, selector(n, odd)), 0) & odd
    if clash:
        # the first such tree in order of its lowest vertex: its lowest
        # attached spoke (root), the lowest one at odd distance from it
        # (w), and the tree path between them, where their paths to the
        # lowest vertex part
        comp, tree = next((c, t) for c, t in forest(g, ~spoke_mask) if c & clash)
        attached_here = comp & attach_mask
        root = lowest(attached_here)
        far = reduce(or_, tree[1::2], 0)  # odd depth from the lowest vertex
        w = lowest(attached_here & (comp & ~far if far >> root & 1 else far))
        depth = {v: next(d for d, lay in enumerate(tree) if lay >> v & 1)
                 for v in (root, w)}
        pr, pw = (tree_path(g, tree, v, d) for v, d in depth.items())
        meet = len(set(pr) & set(pw))  # the shared tail, from where they meet
        path = pr[: len(pr) - meet + 1] + pw[: len(pw) - meet]
        d = len(path) - 1
        if d < 3:
            raise RuntimeError("internal error: adjacent pendant spokes missed")
        return _no(fan_kind((d + 1) // 2), {hub, leaf(root), leaf(w), *path})
    # trees without an attached spoke: even depth from the lowest vertex
    part1 = even
    for _, tree in forest(g, ~spoke_mask | even | odd):
        part1 |= reduce(or_, tree[::2])
    return _yes(n, part1, 1 << hub)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _certify(g: Graph, chordality: ChordalityCertificate) -> M1Certificate:
    """Certificate for a chordal graph from the PEO cliques, depth parity
    and count of components with an edge of its chordality certificate:
    the one entry to the case analysis, which reads each fact once, in
    this order."""
    cliques = chordality.cliques
    if not cliques:
        # a triangle-free chordal graph is a forest: 2-colour each tree by
        # depth parity from its lowest vertex
        return _yes(g.n, chordality.odd)
    if chordality.edge_components > 1:
        tri = _first_clique(cliques, 3)
        # outside the triangle's component, the lowest vertex u with an edge
        # (the first non-empty neighbourhood of one lazy pass) and its
        # lowest neighbour start the first other component with one
        rest = ((1 << g.n) - 1) & ~reduce(or_, bfs_layers(g, 1 << tri[0]))
        sel = selector(g.n, rest)
        u = next(compress(compress(range(g.n), sel), compress(g.adj, sel)), None)
        if u is not None:
            return _no(ObstructionKind("F1"), {*tri, u, lowest(g.adj[u])})
    # any other component is an isolated vertex: the cases leave it in part 0
    if max(map(int.bit_count, cliques)) > 3:
        return _no(ObstructionKind("F7"), _first_clique(cliques, 4))
    # without a K4, g - v is bipartite iff v lies in every triangle
    b = reduce(and_, cliques)
    if not b:
        return _no(*_triangle_witness(g, cliques))
    if b.bit_count() == 3:
        # the unique triangle is a shared edge with one apex: the lowest
        # corner with no neighbour off the triangle, else the lowest
        # corner; v1 is the other corner with such a neighbour if only
        # one has one, else the lower
        bare = [v for v in bits(b) if not g.adj[v] & ~b]
        v0 = bare[0] if bare else lowest(b)
        v1, v2 = sorted(bits(b & ~(1 << v0)), key=bare.__contains__)
        return _shared_edge(g, v1, v2, 1 << v0)
    if b.bit_count() == 2:
        v1, v2 = bits(b)
        return _shared_edge(g, v1, v2, g.adj[v1] & g.adj[v2])
    return solve_one_bipartizer(g, lowest(b))


def solve_certifying(g: Graph) -> M1Certificate:
    """Certificate for ``M1``-partitionability of a chordal graph.

    Raises :class:`NotChordalError` (carrying a hole) on non-chordal input.
    Output is deterministic for a fixed labelled input, and is re-verified
    internally before being returned.  The case analysis (``_certify``)
    reads triangles, K4s and the bipartizer set off the cliques of the
    perfect elimination ordering that the chordality test finds.
    """
    chordality = is_chordal(g)
    if not chordality:
        raise NotChordalError(chordality.hole)
    cert = _certify(g, chordality)
    problem = verify_certificate(g, cert)
    if problem is not None:
        raise RuntimeError(f"internal error: produced invalid certificate: {problem}")
    return cert
