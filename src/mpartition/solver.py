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

Every certificate is re-verified before it is returned, so a structural
bug surfaces as an internal error rather than a wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .catalogue import (
    FINITE_MINIMAL_TAGS,
    ObstructionKind,
    catalogue_graph,
    fan_kind,
    obstruction_size,
)
from .chordal import is_chordal
from .graph import (
    Graph,
    VertexSet,
    bits,
    component_masks,
    contains_induced,
    induced,
    is_bipartite,
    is_isomorphic,
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
        wit: dict = {"kind": kind.tag, "vertices": sorted(vertices)}
        if kind.k is not None:
            wit["k"] = kind.k
        return {"decision": "no", "parts": None, "witness": wit}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _yes(assignment: list[int]) -> M1Certificate:
    return M1Certificate(tuple(assignment), None)


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
    if kind.tag not in FINITE_MINIMAL_TAGS and kind.tag != "Fan":
        return f"{kind} is not a minimal obstruction"
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


def _find_triangle(g: Graph, exclude: int = -1) -> tuple[int, int, int] | None:
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


def _two_colourable(g: Graph, removed: int) -> bool:
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


def bipartizer_set(g: Graph) -> VertexSet:
    """All vertices whose removal leaves a bipartite graph.

    Matches the per-vertex definition exactly.  When the host has a
    triangle, only its three vertices can qualify (a bipartizer must lie
    on every odd cycle), so only those deletions are tested; triangle-free
    non-bipartite hosts fall back to the full per-vertex scan.
    """
    if is_bipartite(g):
        return frozenset(range(g.n))
    tri = _find_triangle(g)
    if tri is None:  # odd girth >= 5: cannot happen for chordal hosts
        return frozenset(
            v for v in range(g.n) if _two_colourable(g, 1 << v)
        )
    return frozenset(v for v in tri if _two_colourable(g, 1 << v))


def _bfs_tree(
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


def _tail_edge(depth: list[int], parent: list[int], d: int) -> tuple[int, int]:
    """Deterministic (depth d-1, depth d) tree edge: deepest vertex first."""
    y = min(v for v, dv in enumerate(depth) if dv == d)
    return parent[y], y


# ---------------------------------------------------------------------------
# empty bipartizer set: triangle analysis
# ---------------------------------------------------------------------------


def _find_k4(g: Graph) -> tuple[int, ...] | None:
    for u in range(g.n):
        for v in bits(g.adj[u] & ~((1 << (u + 1)) - 1)):
            common = g.adj[u] & g.adj[v]
            for w in bits(common & ~((1 << (v + 1)) - 1)):
                rest = common & g.adj[w] & ~((1 << (w + 1)) - 1)
                if rest:
                    return u, v, w, (rest & -rest).bit_length() - 1
    return None


def _all_triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u in range(g.n):
        for v in bits(g.adj[u] & ~((1 << (u + 1)) - 1)):
            common = g.adj[u] & g.adj[v] & ~((1 << (v + 1)) - 1)
            out.extend((u, v, w) for w in bits(common))
    return out


def _induced_member_within(
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


def extract_unbipartizable_obstruction(g: Graph) -> Witness:
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
    k4 = _find_k4(g)
    if k4 is not None:
        return ObstructionKind("F7"), frozenset(k4)
    triangles = _all_triangles(g)
    sets = [frozenset(t) for t in triangles]
    for i in range(len(triangles)):
        for j in range(i + 1, len(triangles)):
            if not sets[i] & sets[j]:
                return _induced_member_within(
                    g, set(sets[i] | sets[j]), ("F7", "F6", "F1")
                )
    for i in range(len(triangles)):
        for j in range(i + 1, len(triangles)):
            shared = sets[i] & sets[j]
            if len(shared) != 1:
                continue
            (w,) = shared
            third = _find_triangle(g, exclude=w)
            if third is None:
                raise RuntimeError("internal error: bipartizer set not empty")
            c = frozenset(third)
            if len(c & sets[i]) != 1 or len(c & sets[j]) != 1:
                # two shared vertices would close a complete quadruple,
                # excluded above
                raise RuntimeError("internal error: unexpected triangle overlap")
            return _induced_member_within(
                g, set(sets[i] | sets[j] | c), ("F7", "F5")
            )
    raise RuntimeError("internal error: no obstruction found with empty bipartizer set")


# ---------------------------------------------------------------------------
# three bipartizers: the unique triangle
# ---------------------------------------------------------------------------


def solve_unique_triangle(g: Graph, bipartizers: VertexSet) -> M1Certificate:
    """Certify a connected non-bipartite chordal graph whose bipartizer set
    is a triangle (then it is the only triangle in the graph)."""
    b = sorted(bipartizers)
    if len(b) != 3 or not all(
        g.has_edge(u, v) for u, v in ((b[0], b[1]), (b[0], b[2]), (b[1], b[2]))
    ):
        raise RuntimeError("internal error: bipartizers do not induce a triangle")
    tri_mask = sum(1 << v for v in b)
    trees = {v: _bfs_tree(g, v, tri_mask & ~(1 << v)) for v in b}
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
            x, y = _tail_edge(trees[v][1], trees[v][2], 2)
            wit |= {x, y}
        return _no(ObstructionKind("F3"), wit)
    # taller tree becomes the depth-2 side; ties keep the lower id first
    rest.sort(key=lambda v: (-heights[v], v))
    v1, v2 = rest
    if heights[v1] >= 3:
        x, y = _tail_edge(trees[v1][1], trees[v1][2], 3)
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
    return _yes(assignment)


# ---------------------------------------------------------------------------
# two bipartizers: all triangles share one edge
# ---------------------------------------------------------------------------


def solve_two_bipartizers(g: Graph, bipartizers: VertexSet) -> M1Certificate:
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

    apex_trees = {v: _bfs_tree(g, v, pair_mask) for v in apexes}
    for v in apexes:
        depth, parent = apex_trees[v][1], apex_trees[v][2]
        if max(depth) >= 2:
            other = min(a for a in apexes if a != v)
            x, y = _tail_edge(depth, parent, 2)
            return _no(ObstructionKind("F1"), {v1, v2, other, x, y})

    apex_mask = sum(1 << v for v in apexes)

    def side_tree(root: int, other: int):
        return _bfs_tree(g, root, apex_mask | 1 << other)

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
            x, y = _tail_edge(t1[1], t1[2], 3)
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
        return _yes(assignment)

    # every apex is bare: bound the two side trees by F3 then F1
    if h1 >= 2 and h2 >= 2:
        wit = {v1, v2, apexes[0]}
        for t in (t1, t2):
            x, y = _tail_edge(t[1], t[2], 2)
            wit |= {x, y}
        return _no(ObstructionKind("F3"), wit)
    if h2 >= 2:  # keep the shallow side at v2
        v1, v2, t1, t2, h1, h2 = v2, v1, t2, t1, h2, h1
    if h1 >= 3:
        x, y = _tail_edge(t1[1], t1[2], 3)
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
    return _yes(assignment)


# ---------------------------------------------------------------------------
# one bipartizer: hub of eccentricity two
# ---------------------------------------------------------------------------


def solve_one_bipartizer(g: Graph, hub: int) -> M1Certificate:
    """Certify a connected non-bipartite chordal graph whose only
    bipartizer is ``hub``."""
    full = (1 << g.n) - 1
    _, dist, parent = _bfs_tree(g, hub, 0)

    far = [v for v, d in enumerate(dist) if d >= 3]
    if far:
        x3 = min(v for v in far if dist[v] == 3)
        x2 = parent[x3]
        x1 = parent[x2]
        tri = _find_triangle(g, exclude=x1)
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
        comp, cdepth, cparent = _bfs_tree(g, seed, full & ~spoke_mask)
        attached_here = list(bits(comp & attach_mask))
        root = attached_here[0] if attached_here else seed
        if root != seed:
            comp, cdepth, cparent = _bfs_tree(g, root, full & ~spoke_mask)
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
    return _yes(assignment)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _certify_connected(g: Graph) -> M1Certificate:
    b = bipartizer_set(g)
    if not b:
        return _no(*extract_unbipartizable_obstruction(g))
    if len(b) == 3:
        return solve_unique_triangle(g, b)
    if len(b) == 2:
        return solve_two_bipartizers(g, b)
    if len(b) == 1:
        return solve_one_bipartizer(g, next(iter(b)))
    raise RuntimeError("internal error: more than three bipartizers without bipartiteness")


def _certify(g: Graph) -> M1Certificate:
    bip = is_bipartite(g)
    if bip:
        return _yes(list(bip.colouring))
    comps = component_masks(g)
    if len(comps) == 1:
        return _certify_connected(g)
    tri = _find_triangle(g)
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
    sub_cert = _certify_connected(induced(g, verts))
    if sub_cert.assignment is not None:
        assignment = [0] * g.n
        for i, v in enumerate(verts):
            assignment[v] = sub_cert.assignment[i]
        return _yes(assignment)
    kind, wit = sub_cert.witness
    return _no(kind, {verts[i] for i in wit})


def solve_certifying(g: Graph) -> M1Certificate:
    """Certificate for ``M1``-partitionability of a chordal graph.

    Raises :class:`NotChordalError` (carrying a hole) on non-chordal input.
    Output is deterministic for a fixed labelled input, and is re-verified
    internally before being returned.
    """
    chordality = is_chordal(g)
    if not chordality:
        raise NotChordalError(chordality.hole)
    cert = _certify(g)
    problem = verify_certificate(g, cert)
    if problem is not None:
        raise RuntimeError(f"internal error: produced invalid certificate: {problem}")
    return cert
