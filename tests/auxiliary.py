"""Test-only graph helpers.

Three non-minimal six-vertex blockers for acceptance criterion 4: each
has an empty bipartizer set and contains an induced F1, so the solver
never emits them and the library's catalogue leaves them out.  Beside
them, the constructors of complete graphs, paths, cycles and disjoint
unions, and the two graph predicates that only tests need: connectivity
and (not necessarily induced) subgraph containment.
"""

from mpartition import Graph, components
from mpartition.graph import _pattern_order, bits

AUXILIARY_EDGE_LISTS = {
    # two disjoint triangles
    "F0": (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    # two triangles joined by a single edge
    "F01": (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]),
    # two triangles joined by two edges sharing an endpoint
    "F02": (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (2, 4)]),
}
AUXILIARY_TAGS = tuple(AUXILIARY_EDGE_LISTS)


def auxiliary_graph(tag: str) -> Graph:
    n, edges = AUXILIARY_EDGE_LISTS[tag]
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges)


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(components(g)) == 1


def contains_subgraph(g: Graph, h: Graph) -> dict[int, int] | None:
    """Injective edge-preserving map h -> g (chords in g allowed), or None.
    Backtracking in the library's pattern order, candidates tried in
    ascending vertex order."""
    if h.n > g.n:
        return None
    order = _pattern_order(h)
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
        for v in bits(cand):
            if g.degree(v) < h.degree(x):
                continue
            image[x] = v
            if place(step + 1, used | (1 << v)):
                return True
        image[x] = -1
        return False

    return {x: image[x] for x in range(h.n)} if place(0, 0) else None
