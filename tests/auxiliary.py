"""Three non-minimal six-vertex blockers for acceptance criterion 4.

Each has an empty bipartizer set and contains an induced F1, so the
solver never emits them and the library's catalogue leaves them out.
"""

from mpartition import Graph

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
