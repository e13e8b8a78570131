"""Fixed catalogue of the chordal minimal obstructions for the three-part
pattern :data:`~mpartition.patterns.M1`, plus detection of catalogue
members inside host graphs.

The catalogue is exactly the paper's family: the seven graphs F1..F7 and
the infinite fan family Fan(k), k >= 2.  The edge lists below are data;
the test suite validates every member mechanically (chordality,
minimal-obstruction status via the exhaustive solver, and the structural
roles the solver relies on), so a mistranscription cannot survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph, VertexSet, contains_induced

FINITE_MINIMAL_TAGS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")


@dataclass(frozen=True)
class ObstructionKind:
    """Catalogue tag: one of F1..F7, or Fan(k) with k >= 2."""

    tag: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.tag == "Fan":
            if self.k is None or self.k < 2:
                raise ValueError("fan kinds need k >= 2")
        elif self.tag not in FINITE_MINIMAL_TAGS:
            raise ValueError(f"unknown obstruction tag {self.tag!r}")
        elif self.k is not None:
            raise ValueError("only fan kinds carry a parameter")

    def __str__(self) -> str:
        return f"Fan({self.k})" if self.tag == "Fan" else self.tag

    def to_json_dict(self, **fields: object) -> dict:
        """JSON fields naming this kind: its tag, k for a fan, then ``fields``."""
        return {"kind": self.tag, **({} if self.k is None else {"k": self.k}), **fields}


def fan_kind(k: int) -> ObstructionKind:
    return ObstructionKind("Fan", k)


def fan(k: int) -> Graph:
    """Path w0..w(2k+1) plus an apex adjacent to every internal path vertex.

    The path has odd length 2k+1 >= 5 and the apex (vertex 2k+2) misses
    exactly the two path endpoints, giving 2k+3 vertices and 4k+1 edges.
    """
    if k < 2:
        raise ValueError("fans are defined for k >= 2")
    last = 2 * k + 1
    apex = last + 1
    edges = [(i, i + 1) for i in range(last)]
    edges += [(apex, w) for w in range(1, last)]
    return Graph(apex + 1, edges)


_EDGE_LISTS: dict[str, tuple[int, list[tuple[int, int]]]] = {
    # triangle plus a disjoint, non-adjacent edge
    "F1": (5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    # the net: triangle with one pendant on each corner
    "F2": (6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]),
    # triangle with length-2 tails on two corners
    "F3": (7, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (2, 5), (5, 6)]),
    # hub over the path 5-2-1-6 with pendants on the two middle vertices
    "F4": (7, [(0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (2, 5), (1, 6),
               (1, 3), (2, 4)]),
    # the 3-sun: inner triangle 1,3,5; each outer vertex sees two inner ones
    "F5": (6, [(0, 1), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (3, 4),
               (3, 5), (4, 5)]),
    # two triangles 0,3,4 and 1,2,5 with a matching (0-1, 4-5) and one
    # diagonal (1-4) of the four-cycle the matching closes
    "F6": (6, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 5),
               (3, 4), (4, 5)]),
    # the complete graph on four vertices
    "F7": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


@lru_cache(maxsize=None)
def catalogue_graph(tag: str) -> Graph:
    n, edges = _EDGE_LISTS[tag]
    return Graph(n, edges)


def obstruction_graph(kind: ObstructionKind) -> Graph:
    """The concrete graph of a catalogue member or fan."""
    if kind.tag == "Fan":
        assert kind.k is not None
        return fan(kind.k)
    return catalogue_graph(kind.tag)


def obstruction_size(kind: ObstructionKind) -> int:
    """Vertex count of :func:`obstruction_graph`, without building it."""
    if kind.tag == "Fan":
        assert kind.k is not None
        return 2 * kind.k + 3
    return _EDGE_LISTS[kind.tag][0]


def find_obstruction_by_scan(
    g: Graph,
) -> tuple[ObstructionKind, VertexSet] | None:
    """Exhaustive induced-subgraph scan against every minimal member.

    Checks F1..F7 in tag order, then fans with increasing k while they fit
    inside g: Fan(k) has 2k + 3 vertices and its apex sees 2k of them, so
    only k with 2k at most g's maximum degree can occur.  Absence means g
    avoids the entire family.
    """
    for tag in FINITE_MINIMAL_TAGS:
        witness = contains_induced(g, catalogue_graph(tag))
        if witness is not None:
            return ObstructionKind(tag), witness
    reach = min(g.n - 3, max(map(g.degree, range(g.n)), default=0))
    for k in range(2, reach // 2 + 1):
        witness = contains_induced(g, fan(k))
        if witness is not None:
            return fan_kind(k), witness
    return None
