"""Immutable simple graphs with bitset adjacency.

Vertices are dense ids ``0..n-1`` and every neighbourhood is stored as a
Python int used as a bitset, so the subset/intersection tests that dominate
pattern detection and enumeration are single word-parallel operations.

The module also carries the graph interchange formats (graph6, plain edge
lists, DOT) and the small-pattern search primitives (induced and ordinary
subgraph embedding, bipartiteness with certificates, components).
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Iterable, Iterator

VertexSet = frozenset[int]

_GRAPH6_HEADER = ">>graph6<<"


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitset. Construction
    symmetrises the edge list, rejects self-loops and collapses duplicate
    edges, so the adjacency invariants hold for every reachable instance.
    """

    __slots__ = ("n", "adj", "_hash")

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))
        object.__setattr__(self, "_hash", hash((n, self.adj)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(higher))
        return out

    @property
    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


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


# ---------------------------------------------------------------------------
# graph6 codec
#
# Bit-exact per the de-facto standard: the upper triangle is scanned in
# column order ((0,1), (0,2), (1,2), (0,3), ...), packed into big-endian
# 6-bit groups, each stored as one printable byte with offset 63.  The
# one-byte size header covers n <= 62; the four-byte form (0x7e prefix,
# 18-bit size) covers larger graphs.  A 6-bit group is one base64 digit, so
# the bit field goes through binascii's base64 codec: linear in the text.
# ---------------------------------------------------------------------------

_G6_DIGITS = bytes(range(63, 127))
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_B64 = bytes.maketrans(_G6_DIGITS, _B64_DIGITS)
_B64_TO_G6 = bytes.maketrans(_B64_DIGITS, _G6_DIGITS)


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` indexes the fault in the text as
    passed, before whitespace and the ``>>graph6<<`` header are removed."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def from_graph6(text: str) -> Graph:
    """Decode one line of graph6 into a :class:`Graph`."""
    s = text.strip().removeprefix(_GRAPH6_HEADER)
    lead = len(text.rstrip()) - len(s)  # where s starts in text

    def error(message: str, offset: int) -> Graph6Error:
        return Graph6Error(message, lead + offset)

    if not s:
        raise error("empty graph6 string", 0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise error("non-ASCII character", exc.start) from None
    if data[0] == 126:  # '~' introduces the multi-byte size forms
        if len(data) >= 2 and data[1] == 126:
            raise error("8-byte size form (n > 258047) not supported", 0)
        if len(data) < 4:
            raise error("truncated long-form size header", len(data))
        n = 0
        for i in range(1, 4):
            if not 63 <= data[i] <= 126:
                raise error(f"illegal size byte {data[i]:#x}", i)
            n = (n << 6) | (data[i] - 63)
        if n <= 62:
            raise error("long-form size header used for n <= 62", 0)
        pos = 4
    else:
        if not 63 <= data[0] <= 126:
            raise error(f"illegal size byte {data[0]:#x}", 0)
        n = data[0] - 63
        pos = 1
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    field = data[pos:]
    if len(field) < nbytes:
        raise error(
            f"truncated bit field: need {nbytes} bytes, have {len(field)}", len(data)
        )
    if len(field) > nbytes:
        raise error("trailing bytes after bit field", pos + nbytes)
    illegal = field.translate(None, _G6_DIGITS)
    if illegal:
        raise error(f"illegal character {illegal[0]:#x} in bit field",
                    pos + field.index(illegal[0]))
    quanta = field.translate(_G6_TO_B64) + b"A" * (-nbytes % 4)  # zero digits
    stream = int.from_bytes(binascii.a2b_base64(quanta), "big")
    stream = format(stream, f"0{len(quanta) * 6}b")
    if "1" in stream[npairs:nbytes * 6]:
        raise error("nonzero padding bits", pos + nbytes - 1)
    edges = []
    start = 0
    for j in range(1, n):  # column j holds the pairs (0, j) .. (j-1, j)
        i = stream.find("1", start, start + j)
        while i >= 0:
            edges.append((i - start, j))
            i = stream.find("1", i + 1, start + j)
        start += j
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    n = g.n
    if n > 258047:
        raise ValueError("graph6 encoding supported only for n <= 258047")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    # Columns from the last to the first, each its lower neighbourhood high
    # bit first, spell the pair stream backwards.  Chunks of ~4096 bits keep
    # small graphs to one format call and large ones free of a growing int.
    chunks = []
    chunk = width = 0
    for j in range(n - 1, 0, -1):
        chunk = chunk << j | g.adj[j] & ((1 << j) - 1)
        width += j
        if width >= 4096 or j == 1:
            chunks.append(format(chunk, f"0{width}b"))
            chunk = width = 0
    stream = "".join(chunks)[::-1]
    nbytes = (len(stream) + 5) // 6
    stream += "0" * ((nbytes + -nbytes % 4) * 6 - len(stream))  # whole base64 quanta
    quanta = int(stream or "0", 2).to_bytes(len(stream) // 8, "big")
    body = binascii.b2a_base64(quanta, newline=False)[:nbytes]
    return head + body.translate(_B64_TO_G6).decode("ascii")


# ---------------------------------------------------------------------------
# plain edge-list text and DOT emission
# ---------------------------------------------------------------------------


def from_edgelist(text: str) -> Graph:
    """Parse the 'n m' + one 'u v' line per edge format (0-based ids)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list text")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"bad edge-list header: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, highlight: VertexSet = frozenset()) -> str:
    """Emit DOT text; vertices in ``highlight`` get a filled style."""
    lines = ["graph {"]
    for v in range(g.n):
        attr = ' [style=filled, fillcolor=lightblue]' if v in highlight else ""
        lines.append(f"  {v}{attr};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# induced subgraphs and small-pattern search
# ---------------------------------------------------------------------------


def induced(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced on ``s``, relabelled by ascending original id."""
    keep = sorted(set(s))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(keep)}
    rest = 0
    for v in keep:
        rest |= 1 << v
    edges = []
    for i, u in enumerate(keep):
        rest ^= 1 << u  # kept vertices above u
        edges.extend((i, index[v]) for v in bits(g.adj[u] & rest))
    return Graph(len(keep), edges)


def _pattern_order(h: Graph) -> list[int]:
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


def _embed(g: Graph, h: Graph, induced_mode: bool) -> dict[int, int] | None:
    """Injective map of h into g, edge-preserving (and non-edge-preserving
    when ``induced_mode``).  Deterministic: candidates tried in ascending
    vertex order."""
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
            elif induced_mode:
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


def contains_induced(g: Graph, h: Graph) -> VertexSet | None:
    """Vertex set of g inducing a copy of h, or None if h is not induced."""
    emb = _embed(g, h, induced_mode=True)
    return frozenset(emb.values()) if emb is not None else None


def contains_subgraph(g: Graph, h: Graph) -> dict[int, int] | None:
    """Injective edge-preserving map h -> g (chords in g allowed), or None."""
    return _embed(g, h, induced_mode=False)


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if sorted(map(a.degree, range(a.n))) != sorted(map(b.degree, range(b.n))):
        return False
    return _embed(a, b, induced_mode=True) is not None


# ---------------------------------------------------------------------------
# bipartiteness and components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartitenessCertificate:
    """Either a proper 2-colouring or an odd cycle (never both)."""

    colouring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.colouring is not None


def is_bipartite(g: Graph) -> BipartitenessCertificate:
    """2-colour g or return an odd cycle extracted from the BFS forest."""
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
                            None, _odd_cycle_from(u, v, parent, depth)
                        )
            queue = nxt
    return BipartitenessCertificate(tuple(colour), None)


def _odd_cycle_from(
    u: int, v: int, parent: list[int], depth: list[int]
) -> tuple[int, ...]:
    # Walk both endpoints of the offending edge up to their lowest common
    # BFS ancestor; the two tree paths plus the edge form an odd cycle.
    pu, pv = [u], [v]
    while depth[pu[-1]] > depth[pv[-1]]:
        pu.append(parent[pu[-1]])
    while depth[pv[-1]] > depth[pu[-1]]:
        pv.append(parent[pv[-1]])
    while pu[-1] != pv[-1]:
        pu.append(parent[pu[-1]])
        pv.append(parent[pv[-1]])
    return tuple(pu + pv[-2::-1])


def components(g: Graph) -> list[VertexSet]:
    """Connected components ordered by their smallest vertex."""
    seen = 0
    out: list[VertexSet] = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            grown = comp
            for u in bits(frontier):
                grown |= g.adj[u]
            frontier = grown & ~comp
            comp = grown
        seen |= comp
        out.append(frozenset(bits(comp)))
    return out


def component_masks(g: Graph) -> list[int]:
    """Connected components as bitsets, ordered by smallest vertex."""
    return [sum(1 << v for v in comp) for comp in components(g)]
