"""Immutable simple graphs with bitset adjacency.

Vertices are dense ids ``0..n-1`` and every neighbourhood is stored as a
Python int used as a bitset, so the subset/intersection tests that dominate
pattern detection and enumeration are single word-parallel operations.

The module also carries the graph interchange formats (graph6, plain edge
lists, DOT), the small-pattern search primitive (induced subgraph
embedding) and the one breadth-first search of the package:
``bfs_layers`` returns the layers around a set of sources as bitsets, and
a vertex's tree parent is its lowest neighbour in the previous layer
(``tree_path``), and ``forest`` runs it once per component.  Components,
depth-parity colourings, edges inside a layer and the odd cycles they
close are all read off those layers.
``selector`` spreads a set to one byte per vertex, so that
``itertools.compress`` picks its neighbourhoods out of ``adj`` in C; the
layer search expands a wide layer that way, and a narrow one in a loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

VertexSet = frozenset[int]

_GRAPH6_HEADER = ">>graph6<<"

#: Largest vertex count read or written: the graph6 limit (18-bit size).
MAX_VERTICES = 258047


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest(mask: int) -> int:
    """Index of the lowest set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


#: binary digits to the byte values 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def selector(n: int, mask: int) -> bytes:
    """The n-bit ``mask`` as n bytes, byte v 1 if bit v is set, else 0:
    ``compress(g.adj, selector(g.n, mask))`` yields the members'
    neighbourhoods in one C-level pass."""
    return format(mask | 1 << n, "b")[:0:-1].encode().translate(_DIGIT_BYTES)


def _bad_edge(n: int, u: int, v: int) -> ValueError:
    """The error for an edge (u, v) that no n-vertex simple graph has."""
    if 0 <= u < n and 0 <= v < n:
        return ValueError(f"self-loop at vertex {u}")
    return ValueError(f"edge ({u}, {v}) out of range for n={n}")


def first_edge(g: Graph, mask: int) -> tuple[int, int] | None:
    """Lexicographically first edge (u, w) with both ends in the bitset
    ``mask``, or None: u is the lowest vertex of ``mask`` with a neighbour
    there and w its lowest such neighbour.  No vertex below u has one, so
    w lies above u."""
    for u in bits(mask):
        if g.adj[u] & mask:
            return u, lowest(g.adj[u] & mask)
    return None


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitset. Construction
    symmetrises the edge list, rejects self-loops and collapses duplicate
    edges, so the adjacency invariants hold for every reachable instance.
    """

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise _bad_edge(n, u, v)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))

    @classmethod
    def _from_adj(cls, adj: Iterable[int]) -> Graph:
        """Graph whose neighbourhood bitsets are ``adj``, taken as given:
        the caller guarantees them symmetric and free of self-loops."""
        g = object.__new__(cls)
        masks = tuple(adj)
        object.__setattr__(g, "n", len(masks))
        object.__setattr__(g, "adj", masks)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

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

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


# ---------------------------------------------------------------------------
# graph6 codec
#
# Bit-exact per the de-facto standard: the upper triangle is scanned in
# column order ((0,1), (0,2), (1,2), (0,3), ...), and pair p of that
# stream is bit 5 - p % 6 of digit p // 6, a digit being one printable
# byte with offset 63.  Column j holds the pairs (0, j) .. (j-1, j) and
# starts at pair j(j-1)/2.  The one-byte size header covers n <= 62; the
# four-byte form ('~', the digit 63, then an 18-bit size) covers larger
# graphs.  Both directions work one digit at a time, in memory linear in
# the text.  The decoder visits only the digits other than '?', the ones
# that hold a pair, and sets each pair (u, j) in adj[u] and adj[j]: the
# format has u < j < n, so no edge list is built.  The encoder ORs each
# edge into its digit's value and maps the values to digits in one pass.
# ---------------------------------------------------------------------------

#: a digit value (0..63) to its digit
_G6_FROM_VALUE = bytes.maketrans(bytes(range(64)), bytes(range(63, 127)))
#: a byte to 0 for '?', 1 for another digit, 2 for a byte that is none
_G6_KIND = b"\2" * 63 + b"\0" + b"\1" * 63 + b"\2" * 129
#: a digit, as a byte, to the offsets within its six pairs of those it holds
_G6_PAIRS = [()] * 63 + [tuple(k for k in range(6) if d >> 5 - k & 1) for d in range(64)]


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` indexes the fault in the text as
    passed, before whitespace and the ``>>graph6<<`` header are removed."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(message, offset)  # pickled as these arguments
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (byte offset {self.offset})"


def from_graph6(text: str) -> Graph:
    """Decode one line of graph6 into a :class:`Graph`."""
    return _graph6_field(text).graph()


class _Graph6Field(NamedTuple):
    """One line of graph6, checked (``_graph6_field``): its bytes, their
    ``_G6_KIND`` kinds, the vertex count n and the index of the first
    digit of the bit field.  Its three readings visit only the digits
    other than '?'; ``_EdgeListKeys`` has the same three."""

    data: bytes
    kinds: bytes
    n: int
    pos: int

    def graph(self) -> Graph:
        """The graph of the field."""
        data, kinds, n, pos = self
        adj = [0] * n
        pairs = _G6_PAIRS
        find = kinds.find
        k = find(1, pos)  # the padding is zero: no digit holds a pair past the last
        j = 0
        end = 6 * pos  # pairs are counted from the text's first digit
        while k >= 0:
            first = 6 * k
            for i in pairs[data[k]]:
                i += first
                while i >= end:  # column j holds the pairs (0, j) .. (j-1, j)
                    j += 1
                    end += j
                u = i - end + j
                adj[u] |= 1 << j
                adj[j] |= 1 << u
            k = find(1, k + 1)
        return Graph._from_adj(adj)

    def cells(self, part: Sequence[int]) -> list[list[int]]:
        """The edges per pair of parts of the 3-part assignment ``part``:
        ``counts[a][b]`` edges (u, j), u < j, have j in part a and u in
        part b.  The walk is ``graph``'s, with no bitset built; the count
        row of column j and the offset of its pair (0, j) change only with
        the column."""
        data, kinds, _, pos = self
        counts = [[0] * 3 for _ in range(3)]
        pairs = _G6_PAIRS
        find = kinds.find
        k = find(1, pos)
        j = 0
        end = 6 * pos
        row, base = counts[0], 0  # set again at the first pair, which opens a column
        while k >= 0:
            first = 6 * k
            for i in pairs[data[k]]:
                i += first
                if i >= end:
                    while i >= end:
                        j += 1
                        end += j
                    row, base = counts[part[j]], j - end
                row[part[i + base]] += 1
            k = find(1, k + 1)
        return counts

    def among(self, vertices: VertexSet) -> list[tuple[int, int]]:
        """The edges (u, j), u < j, with both ends in ``vertices``, read
        off each member j's own column (0, j) .. (j-1, j)."""
        data, kinds, _, pos = self
        out = []
        pairs = _G6_PAIRS
        find = kinds.find
        for j in vertices:
            start = 6 * pos + j * (j - 1) // 2  # the pair (0, j), from the text's start
            stop = (start + j + 5) // 6  # past the digit of the pair (j-1, j)
            k = find(1, start // 6, stop)
            while k >= 0:
                first = 6 * k - start
                for i in pairs[data[k]]:
                    u = first + i
                    if 0 <= u < j and u in vertices:
                        out.append((u, j))
                k = find(1, k + 1, stop)
        return out


def _graph6_field(text: str) -> _Graph6Field:
    """One line of graph6, checked.  Raises :class:`Graph6Error` for a
    malformed line."""
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
    del s  # one copy fewer of a long text
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
    have = len(data) - pos
    if have < nbytes:
        raise error(f"truncated bit field: need {nbytes} bytes, have {have}", len(data))
    if have > nbytes:
        raise error("trailing bytes after bit field", pos + nbytes)
    kinds = data.translate(_G6_KIND)
    i = kinds.find(2)  # the header bytes are digits, so this lies in the field
    if i >= 0:
        raise error(f"illegal character {data[i]:#x} in bit field", i)
    if nbytes and (data[-1] - 63) & ((1 << (nbytes * 6 - npairs)) - 1):
        raise error("nonzero padding bits", pos + nbytes - 1)
    return _Graph6Field(data, kinds, n, pos)


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    adj = g.adj
    return _graph6_from_columns(g.n, (adj[j] & ((1 << j) - 1) for j in range(g.n)))


def _graph6_from_columns(n: int, columns: Iterable[int]) -> str:
    """graph6 line of the n-vertex graph whose lower-triangle columns are
    ``columns``, from column 0 up to column n-1: bit u of column j is the
    pair (u, j), for u < j."""
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 encoding supported only for n <= {MAX_VERTICES}")
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    values = bytearray(head) + bytes((n * (n - 1) // 2 + 5) // 6)
    first = len(head) * 6  # column j's first pair, counted from the head
    for j, col in enumerate(columns):
        while col:
            low = col & -col
            p = first + low.bit_length() - 1
            values[p // 6] |= 32 >> p % 6
            col ^= low
        first += j
    digits = values.translate(_G6_FROM_VALUE)
    del values  # two copies of the text at most
    return digits.decode("ascii")


# ---------------------------------------------------------------------------
# plain edge-list text and DOT emission
# ---------------------------------------------------------------------------


def from_edgelist(text: str) -> Graph:
    """Parse the 'n m' + one 'u v' line per edge format (0-based ids)."""
    return _edgelist_keys(text).graph()


class _EdgeListKeys(NamedTuple):
    """An edge-list text, checked (``_edgelist_keys``): the vertex count n
    and its edges, each once, as the keys u * n + v of their ends u < v.
    Its three readings are ``_Graph6Field``'s."""

    n: int
    keys: set[int]

    def graph(self) -> Graph:
        """The graph of the edges, whose ends are already checked: the
        masks are filled straight from the keys."""
        n = self.n
        masks = [0] * n
        for key in self.keys:
            u, v = divmod(key, n)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph._from_adj(masks)

    def cells(self, part: Sequence[int]) -> list[list[int]]:
        """``_Graph6Field.cells``: ``counts[a][b]`` edges (u, v), u < v,
        have v in part a and u in part b."""
        counts = [[0] * 3 for _ in range(3)]
        for u, v in map(divmod, self.keys, repeat(self.n)):
            counts[part[v]][part[u]] += 1
        return counts

    def among(self, vertices: VertexSet) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, with both ends in ``vertices``."""
        return [(u, v) for u, v in map(divmod, self.keys, repeat(self.n))
                if u in vertices and v in vertices]


def _edgelist_keys(text: str) -> _EdgeListKeys:
    """An edge-list text, checked.  Every line is read before the first
    bad edge raises ``Graph``'s error for it; no bitset is built."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list text")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"bad edge-list header: {lines[0]!r}") from None
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:  # checked before Graph allocates n masks
        raise ValueError(
            f"edge list has {n} vertices, at most {MAX_VERTICES} supported"
        )
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    keys = set()
    bad = None
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        if 0 <= u < n and 0 <= v < n and u != v:
            keys.add(u * n + v if u < v else v * n + u)
        elif bad is None:
            bad = _bad_edge(n, u, v)
    if bad is not None:
        raise bad
    return _EdgeListKeys(n, keys)


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """Emit DOT text: one line per vertex, then one per edge."""
    lines = ["graph {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
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
    # the placed prefix when possible, so constraint masks prune early: the
    # next vertex has the most placed neighbours, then the highest degree,
    # then the lowest id.  The heap holds those keys, negated so that the
    # least comes first, one per vertex and placed neighbour count; a key
    # behind its vertex's current count is stale and skipped, so the order
    # takes O(m log n) steps.
    adj = h.adj
    degree = [-a.bit_count() for a in adj]
    count = [0] * h.n
    heap = [(0, degree[v], v) for v in range(h.n)]
    heapq.heapify(heap)
    order: list[int] = []
    placed = 0
    while heap:
        c, _, v = heapq.heappop(heap)
        if c != count[v]:
            continue
        order.append(v)
        placed |= 1 << v
        for w in bits(adj[v] & ~placed):
            count[w] -= 1
            heapq.heappush(heap, (count[w], degree[w], w))
    return order


def _embed(g: Graph, h: Graph) -> dict[int, int] | None:
    """Injective map of h into g that preserves edges and non-edges.
    Deterministic: candidates tried in ascending vertex order.

    Step s places the s-th vertex x of ``_pattern_order(h)``.  Its plan
    entry holds x's neighbours placed before it (``joined``), the bitset
    of its earlier non-neighbours (``apart``, m of them) and the degree
    its image needs.  A node ANDs the neighbourhoods of the joined images,
    kept per placed vertex in ``near``, into its candidates, then rules out
    those that see an image of ``apart`` in whichever way costs less: m
    AND-NOTs if the candidates outnumber m, else one test per candidate,
    which must see exactly ``len(joined)`` placed images.  An entry is made
    when the search first reaches its step, so a search that fails early
    plans only that far."""
    if h.n > g.n:
        return None
    adj = g.adj
    gdeg = [a.bit_count() for a in adj]

    def entries() -> Iterator[tuple]:
        placed = 0
        for step, x in enumerate(_pattern_order(h)):
            joined = tuple(bits(h.adj[x] & placed))
            yield x, joined, len(joined), placed & ~h.adj[x], step - len(joined), h.degree(x)
            placed |= 1 << x

    steps = entries()
    plan: list[tuple] = []  # the entries made so far
    full = (1 << g.n) - 1
    image = [0] * h.n
    near = [0] * h.n

    def place(step: int, used: int) -> bool:
        if step == len(plan):
            if step == h.n:
                return True
            plan.append(next(steps))
        x, joined, k, apart, m, d = plan[step]
        cand = full ^ used
        for u in joined:
            cand &= near[u]
        test = cand.bit_count() <= m
        if not test:
            while apart:  # bits(apart), inlined
                low = apart & -apart
                apart ^= low
                cand &= ~near[low.bit_length() - 1]
        while cand:  # bits(cand), inlined
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if gdeg[v] < d or test and (adj[v] & used).bit_count() != k:
                continue
            image[x] = v
            near[x] = adj[v]
            if place(step + 1, used | low):
                return True
        return False

    if place(0, 0):
        return dict(enumerate(image))
    return None


def contains_induced(g: Graph, h: Graph) -> VertexSet | None:
    """Vertex set of g inducing a copy of h, or None if h is not induced."""
    emb = _embed(g, h)
    return frozenset(emb.values()) if emb is not None else None


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if sorted(map(a.degree, range(a.n))) != sorted(map(b.degree, range(b.n))):
        return False
    return _embed(a, b) is not None


# ---------------------------------------------------------------------------
# breadth-first layers, bipartiteness and components
#
# Every traversal is one layer search (``bfs_layers``) plus one parent
# rule: a vertex's parent is its lowest neighbour in the previous layer.
# ---------------------------------------------------------------------------


def bfs_layers(g: Graph, sources: int, removed: int = 0) -> list[int]:
    """Breadth-first layers from the bitset ``sources`` in g minus the
    bitset ``removed``: layer d is the bitset of the vertices at distance d
    from the nearest source.  Each layer is the OR of its predecessor's
    neighbourhoods, less the vertices already seen.

    The lowest member of a layer is expanded on its own.  The k members
    after it go through one C-level pass over their ``selector`` if
    k * k > 4n + 256, else through a loop.  The pass costs O(n) once; a
    loop step costs an interpreter round plus up to n bits of bitset
    work.  The rule follows their measured break-even (about 23 members
    at n = 200, 40 at n = 500 and 100 at n = 4000).  Graphs of at most 16
    vertices never take the pass, and a layer of one, as on a path, costs
    no count over n bits."""
    adj = g.adj
    wide = 4 * g.n + 256
    frontier = sources
    seen = removed | frontier
    layers = [frontier]
    while True:
        low = frontier & -frontier
        grown = adj[low.bit_length() - 1] if low else 0
        rest = frontier ^ low
        k = rest.bit_count()
        if k * k > wide:
            grown = reduce(or_, compress(adj, selector(g.n, rest)), grown)
        else:
            while rest:  # bits(rest), inlined: the hot loop of every traversal
                low = rest & -rest
                grown |= adj[low.bit_length() - 1]
                rest ^= low
        frontier = grown & ~seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(frontier)


def tree_path(g: Graph, layers: list[int], v: int, d: int) -> list[int]:
    """Path from ``v`` in ``layers[d]`` up to layer 0, each step to the
    lowest neighbour in the previous layer."""
    path = [v]
    for layer in reversed(layers[:d]):
        path.append(lowest(g.adj[path[-1]] & layer))
    return path


def forest(g: Graph, removed: int = 0) -> Iterator[tuple[int, list[int]]]:
    """Each component of g minus the bitset ``removed``, as a bitset, with
    its ``bfs_layers`` rooted at its lowest vertex, in order of that
    vertex."""
    rest = ((1 << g.n) - 1) & ~removed
    while rest:
        layers = bfs_layers(g, rest & -rest, removed)
        comp = reduce(or_, layers)
        rest &= ~comp
        yield comp, layers


@dataclass(frozen=True)
class BipartitenessCertificate:
    """Either a proper 2-colouring or an odd cycle (never both)."""

    colouring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.colouring is not None


def is_bipartite(g: Graph) -> BipartitenessCertificate:
    """2-colour g by depth parity, or return an odd cycle: the first edge
    (u, w) inside a layer of the first component that has one, first and
    last on the cycle, closed by the tree paths of u and w up to their
    lowest common ancestor.  One walk of the components."""
    odd = 0
    for _, layers in forest(g):
        for d, layer in enumerate(layers):
            edge = first_edge(g, layer)
            if edge:  # the tree paths of its two ends from layer d
                pu, pw = (tree_path(g, layers, v, d) for v in edge)
                top = next(i for i in range(1, len(pu)) if pu[i] == pw[i])
                return BipartitenessCertificate(None, tuple(pu[:top + 1] + pw[top - 1::-1]))
        odd = reduce(or_, layers[1::2], odd)
    return BipartitenessCertificate(tuple(selector(g.n, odd)), None)


def components(g: Graph) -> list[VertexSet]:
    """Connected components ordered by their smallest vertex."""
    return [frozenset(bits(comp)) for comp, _ in forest(g)]
