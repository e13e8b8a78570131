"""Seeded input pools for the benchmark workloads.

Every instance is built from ``(workload, seed, index)`` alone and carries
the answer it was planted with.  A pool is a fixed list of generator
classes; the seed changes only the shapes inside each class (tree shapes,
path lengths, vertex labels), never the class mix or the vertex count, so
verdict costs stay comparable across seeds.

Trees come from the program's own generator, ``random_chordal`` with
``attach_bias=1.0`` (every new vertex attaches to exactly one old one).
Everything else is assembled here from the structures the solver's branch
analysis distinguishes:

* bipartite hosts (no triangle),
* a hub over spoke paths with pendant leaves (one bipartizer),
* a shared edge with apexes (two bipartizers),
* a unique triangle with hanging trees (three bipartizers),
* a triangle component beside other components,
* F5, F6 and F7 cores, whose bipartizer set is empty.

Planting F3 and F4 needs care: a tree on the wrong triangle corner turns
F3 into F2, and a pendant on any spoke but the two central ones turns F4
into F2.  The builders below keep those corners and spokes bare.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

#: Vertex count of every certify_yes and certify_no instance.
N_CERTIFY = 500
#: Vertex count of every cli_check_verify instance.
N_CLI = 200
#: Fan parameter of the Fan(k) hosts in certify_no.
FAN_K_CERTIFY = 100
#: Fan parameters of the Fan(k) hosts in cli_check_verify.
FAN_K_CLI = (6, 9, 12)

RandomChordal = Callable[[int, float, int], object]


@dataclass(frozen=True)
class Instance:
    """One generated input with its planted answer."""

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    decision: str


class _Host:
    """Vertex-by-vertex builder of one instance."""

    def __init__(self, rng: random.Random, random_chordal: RandomChordal) -> None:
        self.rng = rng
        self.random_chordal = random_chordal
        self.n = 0
        self.edges: list[tuple[int, int]] = []
        #: vertices whose relative order survives relabelling
        self.ordered: list[int] = []

    def vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def vertices(self, count: int) -> list[int]:
        return [self.vertex() for _ in range(count)]

    def join(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def clique(self, vs: list[int]) -> None:
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                self.join(u, v)

    def leaves(self, parent: int, count: int) -> list[int]:
        out = self.vertices(count)
        for v in out:
            self.join(parent, v)
        return out

    def tree(self, root: int, size: int) -> None:
        """Hang a random tree with ``size`` new vertices below ``root``."""
        if size <= 0:
            return
        t = self.random_chordal(size + 1, 1.0, self.rng.randrange(1 << 30))
        ids = [root] + self.vertices(size)
        for u, v in t.edges():
            self.join(ids[u], ids[v])

    def tall_tree(self, root: int, size: int, height: int) -> None:
        """Random tree of ``size`` new vertices whose depth is at least
        ``height`` (a path of that length is one of its branches)."""
        prev = root
        for _ in range(height):
            nxt = self.vertex()
            self.join(prev, nxt)
            prev = nxt
        self.tree(root, size - height)

    def bounded_tree(self, root: int, size: int, height: int) -> None:
        """Tree of ``size`` new vertices with depth at most ``height`` (1 or 2)."""
        if size <= 0:
            return
        if height == 1:
            self.leaves(root, size)
            return
        width = max(1, round(math.sqrt(size) * self.rng.uniform(0.5, 1.5)))
        width = min(width, size)
        children = self.leaves(root, width)
        for _ in range(size - width):
            self.join(self.rng.choice(children), self.vertex())

    def trees_on(self, anchors: list[int], size: int) -> None:
        """Spread ``size`` new vertices over random trees on random anchors."""
        count = self.rng.randint(1, len(anchors))
        cuts = sorted(self.rng.randint(0, size) for _ in range(count - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        for s in sizes:
            self.tree(self.rng.choice(anchors), s)

    def spoke_path(self, hub: int, length: int) -> list[int]:
        """A path of ``length`` new vertices, each adjacent to ``hub``."""
        path = self.vertices(length)
        for i, v in enumerate(path):
            self.join(hub, v)
            if i:
                self.join(path[i - 1], v)
        return path

    def spoke_paths(self, hub: int, budget: int, first: int = 2) -> None:
        """Spend ``budget`` vertices on spoke paths under ``hub`` plus pendant
        leaves on even path positions, so every two pendant-holding spokes
        of one path lie at even distance (no fan, no adjacent pair)."""
        if budget <= 0:
            return
        spokes = max(1, budget // 2)
        even: list[int] = []
        while spokes:
            length = min(spokes, self.rng.randint(first, 12))
            first = 1
            path = self.spoke_path(hub, length)
            even.extend(path[::2])
            spokes -= length
        for _ in range(budget - max(1, budget // 2)):
            self.join(self.rng.choice(even), self.vertex())

    def split(self, total: int, parts: int) -> list[int]:
        """Random composition of ``total`` into ``parts`` positive sizes."""
        cuts = sorted(self.rng.sample(range(1, total), parts - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    def finish(self, label: str, decision: str) -> Instance:
        perm = list(range(self.n))
        self.rng.shuffle(perm)
        slots = sorted(perm[v] for v in self.ordered)
        for v, slot in zip(self.ordered, slots):
            perm[v] = slot
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        self.rng.shuffle(edges)
        return Instance(label, self.n, tuple(edges), decision)


# ---------------------------------------------------------------------------
# yes-instances
# ---------------------------------------------------------------------------


def yes_tree(h: _Host, n: int) -> str:
    h.tree(h.vertex(), n - 1)
    return "yes"


def yes_hub(h: _Host, n: int) -> str:
    h.spoke_paths(h.vertex(), n - 1)
    return "yes"


def _shared_edge(h: _Host) -> tuple[int, int, list[int]]:
    v1, v2 = h.vertices(2)
    h.join(v1, v2)
    apexes = h.vertices(h.rng.randint(2, 30))
    for a in apexes:
        h.join(a, v1)
        h.join(a, v2)
    return v1, v2, apexes


def yes_two_tall_apexes(h: _Host, n: int) -> str:
    # pendants on apexes force one bare side and a side tree of depth <= 2
    v1, _, apexes = _shared_edge(h)
    for a in apexes[: h.rng.randint(1, len(apexes))]:
        h.leaves(a, h.rng.randint(1, 3))
    h.bounded_tree(v1, n - h.n, 2)
    return "yes"


def yes_two_bare_apexes(h: _Host, n: int) -> str:
    v1, v2, _ = _shared_edge(h)
    s1, s2 = h.split(n - h.n, 2)
    h.bounded_tree(v1, s1, 2)
    h.bounded_tree(v2, s2, 1)
    return "yes"


def yes_three(h: _Host, n: int) -> str:
    _, t1, t2 = tri = h.vertices(3)
    h.clique(tri)
    s1, s2 = h.split(n - 3, 2)
    h.bounded_tree(t1, s1, 2)
    h.bounded_tree(t2, s2, 1)
    return "yes"


def yes_components_three(h: _Host, n: int) -> str:
    isolated = h.rng.randint(n // 10, n // 5)
    yes_three(h, n - isolated)
    h.vertices(isolated)
    return "yes"


def yes_components_hub(h: _Host, n: int) -> str:
    isolated = h.rng.randint(n // 10, n // 5)
    yes_hub(h, n - isolated)
    h.vertices(isolated)
    return "yes"


# ---------------------------------------------------------------------------
# no-instances: each planted kind, reached through the branch named
# ---------------------------------------------------------------------------


def no_f1_three(h: _Host, n: int) -> str:
    """Unique triangle, one corner bare, one tree of depth >= 3."""
    _, t1, t2 = tri = h.vertices(3)
    h.clique(tri)
    star = h.rng.randint(0, n // 10)
    h.leaves(t2, star)
    h.tall_tree(t1, n - h.n, 3)
    return "no"


def no_f1_components(h: _Host, n: int) -> str:
    """A hub component beside a tree component (an edge off the triangle)."""
    other = h.rng.randint(n // 10, n // 5)
    yes_hub(h, n - other)
    h.tree(h.vertex(), other - 1)
    return "no"


def no_f1_two(h: _Host, n: int) -> str:
    """Shared edge whose first apex carries a tree of depth >= 2."""
    v1, v2, apexes = _shared_edge(h)
    h.tall_tree(apexes[0], h.rng.randint(2, (n - h.n) // 2), 2)
    h.bounded_tree(v1, h.rng.randint(0, n - h.n), 2)
    h.bounded_tree(v2, n - h.n, 1)
    return "no"


def no_f2_three(h: _Host, n: int) -> str:
    """Unique triangle with a tree on every corner (the net)."""
    tri = h.vertices(3)
    h.clique(tri)
    for t, s in zip(tri, h.split(n - 3, 3)):
        h.tree(t, s)
    return "no"


def no_f2_two(h: _Host, n: int) -> str:
    """Shared edge, a pendant-holding apex and both sides non-bare."""
    v1, v2, apexes = _shared_edge(h)
    h.leaves(apexes[0], h.rng.randint(1, 3))
    s1, s2 = h.split(n - h.n, 2)
    h.bounded_tree(v1, s1, 2)
    h.bounded_tree(v2, s2, 1)
    return "no"


def no_f2_hub(h: _Host, n: int) -> str:
    """Hub whose first spoke path holds pendants on two adjacent spokes."""
    hub = h.vertex()
    path = h.spoke_path(hub, h.rng.randint(3, 12))
    h.leaves(path[0], 1)
    h.leaves(path[1], 1)
    h.spoke_paths(hub, n - h.n)
    return "no"


def no_f3_three(h: _Host, n: int) -> str:
    """Unique triangle, one corner bare, two trees of depth >= 2."""
    _, t1, t2 = tri = h.vertices(3)
    h.clique(tri)
    h.tall_tree(t1, h.rng.randint(2, n - h.n - 2), 2)
    h.tall_tree(t2, n - h.n, 2)
    return "no"


def no_f3_two(h: _Host, n: int) -> str:
    """Shared edge, bare apexes, both side trees of depth >= 2."""
    v1, v2, _ = _shared_edge(h)
    h.tall_tree(v1, h.rng.randint(2, n - h.n - 2), 2)
    h.tall_tree(v2, n - h.n, 2)
    return "no"


def no_f4(h: _Host, n: int) -> str:
    """Hub over a double star of spokes; pendants only on its two centres."""
    hub, u, w = h.vertices(3)
    h.join(u, w)
    h.join(hub, u)
    h.join(hub, w)
    spokes_u, spokes_w, pendants_u, pendants_w = h.split(n - 3, 4)
    for leaf in h.leaves(u, spokes_u) + h.leaves(w, spokes_w):
        h.join(hub, leaf)
    h.leaves(u, pendants_u)
    h.leaves(w, pendants_w)
    return "no"


def no_f5(h: _Host, n: int) -> str:
    """3-sun: inner triangle a, b, c and one outer vertex per inner edge."""
    inner = h.vertices(3)
    h.clique(inner)
    core = list(inner)
    for i in range(3):
        x = h.vertex()
        h.join(x, inner[i])
        h.join(x, inner[(i + 1) % 3])
        core.append(x)
    h.trees_on(core, n - h.n)
    return "no"


def no_f6(h: _Host, n: int) -> str:
    """Two disjoint triangles a1a2a3, b1b2b3 joined by a1b1, a2b2 and a1b2."""
    a = h.vertices(3)
    b = h.vertices(3)
    h.clique(a)
    h.clique(b)
    h.join(a[0], b[0])
    h.join(a[1], b[1])
    h.join(a[0], b[1])
    h.trees_on(a + b, n - h.n)
    return "no"


def no_f7(h: _Host, n: int) -> str:
    core = h.vertices(4)
    h.clique(core)
    h.trees_on(core, n - h.n)
    return "no"


def no_fan(k: int) -> Callable[[_Host, int], str]:
    """Hub over a spoke path of 2k vertices with a pendant on each end;
    the path from end to end has odd length 2k - 1, giving Fan(k)."""

    def build(h: _Host, n: int) -> str:
        hub = h.vertex()
        path = h.spoke_path(hub, 2 * k)
        ends = h.leaves(path[0], 1) + h.leaves(path[-1], 1)
        # The cost of checking the witness by backtracking isomorphism
        # depends on the order of its vertex ids, by a factor of three
        # between random orders at k = 100.  Every Fan(k) host gets the
        # same random order, which no seed changes, so the seed varies
        # the host without moving the cost.
        h.ordered = [hub] + path + ends
        random.Random(f"fan/{k}").shuffle(h.ordered)
        h.spoke_paths(hub, n - h.n, first=1)
        return "no"

    build.__name__ = f"no_fan{k}"
    return build


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

Builder = Callable[[_Host, int], str]

_CERTIFY_YES: list[tuple[Builder, int]] = [
    (yes_tree, 4),
    (yes_hub, 4),
    (yes_two_tall_apexes, 2),
    (yes_two_bare_apexes, 2),
    (yes_three, 4),
    (yes_components_three, 2),
    (yes_components_hub, 2),
]

_CERTIFY_NO: list[tuple[Builder, int]] = [
    (no_f1_three, 1),
    (no_f1_components, 1),
    (no_f1_two, 1),
    (no_f2_three, 1),
    (no_f2_two, 1),
    (no_f2_hub, 1),
    (no_f3_three, 1),
    (no_f3_two, 1),
    (no_f4, 2),
    (no_f5, 2),
    (no_f6, 2),
    (no_f7, 2),
    (no_fan(FAN_K_CERTIFY), 4),
]

_CLI: list[tuple[Builder, int]] = [
    (yes_tree, 2),
    (yes_hub, 2),
    (yes_two_tall_apexes, 1),
    (yes_two_bare_apexes, 1),
    (yes_three, 2),
    (yes_components_three, 1),
    (yes_components_hub, 1),
    (no_f1_three, 1),
    (no_f2_hub, 1),
    (no_f3_two, 1),
    (no_f4, 1),
    (no_f5, 1),
    (no_f6, 1),
    (no_f7, 1),
] + [(no_fan(k), 1) for k in FAN_K_CLI]

POOLS: dict[str, tuple[list[tuple[Builder, int]], int]] = {
    "certify_yes": (_CERTIFY_YES, N_CERTIFY),
    "certify_no": (_CERTIFY_NO, N_CERTIFY),
    "cli_check_verify": (_CLI, N_CLI),
}


def build_one(
    builder: Builder, n: int, rng: random.Random, random_chordal: RandomChordal
) -> Instance:
    h = _Host(rng, random_chordal)
    decision = builder(h, n)
    if h.n != n:
        raise AssertionError(f"{builder.__name__} built {h.n} vertices, not {n}")
    return h.finish(builder.__name__, decision)


def pool(workload: str, seed: int, random_chordal: RandomChordal) -> list[Instance]:
    """The instances of one round of ``workload`` for ``seed``."""
    builders, n = POOLS[workload]
    out = []
    for builder, count in builders:
        for copy in range(count):
            rng = random.Random(f"{workload}/{seed}/{builder.__name__}/{copy}")
            out.append(build_one(builder, n, rng, random_chordal))
    return out
