"""Generic matrix-partition semantics over {0, 1, *} patterns.

A pattern is a symmetric m-by-m matrix whose cell (i, j) constrains the
pairs across parts i and j of a vertex partition: 1 forces complete
adjacency, 0 forces complete non-adjacency, * imposes nothing.  Diagonal
cells therefore force a part to be a clique (1) or an independent set (0).
Star diagonals are rejected at construction: a part without restrictions
could swallow the whole graph, making every instance trivially solvable.

``verify_assignment`` and ``solve``, an exhaustive backtracking oracle
for small graphs, work on demand masks: per part, the vertices its
members must see (those of the parts in its row's 1 cells) and must miss
(its 0 cells).  The verifier decides by testing each part's members
against its demands in C-level passes; its scan, which only names the
first violating pair, and the search share one test: vertex v fits part
i iff ``must_see[i] & ~adj[v]`` and ``must_miss[i] & adj[v]`` are both
empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_
from typing import Sequence

from .graph import Graph, induced, selector

ZERO, ONE, STAR = "0", "1", "*"

Assignment = tuple[int, ...]


def assignment_parts(assignment: Sequence[int], m: int) -> list[list[int]]:
    """The members of each of the m parts of ``assignment``, ascending."""
    parts: list[list[int]] = [[] for _ in range(m)]
    for v, part in enumerate(assignment):
        parts[part].append(v)
    return parts


@dataclass(frozen=True)
class Pattern:
    """Symmetric matrix over {0, 1, *} with a 0/1 diagonal."""

    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.cells)
        if not m:
            raise ValueError("pattern matrix has no rows")
        for row in self.cells:
            if len(row) != m:
                raise ValueError("pattern matrix must be square")
            for cell in row:
                if cell not in (ZERO, ONE, STAR):
                    raise ValueError(f"bad pattern cell {cell!r}")
        for i in range(m):
            if self.cells[i][i] == STAR:
                raise ValueError(
                    "star diagonal rejected: an unrestricted part admits the "
                    "trivial partition placing every vertex in it"
                )
            for j in range(i):
                if self.cells[i][j] != self.cells[j][i]:
                    raise ValueError(f"pattern not symmetric at ({i}, {j})")

    @property
    def m(self) -> int:
        return len(self.cells)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse the m-line text form, one row of {0,1,*} characters each."""
        rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
        return cls(tuple(tuple(row) for row in rows))

    def as_text(self) -> str:
        return "\n".join("".join(row) for row in self.cells) + "\n"


#: Three independent parts; the last two must be completely joined.
M1 = Pattern.parse("0**\n*01\n*10")


@dataclass(frozen=True)
class PartitionViolation:
    """One offending vertex pair and the cell it violates."""

    u: int
    v: int
    part_u: int
    part_v: int
    cell: str

    def __str__(self) -> str:
        need = "adjacent" if self.cell == ONE else "non-adjacent"
        return (
            f"vertices {self.u} (part {self.part_u}) and {self.v} "
            f"(part {self.part_v}) must be {need}"
        )


def verify_assignment(
    g: Graph, pattern: Pattern, assignment: Sequence[int]
) -> PartitionViolation | None:
    """None if the assignment satisfies the pattern, else the first violation.

    The assignment must place every vertex in a valid part; parts may be
    empty.  ``_unmet_demands`` builds the masks once and decides at every
    pattern width; the scan only names the first violating pair.
    """
    if len(assignment) != g.n:
        raise ValueError(f"assignment covers {len(assignment)} of {g.n} vertices")
    demands = _unmet_demands(g, pattern, assignment)
    if demands is None:
        return None
    must_see, must_miss = demands
    for u, i in enumerate(assignment):
        nb = g.adj[u]
        bad = (must_see[i] & ~nb | must_miss[i] & nb) >> (u + 1)
        if bad:
            v = u + (bad & -bad).bit_length()
            j = assignment[v]
            return PartitionViolation(u, v, i, j, pattern.cells[i][j])
    raise RuntimeError("internal error: a part fails but no pair violates it")


def _unmet_demands(
    g: Graph, pattern: Pattern, assignment: Sequence[int]
) -> tuple[list[int], list[int]] | None:
    """None if every part meets its row of the pattern, else the demand
    masks: per part, the vertices its members must see, and must miss.

    The part masks are read off the assignment's bytes when every part
    fits in one, else vertex by vertex, raising for the first vertex in an
    invalid part.  Each part is checked against its demands: no member's
    neighbourhood may meet a part of a 0 cell in its row, and every
    member's must cover each other part of a 1 cell, each test one C-level
    pass over the members that stops at the first failing one and builds
    no n-bit union; a 1 on the diagonal is checked by counting the edges
    inside the part.
    """
    m = pattern.m
    try:
        digits = bytes(assignment)[::-1]
    except (TypeError, ValueError):  # a part outside range(256)
        digits = None
    if digits is not None and max(digits, default=0) < m:
        # no vertex is in a part past the byte, so those parts are empty
        masks = [int(b"0" + digits.translate(b"0" * i + b"1" + b"0" * (255 - i)), 2)
                 for i in range(min(m, 256))] + [0] * (m - 256)
    else:
        masks = [0] * m
        for v, part in enumerate(assignment):
            if not 0 <= part < m:
                raise ValueError(f"vertex {v} assigned to invalid part {part}")
            masks[part] |= 1 << v
    must_see, must_miss = [0] * m, [0] * m
    for i, row in enumerate(pattern.cells):
        for j, cell in enumerate(row):
            if cell == ONE:
                must_see[i] |= masks[j]
            elif cell == ZERO:
                must_miss[i] |= masks[j]
    for see, miss, own in zip(must_see, must_miss, masks):
        members = list(compress(g.adj, selector(g.n, own)))
        if miss and any(map(and_, members, repeat(miss))):
            return must_see, must_miss
        need = see & ~own
        if need and not all(map(need.__eq__, map(and_, members, repeat(need)))):
            return must_see, must_miss
        if see & own:  # a clique: each of its k members sees the other k - 1
            k = len(members)
            if sum(map(int.bit_count, map(and_, members, repeat(own)))) != k * (k - 1):
                return must_see, must_miss
    return None


def solve(g: Graph, pattern: Pattern) -> Assignment | None:
    """Exhaustive search for a satisfying partition; None means none exists.

    Vertices are assigned in descending-degree order (id breaks ties) and
    parts are tried in index order, so results are deterministic.  The
    search keeps the demand masks of the vertices placed so far, and v may
    join part i only by the scan's test, so a returned assignment always
    verifies.  Placing v in part i XORs v into the demands of the parts in
    row i's 1 and 0 cells; backtracking XORs it out.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    must_see, must_miss = [0] * pattern.m, [0] * pattern.m
    assignment = [0] * n
    # per part i: the masks a member of i enters, must_see[j] for each 1
    # cell (i, j) and must_miss[j] for each 0 cell
    flips = [[(must_see if c == ONE else must_miss, j)
              for j, c in enumerate(row) if c != STAR] for row in pattern.cells]

    def place(step: int) -> bool:
        if step == n:
            return True
        v = order[step]
        nb, bit = g.adj[v], 1 << v
        for i, flip in enumerate(flips):
            if must_see[i] & ~nb or must_miss[i] & nb:
                continue
            for demand, j in flip:
                demand[j] ^= bit
            assignment[v] = i
            if place(step + 1):
                return True
            for demand, j in flip:
                demand[j] ^= bit
        return False

    if place(0):
        return tuple(assignment)
    return None


def is_minimal_obstruction(g: Graph, pattern: Pattern) -> bool:
    """True iff g is unsolvable but every single-vertex deletion is solvable."""
    if solve(g, pattern) is not None:
        return False
    for v in range(g.n):
        rest = induced(g, set(range(g.n)) - {v})
        if solve(rest, pattern) is None:
            return False
    return True
