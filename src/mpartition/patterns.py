"""Generic matrix-partition semantics over {0, 1, *} patterns.

A pattern is a symmetric m-by-m matrix whose cell (i, j) constrains the
pairs across parts i and j of a vertex partition: 1 forces complete
adjacency, 0 forces complete non-adjacency, * imposes nothing.  Diagonal
cells therefore force a part to be a clique (1) or an independent set (0).
Star diagonals are rejected at construction: a part without restrictions
could swallow the whole graph, making every instance trivially solvable.

``solve`` is an exhaustive backtracking solver meant as a ground-truth
oracle at small scale, not a decision procedure for large inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import and_, or_
from typing import Sequence

from .graph import Graph, induced, selector

ZERO, ONE, STAR = "0", "1", "*"

Assignment = tuple[int, ...]


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
    empty.  Each part is checked whole: the union of its members'
    neighbourhoods must miss each part of a 0 cell in its row, and their
    intersection must cover each other part of a 1 cell; a 1 on the
    diagonal is checked by counting the edges inside the part.  Only a
    failed check scans the vertices, to name the first violating pair.
    """
    if len(assignment) != g.n:
        raise ValueError(f"assignment covers {len(assignment)} of {g.n} vertices")
    if _parts_hold(g, pattern, assignment):
        return None
    m = pattern.m
    part_masks = [0] * m
    for v, part in enumerate(assignment):
        if not 0 <= part < m:
            raise ValueError(f"vertex {v} assigned to invalid part {part}")
        part_masks[part] |= 1 << v
    must_see, must_miss = _demands(pattern, part_masks)  # scan for the first pair
    for u, i in enumerate(assignment):
        nb = g.adj[u]
        bad = (must_see[i] & ~nb | must_miss[i] & nb) >> (u + 1)
        if bad:
            v = u + (bad & -bad).bit_length()
            j = assignment[v]
            return PartitionViolation(u, v, i, j, pattern.cells[i][j])
    return None


def _parts_hold(g: Graph, pattern: Pattern, assignment: Sequence[int]) -> bool:
    """Does every part meet its row of the pattern?  False also on an invalid
    part or a pattern wider than a byte, which ``verify_assignment``'s scan
    then reports or decides."""
    try:
        parts = bytes(assignment)
    except (TypeError, ValueError):  # a part outside range(256)
        return False
    m = pattern.m
    if m > 256 or parts and max(parts) >= m:
        return False
    digits = parts[::-1]
    masks = [int(b"0" + digits.translate(b"0" * i + b"1" + b"0" * (255 - i)), 2)
             for i in range(m)]
    for i, (see, miss) in enumerate(zip(*_demands(pattern, masks))):
        own = masks[i]
        members = list(compress(g.adj, selector(g.n, own)))
        if miss & reduce(or_, members, 0) or see & ~own & ~reduce(and_, members, -1):
            return False
        if see & own:  # a clique: each of its k members sees the other k - 1
            k = len(members)
            if sum(map(int.bit_count, map(and_, members, repeat(own)))) != k * (k - 1):
                return False
    return True


def _demands(pattern: Pattern, masks: list[int]) -> tuple[list[int], list[int]]:
    """Per part, given each part's bitset: the vertices its members must
    see, and must miss."""
    must_see = [0] * pattern.m
    must_miss = [0] * pattern.m
    for i, row in enumerate(pattern.cells):
        for j, cell in enumerate(row):
            if cell == ONE:
                must_see[i] |= masks[j]
            elif cell == ZERO:
                must_miss[i] |= masks[j]
    return must_see, must_miss


def solve(g: Graph, pattern: Pattern) -> Assignment | None:
    """Exhaustive search for a satisfying partition; None means none exists.

    Vertices are assigned in descending-degree order (id breaks ties) and
    parts are tried in index order, so results are deterministic.  A
    returned assignment always verifies.
    """
    n = g.n
    m = pattern.m
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    part_masks = [0] * m
    assignment = [0] * n
    # per candidate part: which parts must lie inside / outside N(v)
    ones = [
        [j for j in range(m) if pattern.cells[i][j] == ONE] for i in range(m)
    ]
    zeros = [
        [j for j in range(m) if pattern.cells[i][j] == ZERO] for i in range(m)
    ]

    def place(step: int) -> bool:
        if step == n:
            return True
        v = order[step]
        nb = g.adj[v]
        for i in range(m):
            ok = True
            for j in ones[i]:
                if part_masks[j] & ~nb:
                    ok = False
                    break
            if ok:
                for j in zeros[i]:
                    if part_masks[j] & nb:
                        ok = False
                        break
            if not ok:
                continue
            part_masks[i] |= 1 << v
            assignment[v] = i
            if place(step + 1):
                return True
            part_masks[i] &= ~(1 << v)
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
