import hashlib
import random

import pytest

from mpartition import (
    Graph,
    M1,
    Pattern,
    fan,
    induced,
    is_minimal_obstruction,
    solve,
    verify_assignment,
)
from mpartition import patterns

from auxiliary import complete_graph, cycle_graph, disjoint_union


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# -- pattern construction ----------------------------------------------------


def test_m1_matrix():
    assert M1.m == 3
    assert M1.cells == (("0", "*", "*"), ("*", "0", "1"), ("*", "1", "0"))
    assert Pattern.parse("0**\n*01\n*10") == M1
    assert Pattern.parse(M1.as_text()) == M1


def test_star_diagonal_rejected():
    with pytest.raises(ValueError, match="trivial"):
        Pattern.parse("*1\n1*")


def test_malformed_patterns_rejected():
    with pytest.raises(ValueError):
        Pattern.parse("01\n10\n00")  # not square
    with pytest.raises(ValueError):
        Pattern.parse("01\n00")      # not symmetric
    with pytest.raises(ValueError):
        Pattern.parse("0x\nx0")      # bad cell
    for text in ("", "\n", "  \n \t\n"):  # no rows
        with pytest.raises(ValueError, match="no rows"):
            Pattern.parse(text)


# -- verification ------------------------------------------------------------


def test_verify_accepts_rainbow_triangle():
    assert verify_assignment(complete_graph(3), M1, (0, 1, 2)) is None


def test_verify_rejects_edge_inside_independent_part():
    violation = verify_assignment(complete_graph(2), M1, (0, 0))
    assert violation is not None
    assert {violation.u, violation.v} == {0, 1}
    assert violation.cell == "0"
    assert "non-adjacent" in str(violation)


def test_verify_rejects_missing_complete_adjacency():
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    violation = verify_assignment(two_k2, M1, (1, 2, 2, 1))
    assert violation is not None and violation.cell == "1"


def test_verify_wide_pattern_scans_for_the_first_pair():
    # past 256 parts the whole-part check still decides: on the assignment's
    # bytes while every part fits in one, else on masks built vertex by
    # vertex; the scan only names the first pair
    cells = [["0" if i == j else "*" for j in range(300)] for i in range(300)]
    cells[0][299] = cells[299][0] = "1"
    cells[0][200] = cells[200][0] = "1"
    wide = Pattern(tuple(map(tuple, cells)))
    k3, p3 = complete_graph(3), Graph(3, [(0, 1), (1, 2)])
    assert verify_assignment(k3, wide, (0, 150, 299)) is None
    violation = verify_assignment(p3, wide, (0, 150, 299))
    assert str(violation) == "vertices 0 (part 0) and 2 (part 299) must be adjacent"
    assert verify_assignment(k3, wide, (0, 150, 200)) is None
    violation = verify_assignment(p3, wide, (0, 150, 200))
    assert str(violation) == "vertices 0 (part 0) and 2 (part 200) must be adjacent"
    with pytest.raises(ValueError, match="^vertex 1 assigned to invalid part 300$"):
        verify_assignment(k3, wide, (0, 300, 301))
    # a clique part past the byte
    cells = [["0" if i == j else "*" for j in range(300)] for i in range(300)]
    cells[299][299] = "1"
    wide = Pattern(tuple(map(tuple, cells)))
    assert verify_assignment(Graph(3, [(1, 2)]), wide, (0, 299, 299)) is None
    violation = verify_assignment(Graph(3), wide, (0, 299, 299))
    assert str(violation) == "vertices 1 (part 299) and 2 (part 299) must be adjacent"


def test_verify_scan_never_decides(monkeypatch):
    # the cell rule decides; a rejection of a valid assignment, which the
    # scan finds no pair to name, is an internal error, not a violation
    assert verify_assignment(complete_graph(2), M1, (1, 2)) is None
    monkeypatch.setattr(patterns, "_cells_hold", lambda *args: False)
    with pytest.raises(RuntimeError, match="internal error"):
        verify_assignment(complete_graph(2), M1, (1, 2))


def test_verify_argument_errors():
    with pytest.raises(ValueError):
        verify_assignment(complete_graph(2), M1, (0,))
    with pytest.raises(ValueError):
        verify_assignment(complete_graph(2), M1, (0, 3))


# -- exhaustive solver -------------------------------------------------------


def test_solve_k4_unsolvable():
    assert solve(complete_graph(4), M1) is None


def test_solve_bipartite_graphs():
    for g in (cycle_graph(4), cycle_graph(6), Graph(3), Graph(5, [(0, 1)])):
        assignment = solve(g, M1)
        assert assignment is not None
        assert verify_assignment(g, M1, assignment) is None
    # the 2-colouring itself is a valid partition into parts 0 and 1
    c6 = cycle_graph(6)
    assert verify_assignment(c6, M1, tuple(i % 2 for i in range(6))) is None


def test_solve_fan2_unsolvable():
    assert solve(fan(2), M1) is None


def test_solutions_always_verify():
    for seed in range(60):
        g = random_graph(3 + seed % 6, 0.4, seed)
        assignment = solve(g, M1)
        if assignment is not None:
            assert verify_assignment(g, M1, assignment) is None


def test_oracle_answers_are_pinned(corpus8):
    # every answer, byte for byte, under three patterns; check --force-oracle
    # prints these parts
    digest, count = hashlib.sha256(), 0
    for pattern in (M1, Pattern.parse("0**\n*01\n*11"), Pattern.parse("1*0\n*01\n011")):
        for g in corpus8:
            digest.update(repr(solve(g, pattern)).encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == (
        5904, "b8390d56268473c21f67a9789b636b37dd44877898b4c4b79f86280732737057")


def test_solve_empty_graph():
    assert solve(Graph(0), M1) == ()


def test_decision_is_relabelling_invariant():
    rng = random.Random(3)
    for seed in range(40):
        g = random_graph(4 + seed % 5, 0.5, 500 + seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert (solve(g, M1) is None) == (solve(h, M1) is None)


def test_partitionability_is_hereditary():
    rng = random.Random(4)
    for seed in range(40):
        g = random_graph(5 + seed % 4, 0.35, 900 + seed)
        if solve(g, M1) is None:
            continue
        keep = [v for v in range(g.n) if rng.random() < 0.7]
        assert solve(induced(g, keep), M1) is not None


def test_colouring_pattern_matches_chromatic_bound():
    for m in (2, 3):
        cells = tuple(
            tuple("0" if i == j else "*" for j in range(m)) for i in range(m)
        )
        colouring = Pattern(cells)
        assert solve(complete_graph(m), colouring) is not None
        assert solve(complete_graph(m + 1), colouring) is None


# -- minimal obstructions ----------------------------------------------------


def test_k4_is_minimal_k5_is_not():
    assert is_minimal_obstruction(complete_graph(4), M1)
    assert not is_minimal_obstruction(complete_graph(5), M1)
    assert not is_minimal_obstruction(cycle_graph(4), M1)  # partitionable
