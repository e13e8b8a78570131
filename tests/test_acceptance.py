"""Acceptance battery.

Each test covers one release criterion at its stated tolerance and prints
one pass line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import time

from mpartition import (
    Graph,
    M1,
    ObstructionKind,
    bipartizer_set,
    canonical_key,
    contains_induced,
    contains_subgraph,
    enumerate_connected_chordal,
    fan_kind,
    find_obstruction_by_scan,
    is_bipartite,
    is_chordal,
    is_minimal_obstruction,
    obstruction_graph,
    random_chordal,
    solve,
    solve_certifying,
    to_graph6,
    verify_certificate,
)
from mpartition.catalogue import catalogue_graph
from mpartition.chordal import is_connected

from auxiliary import auxiliary_graph


def triangles_of(g):
    return [
        frozenset({u, v, w})
        for u in range(g.n)
        for v in range(u + 1, g.n)
        for w in range(v + 1, g.n)
        if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    ]


def test_criterion_1_decision_equivalence(corpus8):
    disagreements = []
    for g in corpus8:
        by_solver = solve_certifying(g).decision == "yes"
        by_oracle = solve(g, M1) is not None
        by_scan = find_obstruction_by_scan(g) is None
        if not (by_solver == by_oracle == by_scan):
            disagreements.append(to_graph6(g))
    assert disagreements == []
    print(
        f"criterion 1 PASS: solver == oracle == scan on all {len(corpus8)} "
        "connected chordal graphs with <= 8 vertices"
    )


def test_criterion_2_certificate_soundness(corpus8):
    failures = []
    for g in corpus8:
        problem = verify_certificate(g, solve_certifying(g))
        if problem is not None:
            failures.append((to_graph6(g), problem))
    started = time.monotonic()
    for trial in range(1000):
        g = random_chordal(200, 0.5, seed=trial)
        problem = verify_certificate(g, solve_certifying(g))
        if problem is not None:
            failures.append((f"random seed {trial}", problem))
    elapsed = time.monotonic() - started
    assert failures == []
    assert elapsed < 300.0, f"n=200 batch took {elapsed:.0f}s, budget is 5 minutes"
    print(
        "criterion 2 PASS: every certificate verifies on the corpus and on "
        f"1000 random graphs at n=200 ({elapsed:.1f}s)"
    )


def test_criterion_3_minimal_obstruction_validation():
    kinds = [ObstructionKind(f"F{i}") for i in range(1, 8)]
    kinds += [fan_kind(k) for k in (2, 3, 4, 5)]
    verdicts = {
        str(kind): is_minimal_obstruction(obstruction_graph(kind), M1)
        for kind in kinds
    }
    assert all(verdicts.values()), verdicts
    print(f"criterion 3 PASS: {len(kinds)}/11 kinds are minimal obstructions")


def test_criterion_4_structural_implications(corpus8):
    f0 = auxiliary_graph("F0")
    f5 = catalogue_graph("F5")
    f6 = catalogue_graph("F6")
    f7 = catalogue_graph("F7")
    blockers = [catalogue_graph(t) for t in ("F5", "F6", "F7")]
    blockers += [auxiliary_graph(t) for t in ("F0", "F01", "F02")]
    counterexamples = []
    for g in corpus8:
        has = {h: contains_subgraph(g, h) is not None for h in (f5, f6, f0)}
        ind = lambda h: contains_induced(g, h) is not None
        if has[f5] and not (ind(f5) or ind(f7)):
            counterexamples.append(("subgraph-F5", to_graph6(g)))
        if has[f6] and not (ind(f6) or ind(f7)):
            counterexamples.append(("subgraph-F6", to_graph6(g)))
        if has[f0] and not (ind(catalogue_graph("F1")) or ind(f6) or ind(f7)):
            counterexamples.append(("subgraph-F0", to_graph6(g)))
        deletable = bool(bipartizer_set(g))
        no_bad_subgraph = not (
            has[f0] or has[f5] or contains_subgraph(g, f7) is not None
        )
        induced_free = not any(ind(h) for h in blockers)
        if not (deletable == no_bad_subgraph == induced_free):
            counterexamples.append(("bipartizer-equivalence", to_graph6(g)))
    assert counterexamples == []
    print(
        "criterion 4 PASS: subgraph-to-induced implications and the bipartizer "
        f"equivalence hold on all {len(corpus8)} corpus graphs"
    )


def test_criterion_5_bipartizer_structure(corpus8):
    violations = []
    for g in corpus8:
        if is_bipartite(g):
            continue
        b = bipartizer_set(g)
        if len(b) > 3:
            violations.append(("size", to_graph6(g)))
        if any(not b <= tri for tri in triangles_of(g)):
            violations.append(("triangle", to_graph6(g)))
    assert violations == []
    print(
        "criterion 5 PASS: every non-bipartite corpus graph has <= 3 "
        "bipartizers, all inside every triangle"
    )


def test_criterion_6_enumeration_completeness():
    for n in range(1, 7):
        enumerated = {
            canonical_key(g) for g in enumerate_connected_chordal(n) if g.n == n
        }
        pairs = list(itertools.combinations(range(n), 2))
        brute = set()
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            if is_connected(g) and is_chordal(g):
                brute.add(canonical_key(g))
        assert enumerated == brute, f"mismatch at n={n}"
    print(
        "criterion 6 PASS: simplicial-extension enumeration matches the "
        "brute-force filter exactly for n <= 6"
    )
