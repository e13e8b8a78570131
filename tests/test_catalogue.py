import pytest

from mpartition import (
    Graph,
    M1,
    ObstructionKind,
    contains_induced,
    fan,
    fan_kind,
    find_obstruction_by_scan,
    induced,
    is_chordal,
    is_isomorphic,
    is_minimal_obstruction,
    obstruction_graph,
    solve,
)
from mpartition.catalogue import FINITE_MINIMAL_TAGS, catalogue_graph

from auxiliary import (
    AUXILIARY_TAGS,
    auxiliary_graph,
    complete_graph,
    disjoint_union,
    path_graph,
)


def minimal_members():
    kinds = [ObstructionKind(tag) for tag in FINITE_MINIMAL_TAGS]
    kinds += [fan_kind(k) for k in (2, 3, 4, 5)]
    return kinds


# -- fixed entries -----------------------------------------------------------


def test_catalogue_layout():
    # the catalogue is exactly F1..F7 and Fan(k); F0/F01/F02 are no kinds
    assert FINITE_MINIMAL_TAGS == tuple(f"F{i}" for i in range(1, 8))
    for tag in AUXILIARY_TAGS:
        with pytest.raises(ValueError, match=f"unknown obstruction tag '{tag}'"):
            ObstructionKind(tag)


def test_fixed_identities():
    assert is_isomorphic(catalogue_graph("F7"), complete_graph(4))
    k3_k2 = disjoint_union(complete_graph(3), complete_graph(2))
    assert is_isomorphic(catalogue_graph("F1"), k3_k2)
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    assert is_isomorphic(auxiliary_graph("F0"), two_k3)
    assert catalogue_graph("F5").n == 6
    assert catalogue_graph("F6").n == 6


def test_every_entry_is_chordal():
    for tag in FINITE_MINIMAL_TAGS:
        assert is_chordal(catalogue_graph(tag)), tag


def test_minimal_entries_pass_the_oracle_gate():
    for kind in minimal_members():
        g = obstruction_graph(kind)
        assert is_minimal_obstruction(g, M1), f"{kind} must be a minimal obstruction"


def test_auxiliaries_are_unsolvable_but_not_minimal():
    for tag in AUXILIARY_TAGS:
        g = auxiliary_graph(tag)
        assert is_chordal(g)
        assert solve(g, M1) is None
        assert not is_minimal_obstruction(g, M1)
        assert contains_induced(g, catalogue_graph("F1")) is not None


def test_minimal_members_form_an_antichain():
    kinds = minimal_members()
    for a in kinds:
        for b in kinds:
            if a == b:
                continue
            ga, gb = obstruction_graph(a), obstruction_graph(b)
            if ga.n <= gb.n:
                assert contains_induced(gb, ga) is None, f"{a} inside {b}"


def test_every_minimal_member_contains_a_triangle():
    for kind in minimal_members():
        assert contains_induced(obstruction_graph(kind), complete_graph(3))


# -- fans ---------------------------------------------------------------------


def test_fan_shape():
    g = fan(2)
    assert g.n == 7 and g.edge_count == 9
    apex = 6
    assert sorted(g.neighbors(apex)) == [1, 2, 3, 4]
    assert not g.has_edge(apex, 0) and not g.has_edge(apex, 5)
    for k in (2, 3, 4, 5):
        h = fan(k)
        assert h.n == 2 * k + 3 and h.edge_count == 4 * k + 1
        assert is_chordal(h)
        assert contains_induced(h, complete_graph(4)) is None


def test_fan_argument_guard():
    with pytest.raises(ValueError):
        fan(1)
    with pytest.raises(ValueError):
        fan_kind(1)


def test_fans_avoid_the_finite_members():
    for k in (2, 3, 4, 5):
        g = fan(k)
        for tag in FINITE_MINIMAL_TAGS:
            assert contains_induced(g, catalogue_graph(tag)) is None


def test_kind_validation():
    with pytest.raises(ValueError):
        ObstructionKind("F9")
    with pytest.raises(ValueError):
        ObstructionKind("F3", 2)
    assert str(fan_kind(3)) == "Fan(3)"
    assert str(ObstructionKind("F2")) == "F2"


# -- detection ----------------------------------------------------------------


def test_scan_finds_f7_in_k5():
    kind, witness = find_obstruction_by_scan(complete_graph(5))
    assert kind.tag == "F7" and len(witness) == 4


def test_scan_is_silent_on_bipartite_chordal_graphs():
    for g in (path_graph(6), Graph(4), Graph(5, [(0, 1), (1, 2)])):
        assert find_obstruction_by_scan(g) is None


def test_scan_finds_fan_beside_isolated_vertex():
    g = disjoint_union(fan(2), Graph(1))
    kind, witness = find_obstruction_by_scan(g)
    assert kind == fan_kind(2)
    assert witness == frozenset(range(7))


def test_scan_witnesses_induce_what_they_claim(corpus7):
    checked = 0
    for g in corpus7:
        found = find_obstruction_by_scan(g)
        if found is None:
            continue
        kind, witness = found
        assert is_isomorphic(induced(g, witness), obstruction_graph(kind))
        checked += 1
    assert checked > 100
