import hashlib
import json
import random

import pytest

from mpartition import (
    Graph,
    M1,
    NotChordalError,
    ObstructionKind,
    bipartizer_set,
    fan,
    fan_kind,
    find_obstruction_by_scan,
    induced,
    is_bipartite,
    is_chordal,
    is_isomorphic,
    obstruction_graph,
    random_chordal,
    solve,
    solve_certifying,
    verify_certificate,
)
from mpartition.catalogue import FINITE_MINIMAL_TAGS
from mpartition.chordal import verify_hole
from mpartition.solver import M1Certificate, _shared_edge, _triangle_witness

from auxiliary import (
    AUXILIARY_TAGS,
    auxiliary_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)


def definitional_bipartizers(g):
    """Oracle straight from the definition: delete each vertex and 2-colour."""
    out = set()
    for v in range(g.n):
        if is_bipartite(induced(g, set(range(g.n)) - {v})):
            out.add(v)
    return frozenset(out)


def triangles_of(g):
    return [
        frozenset({u, v, w})
        for u in range(g.n)
        for v in range(u + 1, g.n)
        for w in range(v + 1, g.n)
        if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    ]


# -- bipartizer set ----------------------------------------------------------


def test_bipartizer_examples():
    assert bipartizer_set(complete_graph(3)) == frozenset({0, 1, 2})
    assert bipartizer_set(complete_graph(4)) == frozenset()
    assert bipartizer_set(path_graph(5)) == frozenset(range(5))
    # triangle-free but non-bipartite: deleting any vertex of C5 leaves P4
    assert bipartizer_set(cycle_graph(5)) == frozenset(range(5))


def test_bipartizer_set_matches_definition(corpus7):
    for g in corpus7:
        assert bipartizer_set(g) == definitional_bipartizers(g)


def test_bipartizer_structure(corpus7):
    for g in corpus7:
        if is_bipartite(g):
            continue
        b = bipartizer_set(g)
        assert len(b) <= 3
        for tri in triangles_of(g):
            assert b <= tri


# -- certifying solver: yes instances ----------------------------------------


def test_triangle_gets_three_parts():
    cert = solve_certifying(complete_graph(3))
    assert cert.decision == "yes"
    assert sorted(cert.assignment) == [0, 1, 2]


def test_bipartite_graphs_use_two_parts():
    tree = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    cert = solve_certifying(tree)
    assert cert.decision == "yes"
    assert set(cert.assignment) <= {0, 1}


def test_triangle_with_two_pendants():
    # unique triangle, two non-trivial branches of height 1
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    assert solve_certifying(g).decision == "yes"


def test_diamond_and_books():
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert solve_certifying(diamond).decision == "yes"
    book3 = Graph(5, [(0, 1)] + [(0, k) for k in (2, 3, 4)] + [(1, k) for k in (2, 3, 4)])
    assert solve_certifying(book3).decision == "yes"


def test_hub_with_even_pendant_spacing():
    # hub 0 over the path 1-2-3 with pendants at both path ends
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 4), (3, 5)])
    assert solve_certifying(g).decision == "yes"


def test_star_with_central_triangle():
    g = Graph(6, [(0, v) for v in range(1, 6)] + [(1, 2)])
    assert solve_certifying(g).decision == "yes"


def test_isolated_vertices_park_in_part_zero():
    g = disjoint_union(complete_graph(3), Graph(3))
    cert = solve_certifying(g)
    assert cert.decision == "yes"
    assert cert.assignment[3:] == (0, 0, 0)


# -- certifying solver: no instances -----------------------------------------


def test_fan2_is_its_own_witness():
    cert = solve_certifying(fan(2))
    assert cert.decision == "no"
    kind, witness = cert.witness
    assert kind == fan_kind(2)
    assert witness == frozenset(range(7))


def test_far_edge_among_isolated_vertices():
    # the edge outside the triangle's component lies past 1998 isolated
    # vertices; the search for it walks only the vertices with an edge
    g = Graph(2003, [(0, 1), (0, 2), (1, 2), (2001, 2002)])
    kind, witness = solve_certifying(g).witness
    assert (kind.tag, sorted(witness)) == ("F1", [0, 1, 2, 2001, 2002])


def test_path_beside_a_triangle():
    # the first vertex outside the triangle's component already has an
    # edge: the search stops there, not after every outside vertex
    g = Graph(3003, [(0, 1), (0, 2), (1, 2)] + [(v, v + 1) for v in range(3, 3002)])
    kind, witness = solve_certifying(g).witness
    assert (kind.tag, sorted(witness)) == ("F1", [0, 1, 2, 3, 4])


def test_disjoint_triangle_and_edge():
    g = disjoint_union(complete_graph(3), complete_graph(2))
    cert = solve_certifying(g)
    assert cert.witness[0].tag == "F1"
    assert cert.witness[1] == frozenset(range(5))


def test_net_is_an_f2_witness():
    net = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    cert = solve_certifying(net)
    assert cert.witness[0].tag == "F2"
    assert cert.witness[1] == frozenset(range(6))


def test_triangle_with_deep_path_yields_f1():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    cert = solve_certifying(g)
    assert cert.witness[0].tag == "F1"


def test_shared_edge_overloads_match_scan():
    # diamond-style hosts pushed past each height bound in turn; the
    # emitted witness kind must agree with the exhaustive scan
    f1_host = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                        (0, 4), (4, 5), (5, 6)])
    f2_host = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                        (2, 4), (0, 5), (1, 6)])
    f3_host = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                        (0, 4), (4, 5), (1, 6), (6, 7)])
    for g, expected in ((f1_host, "F1"), (f2_host, "F2"), (f3_host, "F3")):
        cert = solve_certifying(g)
        assert cert.witness[0].tag == expected
        assert find_obstruction_by_scan(g)[0].tag == expected


def test_degenerate_hosts():
    empty = Graph(0)
    assert solve_certifying(empty).assignment == ()
    single = Graph(1)
    assert solve_certifying(single).assignment == (0,)


def test_pendant_overload_matches_scan(corpus8):
    # every negative instance's witness names a member the scan confirms
    rng = random.Random(1)
    negatives = [g for g in corpus8 if solve_certifying(g).decision == "no"]
    for g in rng.sample(negatives, 60):
        kind, witness = solve_certifying(g).witness
        assert is_isomorphic(induced(g, witness), obstruction_graph(kind))
        assert find_obstruction_by_scan(g) is not None


# -- extraction with empty bipartizer set ------------------------------------


def test_extract_f7_from_k4():
    kind, witness = solve_certifying(complete_graph(4)).witness
    assert kind.tag == "F7" and len(witness) == 4


def test_extract_f1_from_two_triangles():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    kind, witness = _triangle_witness(g, is_chordal(g).cliques)
    assert kind.tag == "F1"
    assert is_isomorphic(induced(g, witness), obstruction_graph(kind))


def test_extract_f5_from_sun():
    sun = Graph(6, [(0, 1), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (3, 4),
                    (3, 5), (4, 5)])
    kind, witness = solve_certifying(sun).witness
    assert kind.tag == "F5"
    assert witness == frozenset(range(6))


def test_extract_f6_from_bridged_triangles():
    # two triangles, a matching between them, and one chord of the 4-cycle
    # the matching closes: the empty-bipartizer analysis must surface F6
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                  (2, 3), (2, 4), (1, 3)])
    assert is_chordal(g)
    assert bipartizer_set(g) == frozenset()
    kind, witness = solve_certifying(g).witness
    assert kind.tag == "F6"
    assert is_isomorphic(induced(g, witness), obstruction_graph(kind))


def test_extraction_consistent_with_scan(corpus8):
    checked = 0
    for g in corpus8:
        if is_bipartite(g) or bipartizer_set(g):
            continue
        kind, witness = solve_certifying(g).witness
        assert kind.tag in {"F1", "F5", "F6", "F7"}
        assert is_isomorphic(induced(g, witness), obstruction_graph(kind))
        checked += 1
    assert checked > 200


# -- chordality guard ----------------------------------------------------------


def test_non_chordal_input_raises_with_hole():
    with pytest.raises(NotChordalError) as err:
        solve_certifying(cycle_graph(4))
    assert verify_hole(cycle_graph(4), err.value.hole)


# -- certificates ---------------------------------------------------------------


def test_certificate_json_schema():
    yes = solve_certifying(complete_graph(3))
    doc = json.loads(yes.to_json())
    assert doc["decision"] == "yes" and doc["witness"] is None
    assert sorted(sum(doc["parts"], [])) == [0, 1, 2]

    no = solve_certifying(fan(3))
    doc = json.loads(no.to_json())
    assert doc == {
        "decision": "no",
        "parts": None,
        "witness": {"k": 3, "kind": "Fan", "vertices": list(range(9))},
    }


def test_certificates_are_deterministic():
    g = random_chordal(120, 0.6, seed=21)
    assert solve_certifying(g).to_json() == solve_certifying(g).to_json()


def test_verify_certificate_rejects_tampering():
    g = complete_graph(3)
    cert = solve_certifying(g)
    assert verify_certificate(g, cert) is None
    bad = M1Certificate((0, 0, 1), None)
    assert verify_certificate(g, bad) is not None
    bogus = M1Certificate(None, (fan_kind(2), frozenset(range(3))))
    assert verify_certificate(g, bogus) is not None
    k4 = complete_graph(4)
    wrong_kind = M1Certificate(None, (fan_kind(2), frozenset(range(4))))
    assert verify_certificate(k4, wrong_kind) is not None


def test_verify_certificate_rejects_malformed_certificates():
    g = path_graph(4)
    one_of = "certificate must carry exactly one of assignment/witness"
    assert verify_certificate(g, M1Certificate(None, None)) == one_of
    both = M1Certificate((0, 1, 0, 1), (fan_kind(2), frozenset(range(4))))
    assert verify_certificate(g, both) == one_of
    short = M1Certificate((0, 1, 0), None)
    assert verify_certificate(g, short) == "assignment covers 3 of 4 vertices"
    invalid = M1Certificate((0, 1, 0, 3), None)
    assert verify_certificate(g, invalid) == "vertex 3 assigned to invalid part 3"
    outside = M1Certificate(None, (ObstructionKind("F7"), frozenset({0, 1, 2, 4})))
    assert verify_certificate(g, outside) == "witness vertices out of range"


def test_verify_certificate_accepts_only_minimal_kinds():
    for kind in [ObstructionKind(t) for t in FINITE_MINIMAL_TAGS] + [fan_kind(3)]:
        g = obstruction_graph(kind)
        cert = M1Certificate(None, (kind, frozenset(range(g.n))))
        assert verify_certificate(g, cert) is None, str(kind)
    for tag in AUXILIARY_TAGS:
        # a non-minimal blocker cannot be named as a witness kind at all ...
        with pytest.raises(ValueError, match=f"unknown obstruction tag '{tag}'"):
            ObstructionKind(tag)
        # ... so its certificate names a minimal member inside it
        g = auxiliary_graph(tag)
        cert = solve_certifying(g)
        assert cert.witness is not None
        assert cert.witness[0].tag in FINITE_MINIMAL_TAGS
        assert len(cert.witness[1]) < g.n
        assert verify_certificate(g, cert) is None


def test_verify_certificate_checks_witness_size_first():
    # Fan(10**9) would have 2 * 10**9 + 3 vertices: never built
    huge = M1Certificate(None, (fan_kind(10**9), frozenset(range(7))))
    assert verify_certificate(fan(2), huge) == (
        "witness has 7 vertices, Fan(1000000000) needs 2000000003"
    )


def test_case_functions_guard_their_preconditions():
    with pytest.raises(RuntimeError, match="span a shared edge"):
        _shared_edge(path_graph(3), 0, 2, 1 << 1)
    with pytest.raises(RuntimeError, match="span a shared edge"):
        _shared_edge(complete_graph(3), 0, 1, 0)
    # a second component with an edge is not the caller's to pass on
    with pytest.raises(RuntimeError, match="do not cover the graph"):
        _shared_edge(disjoint_union(complete_graph(3), path_graph(2)), 1, 2, 1 << 0)


def test_certificates_are_pinned(corpus8):
    # every certificate's JSON, byte for byte, over the connected chordal
    # graphs on at most 8 vertices and a random_chordal grid
    graphs = corpus8 + [random_chordal(n, bias, seed) for n in (40, 150, 500)
                        for bias in (0.5, 0.9, 0.97, 0.99, 1.0) for seed in (1, 2, 3)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(solve_certifying(g).to_json().encode() + b"\n")
    assert (len(graphs), digest.hexdigest()) == (
        2013, "e071609c6e4d446846aa43663b71715ca65e49c20c110721686bc8faa17ad4d7")


# -- agreement sweeps ----------------------------------------------------------


def test_oracle_agreement_on_corpus(corpus7):
    for g in corpus7:
        assert (solve_certifying(g).decision == "yes") == (solve(g, M1) is not None)


def test_random_medium_graphs_self_verify():
    for seed in range(150):
        g = random_chordal(40, (seed % 10) / 10, seed=seed)
        cert = solve_certifying(g)
        assert verify_certificate(g, cert) is None


def test_random_small_graphs_agree_with_oracle():
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randrange(1, 11)
        g = random_chordal(n, rng.random(), seed=rng.randrange(10**9))
        cert = solve_certifying(g)
        assert (cert.decision == "yes") == (solve(g, M1) is not None)
