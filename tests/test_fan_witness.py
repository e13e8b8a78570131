"""The structural Fan(k) witness check against isomorphism oracles.

``verify_certificate`` checks a Fan(k) witness by walking the path on the
host's adjacency masks instead of testing isomorphism.  It must accept
exactly the vertex sets that induce Fan(k): here it is compared with the
backtracking ``is_isomorphic`` and with ``networkx.is_isomorphic`` on
perturbed, relabelled fans inside larger hosts, on named near-misses, and
on fans with k in the hundreds and thousands.
"""

import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpartition import (
    Graph,
    fan,
    fan_kind,
    induced,
    is_isomorphic,
    solve_certifying,
    to_edgelist,
    verify_certificate,
)
from mpartition.cli import main
from mpartition.solver import M1Certificate, _induces_fan


def toggled(edges, pairs):
    out = {tuple(sorted(e)) for e in edges}
    for u, v in pairs:
        out ^= {tuple(sorted((u, v)))}
    return out


def relabelled_host(k, changes, extra, host_edges, perm):
    """Fan(k) on ids 0..2k+2 with ``changes`` toggled, ``extra`` more
    vertices joined by ``host_edges``, then renamed by ``perm``; returns
    the host and the image of the fan's vertex set."""
    edges = toggled(fan(k).edges(), changes) | set(host_edges)
    g = Graph(2 * k + 3 + extra, [(perm[u], perm[v]) for u, v in edges])
    return g, frozenset(perm[v] for v in range(2 * k + 3))


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def verdict(g, w, k):
    return verify_certificate(g, M1Certificate(None, (fan_kind(k), w)))


@st.composite
def fan_hosts(draw):
    k = draw(st.integers(2, 8))
    size = 2 * k + 3
    extra = draw(st.integers(0, 6))
    n = size + extra
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
        lambda p: p[0] != p[1]
    )
    changes = draw(st.lists(pair, max_size=2))
    # host edges touch an extra vertex, so they leave the witness alone
    host_edges = []
    if extra:
        host_pair = st.tuples(st.integers(0, n - 1), st.integers(size, n - 1))
        host_edges = draw(st.lists(host_pair.filter(lambda p: p[0] != p[1]),
                                   max_size=3 * extra))
    perm = draw(st.permutations(range(n)))
    return k, relabelled_host(k, changes, extra, host_edges, perm)


@settings(max_examples=400, deadline=None)
@given(fan_hosts())
def test_structural_check_matches_isomorphism(case):
    k, (g, w) = case
    sub = induced(g, w)
    expected = is_isomorphic(sub, fan(k))
    assert nx.is_isomorphic(to_nx(sub), to_nx(fan(k))) == expected
    assert _induces_fan(g, w, k) == expected
    assert verdict(g, w, k) == (None if expected else f"witness does not induce Fan({k})")


# -- named near-misses ----------------------------------------------------------

K = 3
APEX = 2 * K + 2
LAST = 2 * K + 1

NEAR_MISSES = {
    "apex-sees-an-end": [(APEX, 0)],
    "chord-on-the-path": [(1, 3)],
    "apex-misses-an-inner-vertex": [(APEX, 2)],
    "path-closed-into-a-cycle": [(0, LAST)],
    # same degree sum: only the walk sees that the path is broken
    "path-edge-moved-to-a-chord": [(2, 3), (1, 4)],
}


def small_host(changes, seed):
    """Fan(K) with ``changes`` toggled and a two-vertex tail on w0,
    relabelled at random."""
    n = APEX + 3
    perm = random.Random(seed).sample(range(n), n)
    return relabelled_host(K, changes, 2, [(0, APEX + 1), (APEX + 1, APEX + 2)], perm)


@pytest.mark.parametrize("changes", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_near_misses_are_rejected(changes):
    g, w = small_host(changes, seed=5)
    assert not nx.is_isomorphic(to_nx(induced(g, w)), to_nx(fan(K)))
    assert not _induces_fan(g, w, K)
    assert verdict(g, w, K) == f"witness does not induce Fan({K})"


def test_fan_claimed_one_size_up_is_rejected():
    g, w = small_host([], seed=6)
    assert verdict(g, w, K) is None
    assert not _induces_fan(g, w, K + 1)
    assert verdict(g, w, K + 1) == (
        f"witness has {2 * K + 3} vertices, Fan({K + 1}) needs {2 * K + 5}"
    )
    # padded with the two host vertices to the size Fan(K+1) needs
    assert verdict(g, frozenset(range(g.n)), K + 1) == (
        f"witness does not induce Fan({K + 1})"
    )


def test_fan_with_a_stray_vertex_is_no_fan():
    # the apex also misses the stray vertex, which makes three ends
    g = Graph(APEX + 2, fan(K).edges())
    assert _induces_fan(g, frozenset(range(APEX + 1)), K)
    assert not _induces_fan(g, frozenset(range(APEX + 2)), K)


# -- large k ----------------------------------------------------------------------


def hub_host(k, seed):
    """A hub over a spoke path of 2k vertices with a pendant on each end,
    plus three bare spokes, randomly relabelled; returns the host and the
    image of the fan's vertex set."""
    hub, spokes = 0, list(range(1, 2 * k + 1))
    ends = [2 * k + 1, 2 * k + 2]
    bare = [2 * k + 3, 2 * k + 4, 2 * k + 5]
    edges = [(hub, s) for s in spokes + bare]
    edges += list(zip(spokes, spokes[1:]))
    edges += [(spokes[0], ends[0]), (spokes[-1], ends[1])]
    n = 2 * k + 6
    perm = random.Random(seed).sample(range(n), n)
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    return g, frozenset(perm[v] for v in [hub] + spokes + ends)


def run_verify(tmp_path, g, cert_text):
    gpath = tmp_path / "g.txt"
    gpath.write_text(to_edgelist(g))
    cpath = tmp_path / "cert.json"
    cpath.write_text(cert_text)
    return main(["verify", str(gpath), str(cpath), "--format", "edgelist"])


@pytest.mark.parametrize("k", [100, 1000])
def test_large_fans_are_certified_and_checked(tmp_path, capsys, k):
    g, w = hub_host(k, seed=k)
    cert = solve_certifying(g)
    assert cert.witness == (fan_kind(k), w)
    assert verify_certificate(g, cert) is None
    assert run_verify(tmp_path, g, cert.to_json()) == 0
    assert json.loads(capsys.readouterr().out) == {"reason": None, "valid": True}

    rng = random.Random(-k)
    u, v = rng.sample(sorted(w), 2)
    bent = Graph(g.n, toggled(g.edges(), [(u, v)]))
    reason = f"witness does not induce Fan({k})"
    assert verify_certificate(bent, cert) == reason
    assert run_verify(tmp_path, bent, cert.to_json()) == 1
    assert json.loads(capsys.readouterr().out) == {"reason": reason, "valid": False}
