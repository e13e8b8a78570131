"""``mpartition verify`` parses the graph's text once and keeps no copy
of the library's checks.  A yes-partition is decided without the host's
bitsets: one pass counts the edges between its parts, and the library's
one yes-rule (``patterns._cells_hold``) reads the counts.  A rejected
partition is handed to ``verify_certificate`` on the host decoded from
that parse, so that the library names the fault.  A witness is handed to
``verify_certificate`` on a graph that holds only the edges among its
own vertices.  These tests hold the CLI to the library path: read the
graph, then ``verify_certificate``."""

import contextlib
import io
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpartition import (
    ObstructionKind,
    fan_kind,
    from_edgelist,
    from_graph6,
    obstruction_graph,
    random_chordal,
    solve_certifying,
    to_graph6,
    verify_certificate,
)
from mpartition import cli, graph
from mpartition.cli import _read_certificate, main

from auxiliary import path_graph

KINDS = ["F1", "F2", "F3", "F4", "F5", "F6", "F7", "Fan"]


@contextlib.contextmanager
def stdin_text(text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def run_verify(argv, stdin=""):
    """Exit code, stdout and stderr of ``main(["verify", *argv])``."""
    out, err = io.StringIO(), io.StringIO()
    with stdin_text(stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", *argv])
    return code, out.getvalue(), err.getvalue()


def reference_verify(text, fmt, doc):
    """Exit code and stdout of ``verify`` as the library decides it: the
    whole graph built, then ``verify_certificate``."""
    g = from_edgelist(text) if fmt == "edgelist" else from_graph6(text)
    with stdin_text(doc):
        cert = _read_certificate(g.n, "-")
    problem = cert if isinstance(cert, str) else verify_certificate(g, cert)
    report = json.dumps({"valid": problem is None, "reason": problem}, sort_keys=True)
    return (0 if problem is None else 1), report + "\n"


def edgelist_text(n, edges):
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def host_text(fmt, n, edges):
    text = edgelist_text(n, edges)
    return text if fmt == "edgelist" else to_graph6(from_edgelist(text)) + "\n"


def yes_doc(parts):
    return json.dumps({"decision": "yes", "parts": parts, "witness": None})


def no_doc(kind, vertices, k=None):
    witness = {"kind": kind, "vertices": vertices}
    if k is not None:
        witness["k"] = k
    return json.dumps({"decision": "no", "parts": None, "witness": witness})


@st.composite
def hosts(draw):
    """A connected chordal graph on at most 12 vertices, as graph6 or as an
    edge list whose edges come shuffled, with ends swapped and repeated."""
    g = random_chordal(draw(st.integers(1, 12)),
                       draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
                       draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        return g, "graph6", to_graph6(g) + "\n"
    rng = random.Random(draw(st.integers(0, 10**6)))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
    edges += rng.choices(edges, k=rng.randint(0, 3)) if edges else []
    rng.shuffle(edges)
    return g, "edgelist", edgelist_text(g.n, edges)


@st.composite
def certificates(draw, g):
    """The solver's certificate, a yes-document with a random covering
    3-part assignment, or a no-document with a random kind and vertex
    list, most often as many vertices as the kind has."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    shape = draw(st.sampled_from(["solver", "parts", "witness"]))
    if shape == "solver":
        return solve_certifying(g).to_json()
    if shape == "parts":
        parts = [[], [], []]
        for v in range(g.n):
            parts[rng.randrange(3)].append(v)
        for part in parts:
            rng.shuffle(part)
        return yes_doc(parts)
    tag = draw(st.sampled_from(KINDS))
    k = draw(st.integers(1, 4)) if tag == "Fan" else None
    size = 2 * k + 3 if tag == "Fan" else obstruction_graph(ObstructionKind(tag)).n
    size += draw(st.sampled_from([0, 0, 0, -1, 1]))
    vertices = rng.sample(range(-1, g.n + 1), min(max(size, 0), g.n + 2))
    if all(0 <= v < g.n for v in vertices) or draw(st.booleans()):
        return no_doc(tag, vertices, k)
    return no_doc(tag, [v for v in vertices if 0 <= v < g.n], k)


@st.composite
def host_and_certificate(draw):
    g, fmt, text = draw(hosts())
    return fmt, text, draw(certificates(g))


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("streamed") / "host.txt"


@settings(max_examples=300, deadline=None)
@given(host_and_certificate())
def test_verify_matches_the_library_verifier(graph_file, case):
    fmt, text, doc = case
    graph_file.write_text(text)
    code, out, err = run_verify(["--format", fmt, str(graph_file), "-"], stdin=doc)
    assert (code, out) == reference_verify(text, fmt, doc)
    assert err == ""


def test_verify_accepts_the_solvers_certificates(tmp_path, corpus7):
    # every connected chordal graph on at most 7 vertices, in both formats
    path = tmp_path / "host.txt"
    for g in corpus7:
        doc = solve_certifying(g).to_json()
        for fmt, text in (("graph6", to_graph6(g) + "\n"),
                          ("edgelist", edgelist_text(g.n, g.edges()))):
            path.write_text(text)
            assert run_verify(["--format", fmt, str(path), "-"], stdin=doc) == (
                0, '{"reason": null, "valid": true}\n', "")


def test_a_repeated_edge_does_not_stand_in_for_a_missing_one(tmp_path):
    # parts 1 = {0, 1} and 2 = {2, 3} need the four edges of K2,2; the
    # list repeats (0, 2) and lacks (1, 3), so counting every line would
    # reach the four
    path = tmp_path / "g.txt"
    path.write_text(edgelist_text(4, [(0, 2), (0, 3), (1, 2), (2, 0)]))
    cert = tmp_path / "cert.json"
    cert.write_text(yes_doc([[], [0, 1], [2, 3]]))
    code, out, _ = run_verify(["--format", "edgelist", str(path), str(cert)])
    assert code == 1
    assert json.loads(out) == {
        "valid": False,
        "reason": "vertices 1 (part 1) and 3 (part 2) must be adjacent",
    }


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
@pytest.mark.parametrize(
    "parts, inside",
    [([[0, 4], [1, 2], [3]], (0, 4)),
     ([[0], [1, 4], [2, 3]], (1, 4)),
     ([[0], [1, 2], [3, 4]], (3, 4))],
    ids=["part-0", "part-1", "part-2"],
)
def test_an_edge_inside_a_part_is_rejected(tmp_path, fmt, parts, inside):
    # parts 1 and 2 are completely joined, so only the edge inside one
    # part is at fault
    u, v = inside
    path = tmp_path / "g.txt"
    path.write_text(host_text(fmt, 5, [(a, b) for a in parts[1] for b in parts[2]] + [inside]))
    cert = tmp_path / "cert.json"
    cert.write_text(yes_doc(parts))
    code, out, _ = run_verify(["--format", fmt, str(path), str(cert)])
    assert code == 1
    part = next(i for i, members in enumerate(parts) if u in members)
    assert json.loads(out) == {
        "valid": False,
        "reason": f"vertices {u} (part {part}) and {v} (part {part}) must be non-adjacent",
    }


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
@pytest.mark.parametrize("kind", [ObstructionKind(t) for t in KINDS[:-1]] + [fan_kind(2)],
                         ids=str)
def test_a_witness_missing_one_edge_is_rejected(tmp_path, fmt, kind):
    # the witness names the kind's own vertices, shifted up by two, in a
    # host that lacks one of the kind's edges; the host's other edges
    # leave the witness
    h = obstruction_graph(kind)
    edges = [(u + 2, v + 2) for u, v in h.edges()[1:]] + [(0, 1), (1, 2)]
    path = tmp_path / "g.txt"
    path.write_text(host_text(fmt, h.n + 2, edges))
    cert = tmp_path / "cert.json"
    cert.write_text(no_doc(kind.tag, [v + 2 for v in range(h.n)], kind.k))
    code, out, _ = run_verify(["--format", fmt, str(path), str(cert)])
    assert code == 1
    assert json.loads(out) == {"valid": False, "reason": f"witness does not induce {kind}"}
    # the whole kind, shifted the same way, is accepted
    edges.append(tuple(v + 2 for v in h.edges()[0]))
    path.write_text(host_text(fmt, h.n + 2, edges))
    assert run_verify(["--format", fmt, str(path), str(cert)])[:2] == (
        0, '{"reason": null, "valid": true}\n')


def test_a_bad_edge_is_an_input_error_before_the_certificate(tmp_path):
    # the graph is read first: a self-loop exits 2 with Graph's message,
    # though the certificate is no JSON at all
    path = tmp_path / "g.txt"
    cert = tmp_path / "cert.json"
    cert.write_text("not json")
    for edges, message in (([(0, 1), (2, 2), (0, 5)], "self-loop at vertex 2"),
                           ([(0, 1), (0, 5), (2, 2)], "edge (0, 5) out of range for n=3")):
        path.write_text(edgelist_text(3, edges))
        assert run_verify(["--format", "edgelist", str(path), str(cert)]) == (
            2, "", f"error: {message}\n")


def test_a_negative_vertex_count_is_an_input_error(tmp_path, capsys):
    # check, and verify with a yes and with a no document, each exit 2
    # with Graph's message, before the certificate is read
    path = tmp_path / "g.txt"
    path.write_text("-1 0\n")
    error = "error: vertex count must be non-negative\n"
    assert main(["check", "--format", "edgelist", str(path)]) == 2
    assert capsys.readouterr() == ("", error)
    for doc in (yes_doc([[], [], []]), no_doc("F1", [0, 1, 2, 3, 4])):
        cert = tmp_path / "cert.json"
        cert.write_text(doc)
        assert run_verify(["--format", "edgelist", str(path), str(cert)]) == (2, "", error)


class OnceOnlyStdin(io.StringIO):
    """Standard input that may be read once."""

    reads = 0

    def read(self, *args):
        self.reads += 1
        if self.reads > 1:
            raise AssertionError("standard input read twice")
        return super().read(*args)


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
def test_a_fault_in_a_host_from_stdin_is_named(tmp_path, monkeypatch, capsys, fmt):
    # the library verifier's host is decoded from the parse already held:
    # standard input is read once, and its text parsed once
    parsed = []
    reader = "_graph6_field" if fmt == "graph6" else "_edgelist_keys"
    parse = getattr(graph, reader)

    def counted(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(graph, reader, counted)
    monkeypatch.setattr(cli, reader, counted)
    text = host_text(fmt, 4, path_graph(4).edges())
    cert = tmp_path / "cert.json"
    cert.write_text(yes_doc([[0, 2], [1], [3]]))
    stdin = OnceOnlyStdin(text)
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["verify", "--format", fmt, "-", str(cert)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "valid": False,
        "reason": "vertices 1 (part 1) and 3 (part 2) must be adjacent",
    }
    assert stdin.reads == 1
    assert parsed == [text]


def test_a_rejection_the_library_verifier_does_not_share_is_an_internal_error(
    tmp_path, monkeypatch, capsys
):
    # never "valid": true from a certificate the streamed check rejected
    path = tmp_path / "p4.g6"
    path.write_text("Ch\n")
    cert = tmp_path / "cert.json"
    cert.write_text(yes_doc([[0, 2], [1, 3], []]))
    assert main(["verify", str(path), str(cert)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("mpartition.cli._cells_hold", lambda *args: False)
    with pytest.raises(RuntimeError, match="internal error"):
        main(["verify", str(path), str(cert)])
    assert capsys.readouterr().out == ""


def long_path_verify(tmp_path, doc):
    """The result and the tracemalloc peak of ``verify`` of ``doc`` on a
    20000-vertex path given as an edge list.  The path's bitsets alone
    take about 25 MB (a peak of 31.4 MB when verify builds them)."""
    n = 20000
    path = tmp_path / "p.txt"
    path.write_text(edgelist_text(n, [(i, i + 1) for i in range(n - 1)]))
    cert = tmp_path / "cert.json"
    cert.write_text(doc)
    argv = ["--format", "edgelist", str(path), str(cert)]
    tracemalloc.start()
    try:
        result = run_verify(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_verify_of_a_long_path_builds_no_bitsets(tmp_path):
    # read as edges, the peak is 5.8 MB
    n = 20000
    result, peak = long_path_verify(
        tmp_path, yes_doc([list(range(0, n, 2)), list(range(1, n, 2)), []]))
    assert result == (0, '{"reason": null, "valid": true}\n', "")
    assert peak < 8_000_000, peak


def test_a_wrong_witness_on_a_long_path_is_named_without_the_host(tmp_path):
    # the witness's graph holds the edges among its five vertices only
    result, peak = long_path_verify(tmp_path, no_doc("F1", [0, 1, 2, 10, 11]))
    assert result == (1, '{"reason": "witness does not induce F1", "valid": false}\n', "")
    assert peak < 8_000_000, peak
