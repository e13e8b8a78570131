import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpartition import NotChordalError, fan, fan_kind, to_graph6
from mpartition.cli import main

from auxiliary import complete_graph, cycle_graph, path_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph6(tmp_path, g, name="g.g6"):
    path = tmp_path / name
    path.write_text(to_graph6(g) + "\n")
    return str(path)


def test_check_yes(tmp_path, capsys):
    path = write_graph6(tmp_path, path_graph(4))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "yes" and doc["witness"] is None


def test_check_no_fan(tmp_path, capsys):
    path = write_graph6(tmp_path, fan(2))
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"]["kind"] == "Fan" and doc["witness"]["k"] == 2


def test_check_rejects_holes(tmp_path, capsys):
    path = write_graph6(tmp_path, cycle_graph(4))
    code, out, _ = run(capsys, "check", path)
    assert code == 2
    assert json.loads(out)["error"] == "not chordal"


def test_check_force_oracle_on_hole(tmp_path, capsys):
    path = write_graph6(tmp_path, cycle_graph(4))
    code, out, _ = run(capsys, "check", path, "--force-oracle")
    assert code == 0
    assert json.loads(out)["decision"] == "yes"
    path = write_graph6(tmp_path, cycle_graph(5), "c5.g6")
    code, out, _ = run(capsys, "check", path, "--force-oracle")
    # C5 is unsolvable: three independent parts with the last two completely
    # joined cannot cover five cycle vertices
    assert code == 1
    assert json.loads(out)["decision"] == "no"


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("~~??????\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "byte offset" in err


def test_check_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch):
    # an edge list under the vertex cap can still need more memory than the
    # process may take: one error line and exit 2, not a traceback
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr("mpartition.cli._edgelist_keys", exhausted)
    path = tmp_path / "p.txt"
    path.write_text("2 1\n0 1\n")
    code, out, err = run(capsys, "check", "--format", "edgelist", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_random_out_of_memory_is_an_input_error(capsys, monkeypatch):
    # a --n under the cap can still need more memory than the process may
    # take, and that MemoryError is raised outside the readers
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("mpartition.cli.random_chordal", exhausted)
    code, out, err = run(capsys, "random", "--n", "258047", "--trials", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_round_trip(tmp_path, capsys):
    gpath = write_graph6(tmp_path, fan(2))
    code, out, _ = run(capsys, "check", gpath)
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify", gpath, str(cert))
    assert code == 0 and json.loads(out)["valid"] is True


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    gpath = write_graph6(tmp_path, complete_graph(4))
    cert = tmp_path / "cert.json"
    cert.write_text(
        json.dumps(
            {
                "decision": "no",
                "parts": None,
                "witness": {"kind": "F1", "vertices": [0, 1, 2, 3]},
            }
        )
    )
    code, out, _ = run(capsys, "verify", gpath, str(cert))
    assert code == 1 and json.loads(out)["valid"] is False


#: Documents that are not certificates at all, checked against Fan(2).
MALFORMED = (
    "[1,2]",
    "null",
    '{"decision":"no","parts":null,"witness":{"kind":"F1","vertices":[[0],1,2,3,4]}}',
    '{"decision":"no","parts":null,"witness":{"kind":"F1","vertices":["0",1,2,3,4]}}',
    '{"decision":"no","parts":null,"witness":{"kind":"Fan","k":"3","vertices":[0,1,2,3,4,5,6]}}',
    '{"decision":"yes","parts":[1,2,3],"witness":null}',
    "[" * 100000 + "]" * 100000,
)


@pytest.mark.parametrize(
    "doc",
    MALFORMED,
    ids=("list", "null", "list-vertex", "str-vertex", "str-k", "int-parts", "deep"),
)
def test_verify_malformed_document_is_an_input_error(tmp_path, capsys, doc):
    gpath = write_graph6(tmp_path, fan(2))
    cert = tmp_path / "cert.json"
    cert.write_text(doc)
    code, out, err = run(capsys, "verify", gpath, str(cert))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_auxiliary_witness_kind(tmp_path, capsys):
    # two disjoint triangles induce F0, which is not a minimal obstruction
    # and so no kind of the catalogue
    gpath = tmp_path / "f0.g6"
    gpath.write_text("EwCW\n")
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"decision":"no","parts":null,'
        '"witness":{"kind":"F0","vertices":[0,1,2,3,4,5]}}'
    )
    code, out, _ = run(capsys, "verify", str(gpath), str(cert))
    assert code == 1
    assert json.loads(out) == {
        "valid": False,
        "reason": "bad witness kind: unknown obstruction tag 'F0'",
    }


def test_verify_rejects_duplicated_witness_vertex(tmp_path, capsys):
    # nine entries, but as a set the seven vertices of Fan(2) itself
    gpath = tmp_path / "fan2.g6"
    gpath.write_text("FhCJo\n")
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"decision":"no","witness":'
        '{"kind":"Fan","k":2,"vertices":[0,0,1,2,3,4,5,6,6]}}'
    )
    code, out, _ = run(capsys, "verify", str(gpath), str(cert))
    assert code == 1
    assert json.loads(out) == {"valid": False, "reason": "duplicated witness vertex 0"}


@pytest.fixture()
def path4_path(tmp_path):
    path = tmp_path / "p4.g6"
    path.write_text("Ch\n")  # the path 0-1-2-3
    return str(path)


def test_verify_yes_certificate_of_check(tmp_path, capsys, path4_path):
    code, out, _ = run(capsys, "check", path4_path)
    assert code == 0 and json.loads(out)["decision"] == "yes"
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify", path4_path, str(cert))
    assert code == 0
    assert json.loads(out) == {"valid": True, "reason": None}


@pytest.mark.parametrize(
    "parts, reason",
    [
        ([[0, 0, 2], [1, 3], []], "bad or duplicated vertex 0 in parts"),
        ([[0, 2], [1, 3, 0], []], "bad or duplicated vertex 0 in parts"),
        ([[0, 2, 4], [1, 3], []], "bad or duplicated vertex 4 in parts"),
        ([[0, 2], [1], []], "parts do not cover every vertex"),
        ([[0, 1], [2], [3]],
         "vertices 0 (part 0) and 1 (part 0) must be non-adjacent"),
        ([[0, 2], [1], [3]],
         "vertices 1 (part 1) and 3 (part 2) must be adjacent"),
    ],
    ids=["repeated", "repeated-across-parts", "out-of-range", "uncovered",
         "edge-in-part", "missing-join"],
)
def test_verify_rejects_bad_yes_parts(tmp_path, capsys, path4_path, parts, reason):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"decision": "yes", "parts": parts, "witness": None}))
    code, out, _ = run(capsys, "verify", path4_path, str(cert))
    assert code == 1
    assert json.loads(out) == {"valid": False, "reason": reason}


_json_leaves = st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_vertex_lists = st.lists(st.integers(-1, 8) | _json_values, max_size=8)
_witnesses = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["F1", "F4", "F7", "F0", "Fan", "G"]) | _json_values,
        "vertices": _vertex_lists | _json_values,
    },
    optional={"k": st.integers(-1, 4) | _json_values},
)
_certificate_like = st.fixed_dictionaries(
    {"decision": st.sampled_from(["yes", "no"])},
    optional={
        "parts": st.lists(_vertex_lists, min_size=2, max_size=4) | _json_values,
        "witness": _witnesses | _json_values,
    },
)


@pytest.fixture(scope="module")
def fan2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "fan2.g6"
    path.write_text(to_graph6(fan(2)) + "\n")
    return str(path)


@settings(max_examples=400, deadline=None)
@given(_certificate_like | _json_values)
def test_verify_is_total_on_json_values(fan2_path, doc):
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(["verify", fan2_path, "-"])
    finally:
        sys.stdin = saved
    assert code in (1, 2)


def test_check_rejects_huge_edge_list_before_allocating(capsys, monkeypatch):
    # the header alone asks for 10**9 vertices: rejected before Graph runs
    def no_graph(*args):
        raise AssertionError("Graph built for an over-limit edge list")

    monkeypatch.setattr("mpartition.graph.Graph", no_graph)
    monkeypatch.setattr("sys.stdin", io.StringIO("1000000000 0\n"))
    code, out, err = run(capsys, "check", "--format", "edgelist", "-")
    assert code == 2 and out == ""
    assert err == "error: edge list has 1000000000 vertices, at most 258047 supported\n"


@st.composite
def _edgelist_texts(draw):
    """An edge list of up to 8 vertices, often with an id out of range, a
    self-loop or an edge count off by one, then up to three characters
    replaced, inserted or deleted; or any text at all."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=60))
    n = draw(st.integers(0, 8))
    if n >= 2 and draw(st.booleans()):
        vertex = st.integers(0, n - 1)
        pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    else:
        pair = st.tuples(st.integers(-1, n), st.integers(-1, n))
    pairs = draw(st.lists(pair, max_size=20))
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    text = "\n".join([f"{n} {m}"] + [f"{u} {v}" for u, v in pairs]) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        c = draw(st.characters(max_codepoint=127) | st.sampled_from("\u0663\u2003"))
        keep = draw(st.sampled_from([at, at + 1]))  # insert or replace/delete
        text = text[:at] + draw(st.sampled_from(["", c])) + text[keep:]
    return text


def _header_vertices(text):
    """The vertex count ``from_edgelist`` would read, or None."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        n, _ = map(int, lines[0].split())
    except (IndexError, ValueError):
        return None
    return n


@settings(max_examples=400, deadline=None)
@given(_edgelist_texts())
def test_check_is_total_on_edge_list_text(text):
    n = _header_vertices(text)
    assume(n is None or n <= 64)  # no test builds a large graph
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", "--format", "edgelist", "-"])
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_obstruction_scan(tmp_path, capsys):
    code, out, _ = run(capsys, "obstruction", write_graph6(tmp_path, complete_graph(5)))
    assert code == 1
    assert json.loads(out)["obstruction"]["kind"] == "F7"
    code, out, _ = run(capsys, "obstruction", write_graph6(tmp_path, path_graph(5), "p.g6"))
    assert code == 0
    assert json.loads(out)["obstruction"] is None


def test_solve_with_pattern_file(tmp_path, capsys):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("0**\n*01\n*10\n")
    gpath = write_graph6(tmp_path, complete_graph(4))
    code, out, _ = run(capsys, "solve", gpath, "--pattern", str(pattern))
    assert code == 1 and json.loads(out)["decision"] == "no"
    gpath = write_graph6(tmp_path, complete_graph(3), "k3.g6")
    code, out, _ = run(capsys, "solve", gpath, "--pattern", str(pattern))
    assert code == 0
    parts = json.loads(out)["parts"]
    assert sorted(sum(parts, [])) == [0, 1, 2]


def test_enumerate_plain(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # 1 + 1 + 2 + 5


def test_enumerate_verify(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-n", "5", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["graphs_per_n"] == {"1": 1, "2": 1, "3": 2, "4": 5, "5": 15}
    assert report["agreements"] == report["checked"] == 24


def test_random_validate_deterministic(capsys):
    code, out1, _ = run(capsys, "random", "--n", "30", "--trials", "5", "--seed", "3")
    assert code == 0
    assert json.loads(out1)["failures"] == []
    code, out2, _ = run(capsys, "random", "--n", "30", "--trials", "5", "--seed", "3")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--n", "0"], "--n must lie in 1..258047, got 0"),
        (["--n", "-3"], "--n must lie in 1..258047, got -3"),
        (["--n", "258048"], "--n must lie in 1..258047, got 258048"),
        (["--n", "10", "--attach-bias", "2"],
         "--attach-bias must lie in [0, 1], got 2.0"),
        (["--n", "10", "--attach-bias", "-0.5"],
         "--attach-bias must lie in [0, 1], got -0.5"),
        (["--n", "10", "--attach-bias", "nan"],
         "--attach-bias must lie in [0, 1], got nan"),
        (["--n", "10", "--trials", "0"], "--trials must be at least 1, got 0"),
        (["--n", "10", "--trials", "-3"], "--trials must be at least 1, got -3"),
    ],
)
def test_random_rejects_bad_arguments_before_generating(
    capsys, monkeypatch, argv, reason
):
    # an over-cap --n must not reach the generator, which allocates n masks
    def no_generator(*args, **kwargs):
        raise AssertionError("random_chordal called with bad arguments")

    monkeypatch.setattr("mpartition.cli.random_chordal", no_generator)
    code, out, err = run(capsys, "random", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {reason}\n"


def test_minimality_command(capsys):
    code, out, _ = run(capsys, "minimality", "F7", "F1", "Fan(2)")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["checked"] == 3
    code, out, err = run(capsys, "minimality", "F7", "F0")
    assert code == 2 and out == ""
    assert err == "error: unknown obstruction tag 'F0'\n"


NON_ASCII_WITNESS = ('{"decision": "no", "parts": null, '
                     '"witness": {"kind": "F\u00e9", "vertices": [0, 1, 2, 3, 4]}}\n')


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (["verify", "{graph}", "{input}"], NON_ASCII_WITNESS, 1),
        (["check", "{input}"], "DQ\u00e9\n", 2),
        (["check", "--format", "edgelist", "{input}"], "3 1\n0 \u00e9\n", 2),
    ],
    ids=["witness-kind", "graph6", "edgelist"],
)
def test_non_ascii_text_gets_one_answer_from_a_file_and_stdin(
        tmp_path, capsys, monkeypatch, argv, text, code):
    # a file is read as UTF-8, as stdin is under the default locale, so the
    # parsers judge the same text either way
    graph = tmp_path / "g.g6"
    graph.write_text("DQ{\n")
    source = tmp_path / "input"
    source.write_bytes(text.encode("utf-8"))
    answers = []
    for name in (str(source), "-"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        answers.append(run(capsys, *(a.format(graph=graph, input=name) for a in argv)))
    assert answers[0] == answers[1]
    assert answers[0][0] == code


def rejects_certificates(*args, **kwargs):
    raise RuntimeError("internal error: certificate check failed")


def rejects_chordality(*args, **kwargs):
    raise NotChordalError((0, 1, 2, 3))


@pytest.mark.parametrize(
    "argv, target, stand_in, failure",
    [
        (["enumerate", "--max-n", "1", "--verify"], "solve", lambda g, pattern: None,
         {"graph6": "@", "kind": "disagreement",
          "detail": "solver=True oracle=False scan=True"}),
        (["random", "--n", "4"], "solve_certifying", rejects_certificates,
         {"graph6": "C~", "kind": "invalid-certificate",
          "detail": "internal error: certificate check failed"}),
        (["random", "--n", "4"], "solve_certifying", rejects_chordality,
         {"graph6": "C~", "kind": "not-chordal"}),
        (["minimality", "F1"], "is_minimal_obstruction", lambda g, pattern: False,
         {"graph6": "DwC", "kind": "minimality-mismatch", "detail": "F1: minimal=False"}),
        (["enumerate", "--max-n", "1", "--verify"], "solve_certifying", rejects_certificates,
         {"graph6": "@", "kind": "invalid-certificate",
          "detail": "internal error: certificate check failed"}),
    ],
)
def test_batch_failures_are_reported(capsys, monkeypatch, argv, target, stand_in, failure):
    # a failed check is one report entry naming the graph, and the run exits 1
    monkeypatch.setattr(f"mpartition.cli.{target}", stand_in)
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert code == 1
    assert report["failures"] == [failure]
    assert report["checked"] == 1 and report["agreements"] == 0


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["minimality", "Fan(129023)"],
         "Fan(129023) has 258049 vertices, more than the oracle's 512"),
        (["minimality", "F1", "Fan(1000000000)"],
         "Fan(1000000000) has 2000000003 vertices, more than the oracle's 512"),
        (["catalogue", "--fan-max", "129023"], "--fan-max must be at most 129022, got 129023"),
        (["catalogue", "--fan-max", "1000000000", "--json"],
         "--fan-max must be at most 129022, got 1000000000"),
        (["minimality", "Fan(255)"], "Fan(255) has 513 vertices, more than the oracle's 512"),
    ],
)
def test_over_limit_fans_are_rejected_before_building(capsys, monkeypatch, argv, reason):
    # Fan(129023) would need about 8 GB of bitsets, and the oracle behind
    # minimality recurses once per vertex: nothing may build either
    def no_graph(*args, **kwargs):
        raise AssertionError("obstruction_graph called for an over-limit fan")

    monkeypatch.setattr("mpartition.cli.obstruction_graph", no_graph)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {reason}\n"


def test_largest_fan_passes_the_limit(capsys, monkeypatch):
    # Fan(254) has 511 vertices, the most of any fan within the oracle's
    # 512; a stand-in graph is checked instead, so the test only shows
    # that the limit lets it through
    built = []

    def small_stand_in(kind):
        built.append(kind)
        return fan(2)

    monkeypatch.setattr("mpartition.cli.obstruction_graph", small_stand_in)
    code, out, _ = run(capsys, "minimality", "Fan(254)")
    assert code == 0 and json.loads(out)["checked"] == 1
    assert built == [fan_kind(254)]


@pytest.mark.parametrize(
    "argv", [["solve", "--pattern", "PATTERN"], ["obstruction"], ["check", "--force-oracle"]]
)
def test_oracle_takes_at_most_512_vertices(tmp_path, capsys, monkeypatch, argv):
    # the oracle recurses once per vertex: a larger graph is rejected before
    # any search, and stand-ins for the searches show 512 passing the limit
    searched = []
    monkeypatch.setattr("mpartition.cli.solve", lambda g, pattern: searched.append(g.n))
    monkeypatch.setattr("mpartition.cli.find_obstruction_by_scan",
                        lambda g: searched.append(g.n))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("0**\n*01\n*10\n")
    argv = [str(pattern) if a == "PATTERN" else a for a in argv]
    code, out, err = run(capsys, *argv, write_graph6(tmp_path, cycle_graph(513)))
    assert (code, out) == (2, "")
    assert err == "error: graph has 513 vertices, more than the oracle's 512\n"
    assert searched == []
    code, out, err = run(capsys, *argv, write_graph6(tmp_path, cycle_graph(512)))
    assert code in (0, 1) and json.loads(out) and err == ""
    assert searched == [512]


def test_catalogue_command(capsys):
    code, out, _ = run(capsys, "catalogue", "--fan-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # F1..F7 + fans 2..4
    tags = [ln.split("\t")[0] for ln in lines]
    assert tags[0] == "F1" and "Fan(4)" in tags
    code, out, _ = run(capsys, "catalogue", "--fan-max", "2", "--format", "dot")
    assert code == 0 and "graph {" in out
    code, out, _ = run(capsys, "catalogue", "--fan-max", "2", "--json")
    docs = json.loads(out)
    assert len(docs) == 8 and docs[0] == {"graph6": "DwC", "kind": "F1"}
    assert docs[-1] == {"graph6": to_graph6(fan(2)), "k": 2, "kind": "Fan"}


def test_check_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(path_graph(3)) + "\n"))
    code, out, _ = run(capsys, "check")
    assert code == 0 and json.loads(out)["decision"] == "yes"


def test_enumerate_counts_flag(capsys):
    code, out, err = run(capsys, "enumerate", "--max-n", "3", "--counts")
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    assert json.loads(err.strip().splitlines()[-1]) == {"1": 1, "2": 1, "3": 2}


def test_enumerate_verify_counts_flag(capsys):
    # --counts adds the per-n counts to stderr; stdout is the plain report
    code, out, err = run(capsys, "enumerate", "--max-n", "4", "--verify", "--counts")
    _, plain, _ = run(capsys, "enumerate", "--max-n", "4", "--verify")
    assert code == 0 and out == plain
    lines = err.strip().splitlines()
    assert json.loads(lines[0]) == {"1": 1, "2": 1, "3": 2, "4": 5}
    assert lines[-1].startswith("wall-time: ")


def test_random_single_trivial_trial(capsys):
    code, out, _ = run(capsys, "random", "--n", "1", "--trials", "1")
    assert code == 0
    assert json.loads(out)["checked"] == 1


def test_solve_with_other_patterns(tmp_path, capsys):
    # one clique part plus one independent part: a split-graph style pattern
    pattern = tmp_path / "split.txt"
    pattern.write_text("1*\n*0\n")
    gpath = write_graph6(tmp_path, complete_graph(4))
    code, out, _ = run(capsys, "solve", gpath, "--pattern", str(pattern))
    assert code == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("**\n**\n")
    code, _, err = run(capsys, "solve", gpath, "--pattern", str(bad))
    assert code == 2 and "trivial" in err
    # a pattern with no rows would answer "no" on every non-empty graph
    # and "yes" with no parts on the empty one
    bad.write_text("\n")
    for path in (gpath, write_graph6(tmp_path, path_graph(0), "empty.g6")):
        code, out, err = run(capsys, "solve", path, "--pattern", str(bad))
        assert (code, out, err) == (2, "", "error: pattern matrix has no rows\n")


def test_convert_formats(tmp_path, capsys):
    gpath = write_graph6(tmp_path, fan(2))
    code, out, _ = run(capsys, "convert", gpath, "--format", "edgelist")
    assert code == 0
    assert out.splitlines()[0] == "7 9"
    elist = tmp_path / "g.el"
    elist.write_text(out)
    code, out, _ = run(
        capsys,
        "convert",
        str(elist),
        "--input-format",
        "edgelist",
        "--format",
        "graph6",
    )
    assert code == 0 and out.strip() == to_graph6(fan(2))
    code, out, _ = run(capsys, "convert", gpath, "--format", "dot")
    assert code == 0 and out.startswith("graph {")


def test_parser_is_shared_and_keeps_no_state_between_calls(tmp_path, capsys):
    from mpartition import cli

    assert cli._parser() is cli._parser()
    gpath = write_graph6(tmp_path, fan(2))
    code, out, _ = run(capsys, "convert", gpath, "--format", "edgelist")
    assert code == 0 and out.startswith("7 9\n")
    code, out, _ = run(capsys, "convert", gpath)  # the default format again
    assert code == 0 and out.strip() == to_graph6(fan(2))
    hole = write_graph6(tmp_path, cycle_graph(4), "c4.g6")
    assert run(capsys, "check", hole, "--force-oracle")[0] == 0
    assert run(capsys, "check", hole)[0] == 2  # --force-oracle is not carried over


def test_closed_pipe_exits_1_without_traceback():
    # about 3 MB of catalogue lines overfill the pipe after its reader
    # has read one line and gone
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "mpartition", "catalogue", "--fan-max", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"F1\t")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err, err.decode()
