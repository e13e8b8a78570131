import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpartition import fan, to_graph6
from mpartition.cli import main
from mpartition.graph import complete_graph, cycle_graph, path_graph


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
    gpath = tmp_path / "f0.g6"
    gpath.write_text("EwCW\n")
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"decision":"no","parts":null,'
        '"witness":{"kind":"F0","vertices":[0,1,2,3,4,5]}}'
    )
    code, out, _ = run(capsys, "verify", str(gpath), str(cert))
    assert code == 1
    assert json.loads(out) == {"valid": False, "reason": "F0 is not a minimal obstruction"}


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


def test_minimality_command(capsys):
    code, out, _ = run(capsys, "minimality", "F7", "F1", "Fan(2)", "F0")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == [] and report["checked"] == 4


def test_catalogue_command(capsys):
    code, out, _ = run(capsys, "catalogue", "--fan-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13  # 10 fixed entries + fans 2..4
    tags = [ln.split("\t")[0] for ln in lines]
    assert tags[0] == "F0" and "Fan(4)" in tags
    code, out, _ = run(capsys, "catalogue", "--fan-max", "2", "--format", "dot")
    assert code == 0 and "graph {" in out
    code, out, _ = run(capsys, "catalogue", "--fan-max", "2", "--json")
    docs = json.loads(out)
    assert len(docs) == 11 and docs[-1] == {
        "graph6": to_graph6(fan(2)),
        "k": 2,
        "kind": "Fan",
        "minimal": True,
    }


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
