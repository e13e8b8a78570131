"""The package's public names, pinned: each one has a user outside the
package, in the README, the benchmark scripts or the tests.  A test that
imports a name counts as its user, so a new name needs both an entry in
``PUBLIC`` and a caller; the pin is what keeps the surface from growing
unnoticed."""

import re
from pathlib import Path

import mpartition

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "ChordalityCertificate",
    "Graph",
    "Graph6Error",
    "M1",
    "M1Certificate",
    "NotChordalError",
    "ObstructionKind",
    "PartitionViolation",
    "Pattern",
    "VertexSet",
    "bipartizer_set",
    "canonical_key",
    "components",
    "contains_induced",
    "enumerate_connected_chordal",
    "fan",
    "fan_kind",
    "find_obstruction_by_scan",
    "from_edgelist",
    "from_graph6",
    "induced",
    "is_bipartite",
    "is_chordal",
    "is_isomorphic",
    "is_minimal_obstruction",
    "obstruction_graph",
    "random_chordal",
    "solve",
    "solve_certifying",
    "solve_one_bipartizer",
    "to_dot",
    "to_edgelist",
    "to_graph6",
    "verify_assignment",
    "verify_certificate",
]

#: Public names whose only consumer is the API itself: the type that
#: ``is_chordal`` returns, read through its attributes but never named.
RETURN_TYPES = {"ChordalityCertificate"}


def names_used_from_package() -> set[str]:
    """Names taken from the top-level package: ``from mpartition import
    ...`` lists and ``mpartition.<name>`` or ``mp.<name>`` references
    (the benchmark binds the package to ``mp``)."""
    paths = [ROOT / "README.md", *sorted(ROOT.glob("bench/*.py")),
             *sorted(ROOT.glob("tests/*.py"))]
    used = set()
    for path in paths:
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        for listed, single in re.findall(
            r"from mpartition import (?:\(([^)]*)\)|([\w, ]+))", text
        ):
            used.update(re.findall(r"\w+", listed or single))
        used.update(re.findall(r"\b(?:mp|mpartition)\.(\w+)", text))
    return used


def test_public_names_are_pinned():
    assert sorted(mpartition.__all__) == PUBLIC


def test_every_public_name_has_a_user():
    unused = set(mpartition.__all__) - RETURN_TYPES - names_used_from_package()
    assert sorted(unused) == []
