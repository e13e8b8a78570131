"""Command-line front end and batch verification harness.

Exit codes for ``check``/``obstruction``/``solve``: 0 = partitionable (or
nothing found), 1 = obstruction found / unsatisfiable, 2 = input error or
non-chordal input without ``--force-oracle``.  ``verify`` exits 0 for a
valid certificate, 1 for an invalid one and 2 for an unreadable graph or
a malformed certificate document.  Batch commands exit 0 iff their
report contains no failures.  Reports are deterministic for fixed flags
and seed; timing goes to stderr only.  A command whose reader closes its
standard output early (``mpartition enumerate | head -1``) stops writing
and exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .catalogue import (
    FINITE_MINIMAL_TAGS,
    ObstructionKind,
    fan_kind,
    find_obstruction_by_scan,
    obstruction_graph,
    obstruction_size,
)
from .chordal import MAX_ENUMERATION_N, _keyed_connected_chordal, random_chordal
from .graph import (
    MAX_VERTICES,
    Graph,
    _EdgeListKeys,
    _edgelist_keys,
    _Graph6Field,
    _graph6_field,
    to_dot,
    to_edgelist,
    to_graph6,
)
from .patterns import (M1, Pattern, _cells_hold, assignment_parts, is_minimal_obstruction,
                       solve)
from .solver import M1Certificate, NotChordalError, solve_certifying, verify_certificate

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2

#: The largest fan the CLI builds: Fan(k) has 2k+3 vertices, at most MAX_VERTICES.
_MAX_FAN_K = (MAX_VERTICES - 3) // 2

#: The largest graph the CLI hands to the exhaustive oracle, which recurses
#: once per vertex: minimality of Fan(254), 511 vertices, takes about 2.6 s.
_MAX_ORACLE_VERTICES = 512


class _InputError(Exception):
    """An unreadable input or a bad argument: ``main`` prints it as one
    ``error:`` line and exits 2.  Only the readers and argument checks
    raise it, so an error inside the solver stays a traceback."""


def _reader(read):
    """``read``, raising its ValueError or OSError (or the RecursionError
    of too deeply nested JSON) as an input error."""

    @functools.wraps(read)
    def checked(*args):
        try:
            return read(*args)
        except (ValueError, OSError, RecursionError) as exc:
            raise _InputError(exc) from exc

    return checked


def _check_oracle_size(name: str, n: int) -> None:
    if n > _MAX_ORACLE_VERTICES:
        raise _InputError(
            f"{name} has {n} vertices, more than the oracle's {_MAX_ORACLE_VERTICES}"
        )


@dataclass
class RunReport:
    """Aggregated batch outcome; ``failures`` empty iff the run passed."""

    command: str
    graphs_per_n: dict[int, int] = field(default_factory=dict)
    checked: int = 0
    agreements: int = 0
    failures: list[dict] = field(default_factory=list)

    def record(self, n: int) -> None:
        self.checked += 1
        self.graphs_per_n[n] = self.graphs_per_n.get(n, 0) + 1

    def fail(self, graph: Graph, kind: str, detail: str = "") -> None:
        entry = {"graph6": to_graph6(graph), "kind": kind}
        if detail:
            entry["detail"] = detail
        self.failures.append(entry)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "graphs_per_n": {str(k): v for k, v in sorted(self.graphs_per_n.items())},
            "checked": self.checked,
            "agreements": self.agreements,
            "failures": self.failures,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    @property
    def exit_code(self) -> int:
        return EXIT_YES if not self.failures else EXIT_NO


@_reader
def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:  # stdin's under the default locale
        return fh.read()


@_reader
def _read_edges(text: str, fmt: str) -> _Graph6Field | _EdgeListKeys:
    """The parse of ``text`` in ``fmt``, which holds each edge once."""
    return _edgelist_keys(text) if fmt == "edgelist" else _graph6_field(text)


def _read_graph(path: str, fmt: str) -> Graph:
    return _read_edges(_read_text(path), fmt).graph()


def _emit_graph(g: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return to_edgelist(g)
    if fmt == "dot":
        return to_dot(g)
    return to_graph6(g) + "\n"


def cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.format)
    try:
        cert = solve_certifying(g)
    except NotChordalError as exc:
        if not args.force_oracle:
            print(json.dumps({"error": "not chordal", "hole": list(exc.hole)},
                             sort_keys=True))
            return EXIT_ERROR
        _check_oracle_size("graph", g.n)
        assignment = solve(g, M1)
        if assignment is None:  # uncertified: the catalogue is for chordal graphs
            print(json.dumps({"decision": "no", "parts": None, "witness": None},
                             sort_keys=True))
            return EXIT_NO
        cert = M1Certificate(assignment, None)
    print(cert.to_json())
    return EXIT_YES if cert.decision == "yes" else EXIT_NO


def cmd_verify(args: argparse.Namespace) -> int:
    edges = _read_edges(_read_text(args.input), args.format)
    cert = _read_certificate(edges.n, args.certificate)
    if isinstance(cert, str):
        problem = cert
    elif cert.witness is not None:  # the library check, on the witness's own edges
        problem = verify_certificate(Graph(edges.n, edges.among(cert.witness[1])), cert)
    elif _cells_hold(M1, [*map(cert.assignment.count, range(3))],
                     edges.cells(cert.assignment)):  # the library's yes-rule
        problem = None
    else:  # the library verifier names the fault, on the graph already parsed
        problem = verify_certificate(edges.graph(), cert)
        if problem is None:
            raise RuntimeError("internal error: a certificate fails its edge "
                               "count but verify_certificate finds no fault")
    print(json.dumps({"valid": problem is None, "reason": problem}, sort_keys=True))
    return EXIT_YES if problem is None else EXIT_NO


def _is_int_list(value: object) -> bool:
    # JSON gives no int subclass but bool, so an int is a value of type int
    return isinstance(value, list) and {*map(type, value)} <= {int}


@_reader
def _read_certificate(n: int, path: str) -> M1Certificate | str:
    """The certificate the JSON document at ``path`` states, or why it
    states none.

    Raises ValueError when the document does not have a certificate's
    shape: an object whose yes ``parts`` are three lists of ints, or whose
    no ``witness`` is an object with a string ``kind``, an int list
    ``vertices`` and an int ``k`` where one is given.
    """
    doc = json.loads(_read_text(path))
    if not isinstance(doc, dict):
        raise ValueError("malformed certificate: not a JSON object")
    if doc.get("decision") == "yes":
        parts = doc.get("parts")
        if not (isinstance(parts, list) and len(parts) == 3
                and all(map(_is_int_list, parts))):
            raise ValueError("malformed certificate: parts must be three lists of ints")
        assignment = [-1] * n
        for i, part in enumerate(parts):
            for v in part:
                if not 0 <= v < n or assignment[v] != -1:
                    return f"bad or duplicated vertex {v!r} in parts"
                assignment[v] = i
        if -1 in assignment:
            return "parts do not cover every vertex"
        return M1Certificate(tuple(assignment), None)
    if doc.get("decision") == "no":
        wit = doc.get("witness")
        if not isinstance(wit, dict):
            raise ValueError("malformed certificate: no witness object")
        kind, k, vertices = wit.get("kind"), wit.get("k"), wit.get("vertices")
        if not isinstance(kind, str):
            raise ValueError("malformed certificate: witness kind must be a string")
        if k is not None and type(k) is not int:
            raise ValueError("malformed certificate: witness k must be an int")
        if not _is_int_list(vertices):
            raise ValueError("malformed certificate: witness vertices must be a list of ints")
        seen = set()
        for v in vertices:
            if v in seen:
                return f"duplicated witness vertex {v}"
            seen.add(v)
        try:
            return M1Certificate(None, (ObstructionKind(kind, k), frozenset(vertices)))
        except ValueError as exc:
            return f"bad witness kind: {exc}"
    return "decision must be 'yes' or 'no'"


def cmd_obstruction(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.format)
    _check_oracle_size("graph", g.n)
    found = find_obstruction_by_scan(g)
    if found is None:
        print(json.dumps({"obstruction": None}, sort_keys=True))
        return EXIT_YES
    kind, vertices = found
    doc = {"obstruction": kind.to_json_dict(vertices=sorted(vertices))}
    print(json.dumps(doc, sort_keys=True))
    return EXIT_NO


def cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.format)
    _check_oracle_size("graph", g.n)
    pattern = _reader(Pattern.parse)(_read_text(args.pattern))
    assignment = solve(g, pattern)
    if assignment is None:
        print(json.dumps({"decision": "no", "parts": None}, sort_keys=True))
        return EXIT_NO
    parts = assignment_parts(assignment, pattern.m)
    print(json.dumps({"decision": "yes", "parts": parts}, sort_keys=True))
    return EXIT_YES


def _certify_checked(report: RunReport, g: Graph) -> M1Certificate | None:
    """``solve_certifying``, which checks chordality and its certificate
    itself; a failed check goes into the report and gives None."""
    try:
        return solve_certifying(g)
    except NotChordalError:
        report.fail(g, "not-chordal")
    except RuntimeError as exc:
        report.fail(g, "invalid-certificate", str(exc))
    return None


def cmd_enumerate(args: argparse.Namespace) -> int:
    report = RunReport(command="enumerate")
    started = time.monotonic()
    for key, g in _keyed_connected_chordal(args.max_n):
        report.record(g.n)
        if not args.verify:
            print(key)
            continue
        cert = _certify_checked(report, g)
        if cert is None:
            continue
        by_oracle = solve(g, M1) is not None
        by_scan = find_obstruction_by_scan(g) is None
        by_solver = cert.decision == "yes"
        if by_solver == by_oracle == by_scan:
            report.agreements += 1
        else:
            report.fail(
                g,
                "disagreement",
                f"solver={by_solver} oracle={by_oracle} scan={by_scan}",
            )
    if args.verify:
        print(report.to_json())
    if args.counts:
        print(
            json.dumps(
                {str(k): v for k, v in sorted(report.graphs_per_n.items())},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
    if args.verify:
        _elapsed(started)
        return report.exit_code
    return EXIT_YES


def cmd_random(args: argparse.Namespace) -> int:
    # checked before random_chordal, which would raise or allocate n masks
    if not 1 <= args.n <= MAX_VERTICES:
        raise _InputError(f"--n must lie in 1..{MAX_VERTICES}, got {args.n}")
    if not 0.0 <= args.attach_bias <= 1.0:
        raise _InputError(f"--attach-bias must lie in [0, 1], got {args.attach_bias}")
    if args.trials < 1:  # a batch that checks nothing must not pass
        raise _InputError(f"--trials must be at least 1, got {args.trials}")
    report = RunReport(command="random")
    started = time.monotonic()
    for trial in range(args.trials):
        g = random_chordal(args.n, args.attach_bias, seed=args.seed + trial)
        report.record(g.n)
        if _certify_checked(report, g) is not None:
            report.agreements += 1
    print(report.to_json())
    _elapsed(started)
    return report.exit_code


def _catalogue_kinds(fan_max: int) -> list[ObstructionKind]:
    """The catalogue's kinds: F1..F7, then Fan(2)..Fan(fan_max)."""
    kinds = [ObstructionKind(tag) for tag in FINITE_MINIMAL_TAGS]
    return kinds + [fan_kind(k) for k in range(2, fan_max + 1)]


@_reader
def _parse_kind(token: str) -> ObstructionKind:
    if not (token.startswith("Fan(") and token.endswith(")")):
        return ObstructionKind(token)
    kind = fan_kind(int(token[4:-1]))
    _check_oracle_size(str(kind), obstruction_size(kind))  # before it is built
    return kind


def cmd_minimality(args: argparse.Namespace) -> int:
    report = RunReport(command="minimality")
    started = time.monotonic()
    kinds = [_parse_kind(token) for token in args.kinds] or _catalogue_kinds(5)
    for kind in kinds:
        g = obstruction_graph(kind)
        report.record(g.n)
        if is_minimal_obstruction(g, M1):
            report.agreements += 1
        else:
            report.fail(g, "minimality-mismatch", f"{kind}: minimal=False")
    print(report.to_json())
    _elapsed(started)
    return report.exit_code


def cmd_catalogue(args: argparse.Namespace) -> int:
    if args.fan_max > _MAX_FAN_K:  # before obstruction_graph allocates 2k+3 masks
        raise _InputError(f"--fan-max must be at most {_MAX_FAN_K}, got {args.fan_max}")
    kinds = _catalogue_kinds(args.fan_max)
    if args.json:
        docs = [kind.to_json_dict(graph6=to_graph6(obstruction_graph(kind)))
                for kind in kinds]
        print(json.dumps(docs, sort_keys=True, indent=2))
        return EXIT_YES
    for kind in kinds:
        g = obstruction_graph(kind)
        if args.format == "dot":
            print(f"// {kind}")
            sys.stdout.write(to_dot(g))
        else:
            print(f"{kind}\t{to_graph6(g)}")
    return EXIT_YES


def cmd_convert(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.input_format)
    sys.stdout.write(_emit_graph(g, args.format))
    return EXIT_YES


def _elapsed(started: float) -> None:
    print(f"wall-time: {time.monotonic() - started:.2f}s", file=sys.stderr)


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-",
                   help="graph file, or - for stdin (default)")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpartition",
        description="Certifying matrix-partition tools for chordal graphs",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="certify one graph under the built-in pattern")
    _add_input_options(p)
    p.add_argument("--force-oracle", action="store_true",
                   help="fall back to the exhaustive solver on non-chordal input")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    _add_input_options(p)
    p.add_argument("certificate", help="certificate JSON file, or -")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("obstruction", help="scan a small graph for catalogue members")
    _add_input_options(p)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("solve", help="exhaustive solve under an arbitrary pattern")
    _add_input_options(p)
    p.add_argument("--pattern", required=True, help="pattern text file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("enumerate", help="connected chordal graphs up to max-n")
    p.add_argument("--max-n", type=int, default=6, dest="max_n",
                   metavar="K", choices=range(1, MAX_ENUMERATION_N + 1))
    p.add_argument("--verify", action="store_true",
                   help="check solver/oracle/scan agreement instead of printing")
    p.add_argument("--counts", action="store_true",
                   help="print per-n counts to stderr")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("random", help="validate certificates on random chordal graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attach-bias", type=float, default=0.5, dest="attach_bias")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("minimality", help="oracle-check minimal-obstruction status")
    p.add_argument("kinds", nargs="*",
                   help="kind tags, e.g. F3 or Fan(2); default: F1..F7, Fan(2..5)")
    p.set_defaults(func=cmd_minimality)

    p = sub.add_parser("catalogue", help="emit the catalogue graphs")
    p.add_argument("--fan-max", type=int, default=3, dest="fan_max")
    p.add_argument("--format", choices=("graph6", "dot"), default="graph6")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON array instead of per-entry lines")
    p.set_defaults(func=cmd_catalogue)

    p = sub.add_parser("convert", help="convert between graph formats")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--input-format", choices=("graph6", "edgelist"),
                   default="graph6", dest="input_format")
    p.add_argument("--format", choices=("graph6", "edgelist", "dot"),
                   default="graph6")
    p.set_defaults(func=cmd_convert)

    return parser


#: One parser per process, built on first use: each ``parse_args`` call
#: returns a fresh namespace, so in-process callers can share it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # an input, or a --n, too large to hold
        print("error: input too large for the available memory", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at exit does not fail again, and exit 1 as an
        # uncaught error would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
