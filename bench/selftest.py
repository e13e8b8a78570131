#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Builds one round of certify_yes, certify_no and cli_check_verify inputs,
solves them, and expects ``checks.py`` to accept every certificate as
printed and to reject each corruption of it:

* a yes-partition with one vertex moved into the part of a neighbour,
* a witness with one vertex swapped for another that the program's own
  verifier rejects there,
* a witness whose kind is changed (to one of the same size where possible),
* a certificate whose decision differs from the planted one,
* the corpus8 counts per vertex count with one count changed.

It also checks the paper-based definitions of F1..F7 and the structural
Fan(k) test against the program's catalogue.  Exits 0 iff all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpartition as mp  # noqa: E402

SAME_SIZE = {"F2": "F5", "F5": "F6", "F6": "F2", "F3": "F4", "F4": "F3", "F1": "F7", "F7": "F1"}


def _program_rejects(graph, wit: dict) -> bool:
    kind = mp.ObstructionKind(wit["kind"], wit.get("k"))
    cert = mp.M1Certificate(None, (kind, frozenset(wit["vertices"])))
    return mp.verify_certificate(graph, cert) is not None


def corruptions(graph, adj: checks.Adjacency, doc: dict):
    """Yield (description, corrupted document) pairs for one certificate."""
    if doc["decision"] == "yes":
        part = {v: i for i, members in enumerate(doc["parts"]) for v in members}
        v = next(u for u in range(len(adj)) if adj[u])
        target = part[min(adj[v])]
        parts = [[u for u in members if u != v] for members in doc["parts"]]
        parts[target].append(v)
        yield f"vertex {v} moved to part {target}", {**doc, "parts": parts}
        return
    wit = doc["witness"]
    # Swap in the first outside vertex, preferring those that see none of
    # the witness, for which the program's own verifier rejects the set.
    near = set().union(*(adj[u] for u in wit["vertices"]))
    outside = sorted(set(range(len(adj))) - set(wit["vertices"]), key=lambda u: (u in near, u))
    for u in outside:
        swapped = {**wit, "vertices": [u] + wit["vertices"][1:]}
        if _program_rejects(graph, swapped):
            yield f"witness vertex swapped for {u}", {**doc, "witness": swapped}
            break
    if wit["kind"] == "Fan":
        other = {**wit, "k": wit["k"] + 1}
    else:
        other = {**wit, "kind": SAME_SIZE[wit["kind"]]}
    yield f"kind {wit['kind']} changed", {**doc, "witness": other}


def main() -> int:
    failures: list[str] = []
    checked = 0

    for tag in [f"F{i}" for i in range(1, 8)]:
        member = mp.obstruction_graph(mp.ObstructionKind(tag))
        if not checks.isomorphic(checks.definition(tag), checks.adjacency(member.n, member.edges())):
            failures.append(f"definition of {tag} differs from the catalogue")
    for k in range(2, 7):
        f = mp.fan(k)
        doc = {"kind": "Fan", "k": k, "vertices": list(range(f.n))}
        if checks.check_witness(checks.adjacency(f.n, f.edges()), doc):
            failures.append(f"Fan({k}) rejected by the structural test")

    for workload in inputs.POOLS:
        for inst in inputs.pool(workload, 1, mp.random_chordal):
            graph = mp.Graph(inst.n, inst.edges)
            adj = checks.adjacency(inst.n, inst.edges)
            doc = json.loads(mp.solve_certifying(graph).to_json())
            problem = checks.check_certificate(adj, doc, inst.decision)
            if problem:
                failures.append(f"{workload}/{inst.label}: sound certificate rejected: {problem}")
            flipped = "no" if inst.decision == "yes" else "yes"
            if checks.check_certificate(adj, doc, flipped) is None:
                failures.append(f"{workload}/{inst.label}: wrong planted decision accepted")
            for what, bad in corruptions(graph, adj, doc):
                checked += 1
                if checks.check_certificate(adj, bad, inst.decision) is None:
                    failures.append(f"{workload}/{inst.label}: accepted with {what}")

    counts = dict(checks.A058862)
    if checks.check_corpus_counts(counts) is not None:
        failures.append("the A058862 counts themselves are rejected")
    counts[7] += 1
    if checks.check_corpus_counts(counts) is None:
        failures.append("a changed corpus count was accepted")

    for line in failures:
        print(f"FAIL {line}")
    print(f"{checked} corrupted certificates, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
