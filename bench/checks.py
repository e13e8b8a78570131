"""Output checks that share no code with the program's own verifiers.

Certificates are checked from their JSON text against the edge list the
benchmark generated, never through ``verify_assignment``,
``verify_certificate`` or ``is_isomorphic``:

* a yes-partition covers every vertex once, has no edge inside a part, and
  joins parts 1 and 2 completely;
* a witness induces the claimed graph, built here from the paper's
  description of F1..F7 and compared by a small backtracking isomorphism
  test, or, for Fan(k), checked structurally;
* the decision matches the answer the generator planted.

Every function returns ``None`` when the output is right and a reason
otherwise.
"""

from __future__ import annotations

from itertools import combinations

Adjacency = list[set[int]]

#: Connected chordal graphs per vertex count 1..8 (OEIS A058862).
A058862 = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 58, 7: 272, 8: 1614}


def adjacency(n: int, edges) -> Adjacency:
    adj: Adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _triangle_with(*extra: tuple[int, int]) -> list[tuple[int, int]]:
    return [(0, 1), (0, 2), (1, 2), *extra]


def definition(tag: str) -> Adjacency:
    """The minimal obstruction ``tag`` (F1..F7) from its description."""
    if tag == "F1":  # triangle plus an edge that sees none of it
        return adjacency(5, _triangle_with((3, 4)))
    if tag == "F2":  # the net: a pendant on every triangle corner
        return adjacency(6, _triangle_with((0, 3), (1, 4), (2, 5)))
    if tag == "F3":  # paths of length two on two triangle corners
        return adjacency(7, _triangle_with((1, 3), (3, 4), (2, 5), (5, 6)))
    if tag == "F4":  # apex over the path a-b-c-d, pendants on b and c
        path = [(1, 2), (2, 3), (3, 4)]
        apex = [(0, v) for v in (1, 2, 3, 4)]
        return adjacency(7, path + apex + [(2, 5), (3, 6)])
    if tag == "F5":  # 3-sun: inner triangle, one outer vertex per inner edge
        return adjacency(6, _triangle_with((3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)))
    if tag == "F6":  # triangles 012, 345 with matching 03, 14 and diagonal 04
        return adjacency(6, _triangle_with((3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (0, 4)))
    if tag == "F7":  # complete graph on four vertices
        return adjacency(4, list(combinations(range(4), 2)))
    raise KeyError(tag)


def isomorphic(a: Adjacency, b: Adjacency) -> bool:
    """Backtracking induced isomorphism test for graphs of a few vertices."""
    n = len(a)
    if n != len(b) or sorted(map(len, a)) != sorted(map(len, b)):
        return False
    image: list[int] = []

    def extend(used: frozenset[int]) -> bool:
        x = len(image)
        if x == n:
            return True
        for y in range(n):
            if y in used or len(b[y]) != len(a[x]):
                continue
            if all((z in a[x]) == (image[z] in b[y]) for z in range(x)):
                image.append(y)
                if extend(used | {y}):
                    return True
                image.pop()
        return False

    return extend(frozenset())


def _induced(adj: Adjacency, vertices: list[int]) -> Adjacency:
    index = {v: i for i, v in enumerate(vertices)}
    return [{index[u] for u in adj[v] if u in index} for v in vertices]


def _is_fan(sub: Adjacency, k: int) -> bool:
    """Path w0..w(2k+1) plus an apex seeing exactly w1..w(2k)."""
    n = len(sub)
    if k < 2 or n != 2 * k + 3 or sum(map(len, sub)) != 2 * (4 * k + 1):
        return False
    apexes = [v for v in range(n) if len(sub[v]) == 2 * k]
    if len(apexes) != 1:
        return False
    apex = apexes[0]
    rest = [sub[v] - {apex} for v in range(n)]
    ends = [v for v in range(n) if v != apex and len(rest[v]) == 1]
    if len(ends) != 2 or any(v in sub[apex] for v in ends):
        return False
    prev, cur, seen = -1, ends[0], 1
    while cur != ends[1]:
        nxt = [u for u in rest[cur] if u != prev]
        if len(nxt) != 1 or len(rest[cur]) > 2:
            return False
        prev, cur, seen = cur, nxt[0], seen + 1
    return seen == n - 1


def check_witness(adj: Adjacency, witness) -> str | None:
    if not isinstance(witness, dict):
        return "no-certificate without a witness object"
    vertices = witness.get("vertices")
    if not isinstance(vertices, list) or not all(
        isinstance(v, int) and 0 <= v < len(adj) for v in vertices
    ):
        return f"bad witness vertex list {vertices!r}"
    if len(set(vertices)) != len(vertices):
        return "witness repeats a vertex"
    sub = _induced(adj, vertices)
    kind = witness.get("kind")
    if kind == "Fan":
        k = witness.get("k")
        if not isinstance(k, int) or not _is_fan(sub, k):
            return f"witness does not induce Fan({k})"
        return None
    try:
        claimed = definition(kind)
    except KeyError:
        return f"witness kind {kind!r} is not one of F1..F7 or Fan"
    if "k" in witness or not isomorphic(sub, claimed):
        return f"witness does not induce {kind}"
    return None


def check_partition(adj: Adjacency, parts) -> str | None:
    n = len(adj)
    if not isinstance(parts, list) or len(parts) != 3:
        return "a yes-certificate needs three parts"
    part = [-1] * n
    for i, members in enumerate(parts):
        for v in members:
            if not isinstance(v, int) or not 0 <= v < n or part[v] != -1:
                return f"vertex {v!r} is out of range or in two parts"
            part[v] = i
    if -1 in part:
        return f"vertex {part.index(-1)} is in no part"
    joined = 0
    for u in range(n):
        for v in adj[u]:
            if part[u] == part[v]:
                return f"edge {u}-{v} lies inside part {part[u]}"
            joined += {part[u], part[v]} == {1, 2}
    if joined // 2 != len(parts[1]) * len(parts[2]):
        return "parts 1 and 2 are not completely joined"
    return None


def check_certificate(adj: Adjacency, doc, planted: str | None) -> str | None:
    """Check one certificate document; ``planted`` is the generator's
    answer, or None when there is none to compare with."""
    if not isinstance(doc, dict) or doc.get("decision") not in ("yes", "no"):
        return f"not a certificate: {doc!r:.80}"
    if planted is not None and doc["decision"] != planted:
        return f"decision {doc['decision']} but the generator planted {planted}"
    if doc["decision"] == "yes":
        if doc.get("witness") is not None:
            return "yes-certificate carries a witness"
        return check_partition(adj, doc.get("parts"))
    if doc.get("parts") is not None:
        return "no-certificate carries parts"
    return check_witness(adj, doc.get("witness"))


def parts_of(assignment) -> list[list[int]]:
    """Per-vertex part indices as the three-list form used in JSON; a
    vertex with an index outside 0..2 lands in no part."""
    return [[v for v, p in enumerate(assignment) if p == i] for i in range(3)]


def check_corpus_counts(counts: dict[int, int]) -> str | None:
    if counts != A058862:
        return f"graphs per vertex count {counts} differ from A058862 {A058862}"
    return None
