#!/usr/bin/env python3
"""Benchmark of the mpartition certifying pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of
the checkout the script sits in, and driven in-process from one thread
as a closed loop: each verdict starts after the previous one is done.
A *verdict* is one input decided, with its certificate produced and
serialised.  Verdicts are timed on the process CPU clock and scaled to a
nominal machine speed measured by a reference loop between them (README.md,
"Machine speed"); garbage is collected between verdicts, outside the timed
region, and every output is checked by ``checks.py`` after its timer
stops.  Each run attempts whole rounds of its workload's input pool until
``--seconds`` have passed and at least 100 verdicts are timed.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run, which also writes its spans to
``bench/out/spans-<workload>-<seed>.jsonl``.  ``BENCHMARK.json`` names the
metrics and their units; README.md says what each one means.

``run.py --startup`` prints the CPU time of its own interpreter start-up
and exits; a run starts four such processes, one at a time, to time
start-up for ``setup_s``.
"""

from __future__ import annotations

import time

#: CPU time of interpreter start-up, read before the benchmark's own imports.
STARTUP_CPU = time.process_time()

import sys  # noqa: E402

if __name__ == "__main__" and sys.argv[1:] == ["--startup"]:
    print(STARTUP_CPU)  # one start-up sample for startup_samples()
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Interpreter start-ups per run, this one included, and set-ups per run;
#: setup_s is the median of the one plus the median of the other.
STARTUP_REPS = 5
SETUP_REPS = 5
#: Fewest timed verdicts per run, so that ten lie beyond the 90th percentile.
MIN_VERDICTS = 100

#: Iterations of the speed reference loop, a few milliseconds of CPU.
REFERENCE_ROUNDS = 5000
#: CPU milliseconds the reference loop takes at nominal machine speed.
#: Every reported time is scaled by REFERENCE_MS over the loop's time
#: measured next to it (README.md, "Machine speed").
REFERENCE_MS = 3.0
#: Seconds of verdict CPU time between two speed samples.
SAMPLE_EVERY = 0.05

BRANCHES = ("empty", "one", "two", "three")

#: Certificate documents that ``mpartition verify`` must reject with a
#: reason and a non-zero exit code; checked against a fixed Fan(2) graph.
MALFORMED = (
    "[1,2]",
    "null",
    '{"decision":"no","parts":null,"witness":{"kind":"F1","vertices":[[0],1,2,3,4]}}',
    '{"decision":"no","parts":null,"witness":{"kind":"F1","vertices":["0",1,2,3,4]}}',
    '{"decision":"no","parts":null,"witness":{"kind":"Fan","k":"3","vertices":[0,1,2,3,4,5,6]}}',
    '{"decision":"yes","parts":[1,2,3],"witness":null}',
)
MALFORMED_GRAPH = "FhCJo"

clock = time.process_time


def direct(_name, fn, *args):
    return fn(*args)


class Tracer:
    """In-memory spans around the benchmark's calls into the program:
    (name, start, end, parent span, verdict id), on the CPU clock."""

    def __init__(self) -> None:
        self.spans: list = []
        self.parent: int | None = None
        self.verdict: int | None = None
        self.counts: Counter = Counter()
        self.fan_k_max = 0

    def call(self, name, fn, *args):
        parent = self.parent
        sid = len(self.spans)
        self.spans.append(None)
        self.parent = sid
        start = clock()
        try:
            return fn(*args)
        finally:
            end = clock()
            self.parent = parent
            self.spans[sid] = (name, start, end, parent, self.verdict)

    def busy(self, in_verdicts: bool) -> dict[str, float]:
        """Summed seconds per span name, over set-up or over verdicts."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, verdict in self.spans:
            if (verdict is not None) == in_verdicts:
                out[name] += end - start
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_program():
    """Import mpartition afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m.split(".")[0] == "mpartition"]:
        del sys.modules[name]
    mp = importlib.import_module("mpartition")
    cli = importlib.import_module("mpartition.cli")
    if Path(mp.__file__).resolve().parent != SRC / "mpartition":
        raise ImportError(f"mpartition imported from {mp.__file__}, not {SRC}")
    return mp, cli


class Item:
    """One input of a workload round and what its checks need."""

    def __init__(self, label: str, graph, planted: str | None, edges) -> None:
        self.label = label
        self.graph = graph
        self.planted = planted
        self.edges = edges
        self.adj: checks.Adjacency = []
        self.text = ""
        self.path = ""


def count_witness(tracer: Tracer, doc: dict) -> None:
    if doc["decision"] == "no":
        kind = doc["witness"]["kind"]
        tracer.counts[f"solver.witness.{kind}"] += 1
        if kind == "Fan":
            tracer.fan_k_max = max(tracer.fan_k_max, doc["witness"]["k"])


def count_branch(mp, g, tracer: Tracer) -> None:
    """Tell the solver branch a graph takes from outside the solver."""
    bipartite = tracer.call("graph.is_bipartite", mp.is_bipartite, g)
    comps = tracer.call("graph.components", mp.components, g)
    bset = tracer.call("solver.bipartizer_set", mp.bipartizer_set, g)
    if bipartite:
        branch = "bipartite"
    elif len(comps) > 1:
        branch = "components"
    else:
        branch = BRANCHES[len(bset)]
    tracer.counts[f"solver.branch.{branch}"] += 1


def trace_certificate(mp, g, cert, tracer: Tracer) -> None:
    tracer.call("chordal.is_chordal", mp.is_chordal, g)
    tracer.call(
        f"solver.verify_certificate.{cert.decision}", mp.verify_certificate, g, cert
    )
    count_branch(mp, g, tracer)


class Workload:
    """A round of inputs (``items``), the timed ``verdict`` on one of them,
    its ``check``, and the layer calls of a traced run (``trace``)."""

    side_ops: tuple[str, ...] = ()

    def prepare(self, item: Item) -> None:
        """Build what the checks need, outside set-up and verdict timing."""
        edges = item.graph.edges() if item.edges is None else item.edges
        item.adj = checks.adjacency(item.graph.n, edges)

    def setup_problem(self) -> str | None:
        return None

    def close(self) -> None:
        pass


def generate(name: str, mp, seed: int, call) -> list[Item]:
    """One round of planted inputs, built with the program's generator."""

    def random_chordal(n, bias, s):
        return call("chordal.random_chordal", mp.random_chordal, n, bias, s)

    return [
        Item(inst.label, mp.Graph(inst.n, inst.edges), inst.decision, inst.edges)
        for inst in inputs.pool(name, seed, random_chordal)
    ]


class Certify(Workload):
    """certify_yes and certify_no: solve_certifying + to_json on a Graph."""

    def __init__(self, name: str, mp, cli, seed: int, call) -> None:
        self.mp = mp
        self.items = generate(name, mp, seed, call)

    def verdict(self, item: Item, call):
        cert = call("solver.solve_certifying", self.mp.solve_certifying, item.graph)
        return cert, call("solver.to_json", cert.to_json)

    def check(self, item: Item, out) -> str | None:
        return checks.check_certificate(item.adj, json.loads(out[1]), item.planted)

    def trace(self, item: Item, out, tracer: Tracer) -> None:
        trace_certificate(self.mp, item.graph, out[0], tracer)
        count_witness(tracer, json.loads(out[1]))


class CliCheckVerify(Workload):
    """``mpartition check`` on a graph6 file, then ``mpartition verify`` on
    the certificate it printed, both through ``cli.main`` in-process."""

    side_ops = MALFORMED

    def __init__(self, name: str, mp, cli, seed: int, call) -> None:
        self.mp = mp
        self.cli = cli
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.items = generate(name, mp, seed, call)
        for i, item in enumerate(self.items):
            item.text = call("graph.to_graph6", mp.to_graph6, item.graph)
            item.path = str(self.workdir / f"{i}.g6")
            Path(item.path).write_text(item.text + "\n", encoding="ascii")
        self.malformed_path = str(self.workdir / "malformed.g6")
        Path(self.malformed_path).write_text(MALFORMED_GRAPH + "\n", encoding="ascii")

    def _main(self, call, name: str, argv: list[str], stdin: str):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(name, self.cli.main, argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def verdict(self, item: Item, call):
        code, cert, _ = self._main(call, "cli.check", ["check", item.path], "")
        vcode, report, _ = self._main(call, "cli.verify", ["verify", item.path, "-"], cert)
        return code, cert, vcode, report

    def check(self, item: Item, out) -> str | None:
        code, cert, vcode, report = out
        doc = json.loads(cert)
        problem = checks.check_certificate(item.adj, doc, item.planted)
        if problem:
            return problem
        if code != (0 if doc["decision"] == "yes" else 1):
            return f"check exited {code} on a {doc['decision']} decision"
        if vcode != 0 or json.loads(report) != {"valid": True, "reason": None}:
            return f"verify rejected the certificate: exit {vcode}, {report.strip()}"
        return None

    def side_op(self, doc: str) -> str | None:
        """Send a malformed certificate to verify; None if it was rejected
        cleanly with a reason and a non-zero exit code."""
        try:
            code, report, err = self._main(
                direct, "", ["verify", self.malformed_path, "-"], doc
            )
        except Exception as exc:  # a crash is what this operation detects
            return f"verify raised {type(exc).__name__}"
        if code == 0 or not (err.strip() or '"reason"' in report):
            return f"verify exited {code} without a reason"
        return None

    def trace(self, item: Item, out, tracer: Tracer) -> None:
        tracer.counts["graph.from_graph6.bytes"] += len(item.text)
        g = tracer.call("graph.from_graph6", self.mp.from_graph6, item.text)
        cert = tracer.call("solver.solve_certifying", self.mp.solve_certifying, g)
        tracer.call("solver.to_json", cert.to_json)
        trace_certificate(self.mp, g, cert, tracer)
        count_witness(tracer, json.loads(out[1]))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Corpus8(Workload):
    """All connected chordal graphs on at most 8 vertices; each verdict is
    one agreement check of the certifying solver, the exhaustive oracle
    and the catalogue scan."""

    def __init__(self, name: str, mp, cli, seed: int, call) -> None:
        self.mp = mp
        graphs = call(
            "chordal.enumerate_connected_chordal",
            lambda: list(mp.enumerate_connected_chordal(8)),
        )
        self.keys = [call("graph.to_graph6", mp.to_graph6, g) for g in graphs]
        self.items = [Item(key, g, None, None) for key, g in zip(self.keys, graphs)]
        random.Random(f"{name}/{seed}").shuffle(self.items)

    def setup_problem(self) -> str | None:
        if len(set(self.keys)) != len(self.keys):
            return "enumeration emitted one canonical form twice"
        return checks.check_corpus_counts(dict(Counter(it.graph.n for it in self.items)))

    def verdict(self, item: Item, call):
        mp, g = self.mp, item.graph
        cert = call("solver.solve_certifying", mp.solve_certifying, g)
        text = call("solver.to_json", cert.to_json)
        oracle = call("patterns.solve", mp.solve, g, mp.M1)
        scan = call("catalogue.find_obstruction_by_scan", mp.find_obstruction_by_scan, g)
        return cert, text, oracle, scan

    def check(self, item: Item, out) -> str | None:
        _, text, oracle, scan = out
        doc = json.loads(text)
        problem = checks.check_certificate(item.adj, doc, None)
        if problem:
            return problem
        if (doc["decision"] == "yes") != (oracle is not None) or (oracle is None) != (
            scan is not None
        ):
            return f"solver {doc['decision']}, oracle {oracle}, scan {scan}"
        if oracle is not None:
            return checks.check_partition(item.adj, checks.parts_of(oracle))
        kind, vertices = scan
        witness = {"kind": kind.tag, "vertices": sorted(vertices)}
        if kind.k is not None:
            witness["k"] = kind.k
        return checks.check_witness(item.adj, witness)

    def trace(self, item: Item, out, tracer: Tracer) -> None:
        trace_certificate(self.mp, item.graph, out[0], tracer)
        count_witness(tracer, json.loads(out[1]))


WORKLOADS = {
    "certify_yes": Certify,
    "certify_no": Certify,
    "cli_check_verify": CliCheckVerify,
    "corpus8": Corpus8,
}


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with the program but
    mixes the operations its hot loops use: indexing, tuple building,
    bitset shifts, set and dict updates."""
    labels = [[i & 15] for i in range(64)]
    seen = set()
    table = {}
    mask = 0
    for i in range(REFERENCE_ROUNDS):
        key = (labels[i & 63], -i)
        mask ^= 1 << (i % 480)
        if mask >> (i % 97) & 1:
            seen.add(i & 511)
        table[i & 255] = key
    return len(seen) + len(table) + max(table.values())[0][0] + (mask & 1)


def speed_sample() -> float:
    """CPU seconds the reference loop takes now."""
    start = clock()
    reference_loop()
    return clock() - start


def steady_speed_sample() -> float:
    """Median of nine speed samples, for start-up and set-up, which are
    timed a few times per run rather than over many verdicts."""
    return statistics.median(speed_sample() for _ in range(9))


def to_nominal(cpu: float, before: float, after: float) -> float:
    """Scale CPU seconds to nominal machine speed, using the reference
    loop timed just before and just after them."""
    return cpu * REFERENCE_MS / 1e3 * 2 / (before + after)


def set_up(name: str, seed: int, tracer: Tracer | None):
    """Import the program and build the inputs SETUP_REPS times; only the
    last set-up is traced and kept.  Returns it and the nominal time of
    each set-up."""
    samples = []
    wl = None
    for rep in range(SETUP_REPS):
        if wl is not None:
            wl.close()
            wl = None  # one input pool alive at a time, for peak_rss_mb
        call = tracer.call if tracer is not None and rep == SETUP_REPS - 1 else direct
        gc.collect()
        before = steady_speed_sample()
        start = clock()
        mp, cli = load_program()
        wl = WORKLOADS[name](name, mp, cli, seed, call)
        cpu = clock() - start
        samples.append(to_nominal(cpu, before, steady_speed_sample()))
    return wl, samples


def startup_samples(first_speed: float) -> list[float]:
    """Nominal CPU time of this interpreter's start-up and of fresh ones
    started the same way (``run.py --startup``), one at a time."""
    samples = [to_nominal(STARTUP_CPU, first_speed, first_speed)]
    for _ in range(STARTUP_REPS - 1):
        before = steady_speed_sample()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--startup"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(to_nominal(float(child.stdout), before, steady_speed_sample()))
    return samples


class Measurement:
    """Outcome of the timed loop.  ``times`` holds each verdict's CPU time
    scaled to nominal speed, ``cpu`` the unscaled figures, both by label."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.speed: list[float] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.rounds = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def flat(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]


def measure(wl: Workload, seconds: float, tracer: Tracer | None) -> Measurement:
    """Closed loop over whole rounds of the pool.  The machine's speed is
    sampled with the reference loop after every SAMPLE_EVERY seconds of
    verdicts; each verdict is scaled by the samples on either side of it."""
    call = tracer.call if tracer is not None else direct
    m = Measurement()
    timed: list[tuple[str, float, int]] = []
    since = 0.0
    gc.collect()
    gc.freeze()
    gc.disable()
    m.speed.append(speed_sample())
    started = time.perf_counter()
    while m.rounds == 0 or time.perf_counter() - started < seconds or len(timed) < MIN_VERDICTS:
        timed_before = len(timed)
        for item in wl.items:
            m.attempted += 1
            gc.collect()
            start = clock()
            try:
                if tracer is not None:
                    tracer.verdict = m.attempted
                    out = tracer.call("verdict", wl.verdict, item, call)
                else:
                    out = wl.verdict(item, call)
            except Exception as exc:  # failed, and wrong: no verdict may raise
                problem = f"{item.label}: {type(exc).__name__}: {exc}"
                m.failures[problem] += 1
                m.wrong.append(f"raised {problem}")
                continue
            cpu = clock() - start
            timed.append((item.label, cpu, len(m.speed) - 1))
            try:
                problem = wl.check(item, out)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem is not None:
                m.wrong.append(f"{item.label}: {problem}")
            if tracer is not None:
                wl.trace(item, out, tracer)
            since += cpu
            if since >= SAMPLE_EVERY:
                m.speed.append(speed_sample())
                since = 0.0
        for doc in wl.side_ops:
            m.attempted += 1
            problem = wl.side_op(doc)
            if problem is not None:
                m.failures[f"malformed {doc}: {problem}"] += 1
        m.rounds += 1
        if len(timed) == timed_before:
            break  # every verdict raised; more rounds would time nothing
    m.speed.append(speed_sample())
    gc.enable()
    gc.unfreeze()
    for label, cpu, i in timed:
        m.cpu[label].append(cpu)
        m.times[label].append(to_nominal(cpu, m.speed[i], m.speed[i + 1]))
    return m


def _median_nominal(fn, *args, reps: int) -> float:
    """Median nominal time of ``reps`` calls, each scaled by speed samples
    taken just before and after it."""
    samples = []
    for _ in range(reps):
        gc.collect()
        before = speed_sample()
        start = clock()
        fn(*args)
        cpu = clock() - start
        samples.append(to_nominal(cpu, before, speed_sample()))
    return statistics.median(samples)


def scaling(mp, seed: int) -> dict[str, float]:
    """Log-log slopes between a workload's input size and four times it,
    built with the same generator."""

    def instance(builder, n):
        rng = random.Random(f"scaling/{seed}/{builder.__name__}/{n}")
        inst = inputs.build_one(builder, n, rng, mp.random_chordal)
        return mp.Graph(inst.n, inst.edges)

    def slope(small: float, large: float) -> float:
        return math.log(large / small) / math.log(4)

    def case_analysis(g):
        (hub,) = mp.bipartizer_set(g)
        return mp.solve_one_bipartizer(g, hub)

    out: dict[str, list[float]] = defaultdict(list)
    for n in (inputs.N_CERTIFY, 4 * inputs.N_CERTIFY):
        g = instance(inputs.yes_hub, n)
        cert = mp.solve_certifying(g)
        out["chordal.is_chordal.exp"].append(_median_nominal(mp.is_chordal, g, reps=3))
        out["solver.verify_certificate.yes_exp"].append(
            _median_nominal(mp.verify_certificate, g, cert, reps=3)
        )
        out["solver.case_analysis.exp"].append(_median_nominal(case_analysis, g, reps=3))
    for n, reps in ((inputs.N_CLI, 3), (4 * inputs.N_CLI, 1)):
        g = instance(inputs.yes_tree, n)
        text = mp.to_graph6(g)
        out["graph.to_graph6.exp"].append(_median_nominal(mp.to_graph6, g, reps=reps))
        out["graph.from_graph6.exp"].append(_median_nominal(mp.from_graph6, text, reps=reps))
    k_large = inputs.FAN_K_CERTIFY
    for k, reps in ((k_large // 4, 3), (k_large, 1)):
        g = instance(inputs.no_fan(k), inputs.N_CERTIFY)
        cert = mp.solve_certifying(g)
        out["solver.verify_certificate.fan_exp"].append(
            _median_nominal(mp.verify_certificate, g, cert, reps=reps)
        )
    return {name: slope(*pair) for name, pair in out.items()}


def per_layer(tracer: Tracer, m: Measurement, exps: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics: verdict-phase busy time and counts per round,
    set-up busy time of one set-up, and the scaling slopes.  Busy times
    are scaled to nominal speed by the run's median speed sample."""
    rounds = m.rounds
    per_round = {k: v / rounds for k, v in tracer.busy(in_verdicts=True).items()}
    setup = tracer.busy(in_verdicts=False)
    ms = REFERENCE_MS / statistics.median(m.speed)

    def busy(name: str) -> float:
        return per_round.get(name, 0.0) * ms

    metrics = {
        name + ".busy_ms": busy(name)
        for name in (
            "chordal.is_chordal",
            "solver.bipartizer_set",
            "solver.to_json",
            "solver.solve_certifying",
            "graph.from_graph6",
            "cli.check",
            "cli.verify",
            "catalogue.find_obstruction_by_scan",
            "patterns.solve",
        )
    }
    verify_yes = busy("solver.verify_certificate.yes")
    verify_no = busy("solver.verify_certificate.no")
    metrics["solver.verify_certificate.yes_busy_ms"] = verify_yes
    metrics["solver.verify_certificate.no_busy_ms"] = verify_no
    metrics["solver.case_analysis.busy_ms"] = (
        busy("solver.solve_certifying") - busy("chordal.is_chordal") - verify_yes - verify_no
    )
    metrics["cli.check.self_ms"] = (
        busy("cli.check")
        - busy("graph.from_graph6")
        - busy("solver.solve_certifying")
        - busy("solver.to_json")
        if "cli.check" in per_round
        else 0.0
    )
    for name in (
        "graph.to_graph6",
        "chordal.enumerate_connected_chordal",
        "chordal.random_chordal",
    ):
        metrics[name + ".busy_ms"] = setup.get(name, 0.0) * ms
    names = [f"solver.branch.{b}" for b in ("bipartite", "components") + BRANCHES]
    names += [f"solver.witness.F{i}" for i in range(1, 8)]
    names += ["solver.witness.Fan", "graph.from_graph6.bytes"]
    for name in names:
        total = tracer.counts.get(name, 0)
        if total % rounds:
            raise AssertionError(f"{name}: {total} is not a whole number of rounds")
        metrics[name] = total // rounds
    metrics["solver.witness.fan_k_max"] = tracer.fan_k_max
    metrics.update(exps)
    return metrics


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    flat = m.flat()
    return {
        "setup_s": setup_s,
        "verdicts_per_s": len(flat) / sum(flat),
        "verdict_p50_ms": statistics.median(flat) * 1e3,
        "verdict_p90_ms": statistics.quantiles(flat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(args, m: Measurement, wrong: list[str]) -> None:
    """Human-readable summary on stderr."""
    flat = m.flat()
    cpu = [t for ts in m.cpu.values() for t in ts]
    speed = sorted(m.speed)
    print(
        f"{args.workload} seed {args.seed}{' (traced)' if args.trace else ''}: "
        f"{m.rounds} rounds, {len(flat)} verdicts, {len(flat) / sum(flat):.3f} "
        f"verdicts/s at nominal speed, {len(cpu) / sum(cpu):.3f} on the CPU clock",
        file=sys.stderr,
    )
    print(
        f"  speed reference: median {statistics.median(speed) * 1e3:.3f} ms, "
        f"range {speed[0] * 1e3:.3f}..{speed[-1] * 1e3:.3f} ms over "
        f"{len(speed)} samples (nominal {REFERENCE_MS} ms)",
        file=sys.stderr,
    )
    for label, ts in list(m.times.items())[:30]:
        print(
            f"  {label}: median {statistics.median(ts) * 1e3:.2f} ms nominal, "
            f"{statistics.median(m.cpu[label]) * 1e3:.2f} ms CPU",
            file=sys.stderr,
        )
    for problem, count in m.failures.items():
        print(f"  failed x{count}: {problem}", file=sys.stderr)
    for problem in wrong[:20]:
        print(f"  WRONG: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else None
    first_speed = steady_speed_sample()
    try:
        wl, setups = set_up(args.workload, args.seed, tracer)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    startups = startup_samples(first_speed)
    try:
        wrong = [p for p in [wl.setup_problem()] if p]
        for item in wl.items:
            wl.prepare(item)
        m = measure(wl, args.seconds, tracer)
        wrong += m.wrong
        if not m.flat():
            for problem in wrong[:20]:
                print(f"  WRONG: {problem}", file=sys.stderr)
            print("error: no verdict completed", file=sys.stderr)
            return 1
        if tracer is not None:
            values = per_layer(tracer, m, scaling(wl.mp, args.seed))
            specs = spec["per_layer"]
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            values = end_to_end(m, statistics.median(startups) + statistics.median(setups))
            specs = spec["end_to_end"]
    finally:
        wl.close()
    report(args, m, wrong)
    print(
        "  start-up: "
        + ", ".join(f"{t * 1e3:.1f}" for t in startups)
        + " ms; set-up: "
        + ", ".join(f"{t * 1e3:.1f}" for t in setups)
        + " ms at nominal speed",
        file=sys.stderr,
    )
    result = {
        "correct": not wrong,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
