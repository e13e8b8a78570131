#!/usr/bin/env python3
"""Steadiness mode: run each workload repeatedly, one seed per run, and
print each end-to-end metric's median, quartiles and spread.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--against FILE]

Runs ``bench/run.py --trace 0`` as a child process per run, one at a time,
from the repository root, on every workload of ``BENCHMARK.json`` for its
``run_seconds``.  The spread of a metric is the distance between
its first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of its median; the bounds in ``BENCHMARK.json`` are set from it.
The raw results go to ``bench/out/steady.json``.  With ``--against`` a
previous ``steady.json`` is compared median by median against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return result


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = json.loads(args.against.read_text()) if args.against else {}

    raw: dict[str, list[dict]] = {}
    for workload in names:
        raw[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            raw[workload].append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        results = raw[workload]
        shares = {(r["failed"], r["attempted"]) for r in results}
        ratios = {f / a for f, a in shares}
        print(f"\n{workload}: {len(results)} runs, failed/attempted "
              f"{'identical' if len(ratios) == 1 else 'DIFFERS'}: {sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}" + ("  vs before" if before else ""))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, spread = summarise(values)
            line = (f"  {name:16s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                    f"{spread:7.2%} {bound:6.2f}")
            if workload in before:
                old = [r["metrics"][name]["value"] for r in before[workload]]
                change = median / statistics.median(old) - 1
                line += f"  {change:+7.2%}"
            print(line)
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
