#!/usr/bin/env python3
"""Steadiness check: run one workload k times and summarize every metric.

    python3 bench/steady.py --workload discord_verdicts --runs 10
    python3 bench/steady.py --workload discord_verdicts --runs 10 --sets 2

Each run uses its own seed, from 1 upwards; a second set continues after
the first. Every run reports the end-to-end metrics (``--trace 0``). For
every metric the command prints the median, the quartiles of
``statistics.quantiles(values, n=4)``, the spread (third minus first
quartile, as a share of the median) and the bound from ``BENCHMARK.json``. With ``--sets 2`` it also prints, per metric, how
much worse the second set's median is than the first's, against the bound,
and whether both sets failed the same share of their items. Runs go one
after another, each in its own process, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"run with seed {seed} reported wrong outputs:\n{proc.stderr[-2000:]}")
    return result


def summarize(results: list[dict], bounds: dict) -> dict[str, float]:
    medians = {}
    print(f"  {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]["bound"]
        flag = "ok" if spread <= bound / 3 else ("WIDE" if spread > bound else "near")
        print(
            f"  {name + ' [' + unit + ']':46s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
            f"{spread:8.3f} {bound:>6} {flag}"
        )
        medians[name] = med
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share per run: {sorted(shares)}")
    return medians


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    seed = 1
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            results.append(run_once(spec, args.workload, seed, spec["run_seconds"]))
            seed += 1
        print(f"set {s + 1}: {args.workload}, seeds {seed - args.runs}..{seed - 1}")
        sets.append((summarize(results, bounds), results))

    if len(sets) == 2:
        (first, r1), (second, r2) = sets
        print("second set against the first (positive = worse):")
        agree = True
        for name, med1 in first.items():
            metric = bounds[name]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (second[name] - med1) / med1
            ok = worse <= metric["bound"]
            agree = agree and ok
            print(f"  {name:46s} {worse:+8.3f} bound {metric['bound']} {'ok' if ok else 'WORSE'}")
        same = {r["failed"] / r["attempted"] for r in r1} == {r["failed"] / r["attempted"] for r in r2}
        print(f"  failed share equal in both sets: {same}")
        agree = agree and same
        print("sets agree" if agree else "sets DISAGREE")
        return 0 if agree else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
