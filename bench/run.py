#!/usr/bin/env python3
"""Run one benchmark workload against the qcensor sources of this checkout.

    python3 bench/run.py --workload network_scaling --seed 1 --seconds 30 --trace 0

The benchmark is a closed loop with one client: it calls ``qcensor.cli.main``
in-process with ``run``, ``demo`` or ``verify`` arguments, one item at a time,
and checks every output against ``oracles``. Items run in whole rounds of the
workload's deck until ``--seconds`` of item time have passed and the deck's
minimum round count is reached. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median of ``SETUPS`` cold set-ups. Each is the time from
the start of a fresh process running this script to the end of its warm-up:
importing qcensor, generating and writing the deck, and the warm-up items.
This process gives the first. Each of the others runs in a child process
started with ``--setup-only``, which prints its time and exits; they run
between rounds, spread evenly over the timed phase, so that the median is
taken over the same span of the machine's speed as the item times.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
rounds, per round, plus the tracing overhead per round; it also writes the
spans to ``.bench_out/``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the load comes from this one process, with no more
# threads than the two cores of the machine the figures were taken on.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 7
EXIT_USAGE = 2


def load_program():
    """Import ``qcensor.cli`` from this checkout's sources, and nothing else."""
    if not (SRC / "qcensor" / "cli.py").is_file():
        sys.stderr.write(f"bench: no qcensor sources under {SRC}\n")
        sys.exit(EXIT_USAGE)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qcensor.cli")
    if Path(cli.__file__).resolve().parent != SRC / "qcensor":
        sys.stderr.write(f"bench: imported qcensor from {cli.__file__}, not from {SRC}\n")
        sys.exit(EXIT_USAGE)
    return cli


sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def call(cli, item) -> tuple[float, int, str, str]:
    """Time one CLI call; returns seconds, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(item.argv))
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def judge(item, code: int, out: str, err: str) -> tuple[str, str] | None:
    """None when the item passed; else ("failed" | "wrong", why).

    Exit 1 or 2 where the item must succeed or report a breach is a failed
    operation; any other wrong exit code or output is a wrong result."""
    if code != item.exit_code:
        kind = "failed" if code in (1, 2) else "wrong"
        return kind, f"exit {code}, expected {item.exit_code}: {err.strip()[:300]}"
    try:
        item.check(out)
    except (oracles.CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}"
    return None


def set_up(workload: str, seed: int, k: int) -> tuple[object, list, list[str]]:
    """One set-up: import qcensor, generate and write the deck, and run the
    first item of each warm-up name once."""
    cli = load_program()
    items = workloads.build_items(workload, seed, OUT / f"{workload}-{seed}" / f"setup{k}")
    wrong = []
    for name in workloads.WORKLOADS[workload].warmup:
        item = next(it for it in items if it.name == name)
        verdict = judge(item, *call(cli, item)[1:])
        if verdict:
            wrong.append(f"warm-up {name}: {verdict[0]}: {verdict[1]}")
    return cli, items, wrong


def cold_set_up(k: int) -> tuple[float, list[str]]:
    """Set-up ``k`` in a fresh process; returns its time and wrong warm-ups."""
    argv = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:], "--setup-only", str(k)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["wrong"]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, metavar="K", help=argparse.SUPPRESS)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    cli, items, wrong = set_up(args.workload, args.seed, args.setup_only or 0)
    setups = [time.perf_counter() - START]
    if args.setup_only is not None:
        print(json.dumps({"setup_s": setups[0], "wrong": wrong}))
        return 0
    failures = []

    tracer = spans.Tracer() if args.trace else None
    order = random.Random(args.seed)
    latencies: list[float] = []
    round_seconds: dict[bool, list[float]] = {False: [], True: []}
    attempted = rounds = 0
    timed = 0.0
    while rounds < wl.min_rounds or timed < args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        deck = list(range(len(items)))
        order.shuffle(deck)
        this_round = 0.0
        for index in deck:
            item = items[index]
            if traced:
                tracer.item = index
            dt, code, out, err = call(cli, item)
            attempted += 1
            this_round += dt
            verdict = judge(item, code, out, err)
            if verdict is None:
                latencies.append(dt)
            elif verdict[0] == "failed":
                failures.append(f"{item.name}: {verdict[1]}")
            else:
                latencies.append(dt)
                wrong.append(f"{item.name}: {verdict[1]}")
        if traced:
            tracer.uninstall()
        round_seconds[traced].append(this_round)
        timed += this_round
        rounds += 1
        while len(setups) < SETUPS and timed >= len(setups) * args.seconds / SETUPS:
            seconds, found = cold_set_up(len(setups))
            setups.append(seconds)
            wrong += found

    for line in (wrong + failures)[:20]:
        sys.stderr.write(f"bench: {line}\n")

    if tracer is None:
        metrics = {
            "throughput_items_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (percentile(latencies, wl.tail_percentile) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        stem = f"{args.workload}-{args.seed}"
    else:
        n_traced = len(round_seconds[True])
        totals = tracer.totals()
        metrics = {}
        for name in spans.PER_LAYER:
            unit = "ms/round" if name.endswith("_ms") else "count/round"
            metrics[name] = (totals.get(name, 0.0) / n_traced, unit)
        overhead = statistics.mean(round_seconds[True]) - statistics.mean(round_seconds[False])
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms/round")
        stem = f"{args.workload}-{args.seed}-traced"
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{stem}.tsv")

    line = json.dumps(
        {
            "correct": not wrong,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(line + "\n")
    sys.stderr.write(
        f"bench: {args.workload} seed {args.seed}: {rounds} rounds, {attempted} items, "
        f"{timed:.1f} s timed, {time.perf_counter() - START:.1f} s wall, "
        f"set-ups {' '.join(f'{t:.3f}' for t in setups)} s\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
