"""Command-line front end: run scenarios, named demos, and verification suites.

Exit codes are a stable contract: 0 success / no breach, 1 runtime failure,
2 usage or malformed input, 3 breach detected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .censorship import ScenarioError, run_protocol
from .demos import DEMOS
from .serialize import report_json_str, report_pretty, scenario_from_json
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_BREACH = 3

SEED_ENV = "QCENSOR_SEED"


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcensor",
        description="Censorship of quantum resources in networks: scenarios, demos, suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and report the outcome")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None, help="write the report to this path")
    run_p.add_argument("--format", choices=("json", "pretty"), default="json")

    demo_p = sub.add_parser("demo", help="run one of the named demonstrations")
    demo_p.add_argument("name", help=f"one of: {', '.join(sorted(DEMOS))}")
    demo_p.add_argument("--out", default=None)
    demo_p.add_argument("--format", choices=("json", "pretty"), default="pretty")

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("--suite", required=True, help=f"one of: {', '.join(sorted(SUITES))}")
    verify_p.add_argument("--samples", type=_int_at_least(1), default=200)
    verify_p.add_argument("--seed", type=_int_at_least(0), default=7)
    verify_p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.scenario)
    if not path.is_file():
        sys.stderr.write(f"scenario file not found: {path}\n")
        return EXIT_USAGE
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError, bad UTF-8, over-long integers
        sys.stderr.write(f"could not parse scenario: {exc}\n")
        return EXIT_USAGE
    scenario = scenario_from_json(raw)
    override = _env_seed()
    if override is not None:
        scenario = dataclasses.replace(scenario, seed=override)
    report = run_protocol(scenario)
    if args.format == "json":
        _emit(report_json_str(report, scenario.seed), args.out)
    else:
        _emit(report_pretty(report, scenario.seed), args.out)
    return EXIT_BREACH if report.breach else EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    if args.name not in DEMOS:
        sys.stderr.write(
            f"unknown demo {args.name!r}; available demos: {', '.join(sorted(DEMOS))}\n"
        )
        return EXIT_USAGE
    report = DEMOS[args.name]()
    if args.format == "json":
        _emit(report_json_str(report), args.out)
    else:
        _emit(report_pretty(report), args.out)
    return EXIT_BREACH if report.breach else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; available suites: {', '.join(sorted(SUITES))}\n"
        )
        return EXIT_USAGE
    result = run_suite(args.suite, samples=args.samples, seed=args.seed)
    if args.format == "json":
        sys.stdout.write(json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n")
    else:
        status = "PASS" if result.passed else "FAIL"
        sys.stdout.write(
            f"suite {result.suite}: {status} (samples={result.samples}, seed={result.seed})\n"
        )
        for key in sorted(result.max_defects):
            sys.stdout.write(f"  {key}: max observed {result.max_defects[key]:.3e}\n")
        for failure in result.failures:
            sys.stdout.write(f"  violation: {failure}\n")
    return EXIT_OK if result.passed else EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "demo":
            return cmd_demo(args)
        if args.command == "verify":
            return cmd_verify(args)
    except ScenarioError as exc:
        sys.stderr.write(f"invalid scenario: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
