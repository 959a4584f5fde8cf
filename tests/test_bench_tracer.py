"""The benchmark's span tracer still finds the channel, eigendecomposition,
description, discord and receiver-judge layers it reports.

``bench/spans.py`` wraps qcensor's functions and methods by name and counts
Kraus operators on every ``KrausChannel`` it sees; a refactor that renames or
moves one of them, or calls it by another name, would leave
``bench/run.py --trace 1`` reporting zeros.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import qcensor.cli
from qcensor.cli import EXIT_BREACH, EXIT_OK

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("qcensor_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_totals(argv: list[str], capsys) -> tuple[int, dict]:
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        code = qcensor.cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return code, tracer.totals()


def test_tracer_sees_the_channel_layers(capsys):
    code, totals = _traced_totals(
        ["verify", "--suite", "channel_axioms", "--samples", "5", "--seed", "1"], capsys
    )
    assert code == EXIT_OK
    for metric in (
        "channels.KrausChannel.calls",
        "channels.KrausChannel.apply_matrix.calls",
        "channels.KrausChannel.kraus_ops",
        "channels.replacement_channel.calls",
        "linalg.hermitian_eig.calls",
        "censorship.encode_description.calls",
    ):
        assert totals.get(metric, 0) > 0, metric


def test_tracer_sees_the_replacement_branches(capsys):
    # every registered label's branch is built by replacement_channel; the I/d
    # default may come from the process-wide cache
    code, totals = _traced_totals(["demo", "bell_filter"], capsys)
    assert code == EXIT_OK
    assert totals.get("channels.replacement_channel.calls", 0) >= 2


def test_tracer_sees_the_discord_layer(capsys):
    code, totals = _traced_totals(["demo", "discord_breach"], capsys)
    assert code == EXIT_BREACH
    # the mixture's marginal and the two components' extras
    assert totals.get("qrt.discord.calls", 0) == 3


def test_tracer_sees_the_receiver_judges(capsys):
    code, totals = _traced_totals(["demo", "nonlocal_activation"], capsys)
    assert code == EXIT_OK
    for metric in ("qrt.ppt_all_cuts.calls", "qrt.chsh_parameter.calls"):
        assert totals.get(metric, 0) > 0, metric
