"""The benchmark's span tracer still finds the channel layers it reports.

``bench/spans.py`` wraps qcensor's functions and methods by name and counts
Kraus operators on every ``KrausChannel`` it sees; a refactor that renames or
moves one of them would leave ``bench/run.py --trace 1`` reporting zeros.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import qcensor.cli
from qcensor.cli import EXIT_OK

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("qcensor_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_channel_layers(capsys):
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        code = qcensor.cli.main(
            ["verify", "--suite", "channel_axioms", "--samples", "5", "--seed", "1"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    totals = tracer.totals()
    assert code == EXIT_OK
    for metric in (
        "channels.KrausChannel.calls",
        "channels.KrausChannel.apply_matrix.calls",
        "channels.KrausChannel.kraus_ops",
        "channels.replacement_channel.calls",
    ):
        assert totals.get(metric, 0) > 0, metric
