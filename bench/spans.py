"""Span tracer for the per-layer run.

It wraps the public functions and methods of ``qcensor`` named in ``LAYERS``
at every binding they are called through: the module attribute, every name
imported into another qcensor module, and the class attribute for methods.
Each call records a span (name, start, end, parent span, item) in memory;
``write`` saves them when the run ends. A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path) of every traced layer, named "<module>.<attr path>"
LAYERS = (
    ("linalg", "partial_trace"),
    ("linalg", "partial_transpose"),
    ("linalg", "hermitian_eig"),
    ("linalg", "min_eigenvalue"),
    ("states", "DensityOperator.__post_init__"),
    ("states", "random_density"),
    ("channels", "KrausChannel.__post_init__"),
    ("channels", "KrausChannel.apply_matrix"),
    ("channels", "replacement_channel"),
    ("qrt", "discord"),
    ("qrt", "ppt_all_cuts"),
    ("qrt", "is_free_entanglement"),
    ("qrt", "chsh_parameter"),
    ("qrt", "is_classical_quantum"),
    ("censorship", "encode_description"),
    ("censorship", "build_conditional_channel"),
    ("censorship", "apply_censorship"),
    ("censorship", "run_protocol"),
    ("serialize", "scenario_from_json"),
    ("serialize", "report_json_str"),
    ("serialize", "report_pretty"),
    ("suites", "run_suite"),
    ("cli", "main"),
)

# constructions are reported under the class name
_POST_INIT = ".__post_init__"


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix(_POST_INIT)}"


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counters: dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args)
                return result
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qcensor" or n.startswith("qcensor.")]
        for module_name, attr in LAYERS:
            module = sys.modules[f"qcensor.{module_name}"]
            name = layer_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], self._counter(name)))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _counter(self, name: str):
        counters = self.counters
        if name == "states.DensityOperator":

            def count(args) -> None:
                counters[f"{name}.dim3_sum"] += args[0].mat.shape[0] ** 3

            return count
        if name == "channels.KrausChannel":

            def count(args) -> None:
                counters[f"{name}.kraus_ops"] += len(args[0].kraus)

            return count
        return None

    # ---------------------------------------------------------- reporting

    def totals(self) -> dict[str, float]:
        """calls and self_ms per layer, plus the counters, over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += (end - start - inner) * 1e3
        out.update(self.counters)
        return out

    def write(self, path: Path) -> None:
        """One span per line: name, start and end in microseconds from the
        first span, parent line number (-1 for none) and item index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write("name\tstart_us\tend_us\tparent\titem\n")
            for name, start, end, parent, item in self.spans:
                fh.write(
                    f"{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\t{item}\n"
                )


# The per-layer metrics the traced run reports, per round of the deck.
PER_LAYER = (
    "linalg.partial_trace.calls",
    "linalg.partial_trace.self_ms",
    "linalg.partial_transpose.calls",
    "linalg.partial_transpose.self_ms",
    "linalg.hermitian_eig.calls",
    "linalg.hermitian_eig.self_ms",
    "linalg.min_eigenvalue.calls",
    "linalg.min_eigenvalue.self_ms",
    "states.DensityOperator.calls",
    "states.DensityOperator.self_ms",
    "states.DensityOperator.dim3_sum",
    "states.random_density.self_ms",
    "channels.KrausChannel.calls",
    "channels.KrausChannel.self_ms",
    "channels.KrausChannel.kraus_ops",
    "channels.KrausChannel.apply_matrix.calls",
    "channels.KrausChannel.apply_matrix.self_ms",
    "channels.replacement_channel.self_ms",
    "qrt.discord.calls",
    "qrt.discord.self_ms",
    "qrt.ppt_all_cuts.calls",
    "qrt.ppt_all_cuts.self_ms",
    "qrt.is_free_entanglement.calls",
    "qrt.chsh_parameter.self_ms",
    "qrt.is_classical_quantum.self_ms",
    "censorship.encode_description.calls",
    "censorship.encode_description.self_ms",
    "censorship.build_conditional_channel.self_ms",
    "censorship.apply_censorship.calls",
    "censorship.apply_censorship.self_ms",
    "censorship.run_protocol.self_ms",
    "serialize.scenario_from_json.self_ms",
    "serialize.report_json_str.self_ms",
    "serialize.report_pretty.self_ms",
    "cli.main.self_ms",
    "suites.run_suite.self_ms",
)
