"""JSON reading of scenarios and writing of states and reports.

Matrices travel as row-major real/imaginary part tables. Report encoding is
deterministic (sorted keys, shortest round-trip floats) so a fixed seed and
scenario always produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .censorship import (
    CensorshipReport,
    Claim,
    NetworkScenario,
    ScenarioError,
    SenderStrategy,
)
from .channels import CHANNEL_KINDS, ChannelSpec
from .qrt import ResourceVerdict
from .states import DensityOperator


def _number(value: Any, cast, what: str):
    # JSON numbers only: float() and int() would also read "5" and true
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    try:
        return cast(value)
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{what} must be a number, got {value!r}") from exc


def _integer(value: Any, what: str) -> int:
    # int() would truncate 2.7 to 2
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return _number(value, int, what)


def _non_numbers(table: Any):
    """The entries of a nested list of numbers that are not JSON numbers."""
    if isinstance(table, list):
        for row in table:
            yield from _non_numbers(row)
    elif isinstance(table, bool) or not isinstance(table, (int, float)):
        yield table


def matrix_to_json(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def matrix_from_json(obj: Any, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ScenarioError(f"{what} must be an object with 're' and 'im' tables")
    for key in ("re", "im"):
        for value in _non_numbers(obj[key]):
            raise ScenarioError(f"{what} entries must be numbers, got {value!r}")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{what} entries must be numbers: {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise ScenarioError(f"{what} real and imaginary tables must be equal-shape matrices")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ScenarioError(f"{what} entries must be finite")
    return re + 1j * im


def state_from_json(obj: Any, what: str = "state") -> DensityOperator:
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ScenarioError(f"{what} must be an object with 'dims', 're', 'im'")
    if not isinstance(obj["dims"], list):
        raise ScenarioError(f"{what} dims must be a list of integers")
    mat = matrix_from_json(obj, what)
    try:
        return DensityOperator(mat, tuple(_integer(d, f"{what} dims") for d in obj["dims"]))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{what} is not a valid density operator: {exc}") from exc


def _amplitudes_from_json(entries: Any, what: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries or any(
        not isinstance(p, list) or len(p) != 2 for p in entries
    ):
        raise ScenarioError(f"{what} amplitudes must be a non-empty list of [re, im] pairs")
    pairs = [[_number(x, float, f"{what} amplitude") for x in p] for p in entries]
    if not np.isfinite(pairs).all():
        raise ScenarioError(f"{what} amplitudes must be finite")
    return np.array([re + 1j * im for re, im in pairs], dtype=complex)


def ensemble_from_json(obj: Any) -> list:
    if not isinstance(obj, list) or not obj:
        raise ScenarioError("ensemble must be a non-empty list of terms")
    terms = []
    for pos, term in enumerate(obj):
        if not isinstance(term, dict) or "weight" not in term or "factors" not in term:
            raise ScenarioError(f"ensemble term {pos} needs 'weight' and 'factors'")
        if not isinstance(term["factors"], list) or not term["factors"]:
            raise ScenarioError(f"ensemble term {pos} 'factors' must be a non-empty list")
        factors = tuple(
            _amplitudes_from_json(f, f"ensemble term {pos}") for f in term["factors"]
        )
        weight = _number(term["weight"], float, f"ensemble term {pos} weight")
        if not np.isfinite(weight):
            raise ScenarioError(f"ensemble term {pos} weight must be finite")
        terms.append((weight, factors))
    return terms


def claim_from_json(obj: Any) -> Claim:
    if not isinstance(obj, dict):
        raise ScenarioError("claim must be an object with 'state' or 'ensemble'")
    if "ensemble" in obj:
        return Claim(ensemble=ensemble_from_json(obj["ensemble"]))
    if "state" in obj:
        return Claim(state=state_from_json(obj["state"], "claimed state"))
    raise ScenarioError("claim must carry 'state' or 'ensemble'")


def noise_from_json(obj: Any) -> ChannelSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError("noise must be an object with 'kind' and optional 'params'")
    kind = str(obj["kind"])
    if kind not in CHANNEL_KINDS:
        raise ScenarioError(f"unknown noise kind {kind!r}; known: {list(CHANNEL_KINDS)}")
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ScenarioError("noise 'params' must be an object")
    params = dict(params)
    for key in ("strength", "gamma"):
        if key in params:
            _number(params[key], float, f"noise {key!r}")
    if kind == "replacement":
        if "state" not in params:
            raise ScenarioError("replacement noise needs params['state']")
        params["state"] = state_from_json(params["state"], "noise replacement state")
    if kind == "dephasing" and "basis" in params:
        params["basis"] = matrix_from_json(params["basis"], "noise dephasing basis")
    return ChannelSpec(kind, params)


def _strategy_from_json(obj: Any, pos: int) -> SenderStrategy:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError(f"sender {pos} must be an object with a 'kind'")
    state = state_from_json(obj["state"], f"sender {pos} state") if "state" in obj else None
    ensemble = ensemble_from_json(obj["ensemble"]) if "ensemble" in obj else None
    raw = obj.get("claimed")
    if isinstance(raw, list):
        claimed = [claim_from_json(c) for c in raw]
    else:
        claimed = None if raw is None else claim_from_json(raw)
    spans = _integer(obj.get("spans", 1), f"sender {pos} 'spans'")
    try:
        return SenderStrategy(str(obj["kind"]), state, ensemble, claimed, spans)
    except ScenarioError as exc:
        raise ScenarioError(f"sender {pos}: {exc}") from exc


def scenario_from_json(obj: Any) -> NetworkScenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("theory", "channel_kind", "senders"):
        if key not in obj:
            raise ScenarioError(f"scenario is missing the {key!r} field")
    senders = obj["senders"]
    if not isinstance(senders, list) or not senders:
        raise ScenarioError("scenario needs a non-empty 'senders' list")
    rng = str(obj.get("rng", "pcg64"))
    if rng.lower() != "pcg64":
        raise ScenarioError(f"unsupported rng {rng!r}; the only one is 'pcg64'")
    strategies = [_strategy_from_json(s, i) for i, s in enumerate(senders)]
    noise = noise_from_json(obj["noise"]) if obj.get("noise") is not None else None
    seed = obj.get("seed")
    return NetworkScenario(
        theory=str(obj["theory"]),
        channel_kind=str(obj["channel_kind"]),
        strategies=strategies,
        noise=noise,
        seed=None if seed is None else _integer(seed, "'seed'"),
    )


def verdict_to_json(v: ResourceVerdict) -> dict:
    return {
        "is_free": bool(v.is_free),
        "witness_value": float(v.witness_value),
        "decisive": bool(v.decisive),
    }


def report_to_json(
    report: CensorshipReport, seed: int | None = None, *, tables=matrix_to_json
) -> dict:
    """The report's fields; ``tables`` writes the receiver's re/im tables."""
    mat, dims = report.render_receiver()
    return {
        "receiver_state": {"dims": list(dims), **tables(mat)},
        "verdicts": {name: verdict_to_json(v) for name, v in report.verdicts.items()},
        "breach": bool(report.breach),
        "distances": report.distances,
        "notes": list(report.notes),
        "extras": report.extras,
        "seed": seed,
    }


def _table_json(table: np.ndarray, pad: str) -> str:
    # json.dumps(table.tolist(), indent=2) for a non-empty float table opened
    # on a line indented by ``pad``. json writes a finite float as
    # float.__repr__, which depends only on its bits, and repr(-x) is
    # "-" + repr(x) for every finite x, signed zeros included; so each
    # distinct magnitude is formatted once (np.abs clears the sign bit, so
    # magnitudes that compare equal have equal bits), and an entry whose sign
    # bit is set takes it with a "-". A Hermitian receiver's imaginary table is
    # antisymmetric, so this halves its formatting.
    arr = np.ascontiguousarray(table, dtype=np.float64)
    magnitudes, inverse = np.unique(np.abs(arr), return_inverse=True)
    text = list(map(float.__repr__, magnitudes.tolist()))
    signed = np.array(text + ["-" + t for t in text], dtype=object)
    index = inverse.reshape(table.shape)
    index[np.signbit(arr)] += len(text)
    cells = signed[index]
    row_pad, cell_pad = pad + "  ", pad + "    "
    cell_sep = ",\n" + cell_pad
    body = (",\n" + row_pad).join(
        "[\n" + cell_pad + cell_sep.join(row) + "\n" + row_pad + "]" for row in cells.tolist()
    )
    return "[\n" + row_pad + body + "\n" + pad + "]"


def report_json_str(report: CensorshipReport, seed: int | None = None) -> str:
    """``json.dumps(report_to_json(report, seed), sort_keys=True, indent=2)``
    and a newline, byte for byte.

    The receiver's tables stay arrays and are written by ``_table_json``,
    which is exact because the blocks' entries are finite and so are their
    products. The fields that sort before and after ``receiver_state`` go
    through ``json.dumps`` as two objects, whose items are spliced around it.
    """
    fields = report_to_json(report, seed, tables=lambda mat: {"re": mat.real, "im": mat.imag})
    rho = fields.pop("receiver_state")
    head = {k: v for k, v in fields.items() if k < "receiver_state"}
    tail = {k: v for k, v in fields.items() if k > "receiver_state"}
    # json.dumps writes a non-empty object as "{\n" + items + "\n}"
    head_items = json.dumps(head, sort_keys=True, indent=2)[:-2]
    tail_items = json.dumps(tail, sort_keys=True, indent=2)[2:]
    dims = json.dumps(rho["dims"], indent=2).replace("\n", "\n    ")
    state = (
        f'{{\n    "dims": {dims},\n'
        f'    "im": {_table_json(rho["im"], "    ")},\n'
        f'    "re": {_table_json(rho["re"], "    ")}\n  }}'
    )
    return f'{head_items},\n  "receiver_state": {state},\n{tail_items}\n'


def _format_matrix(mat: np.ndarray) -> str:
    return np.array2string(
        np.asarray(mat), precision=4, suppress_small=True, max_line_width=120
    )


def report_pretty(report: CensorshipReport, seed: int | None = None) -> str:
    lines = []
    lines.append(f"breach: {'YES' if report.breach else 'no'}")
    if seed is not None:
        lines.append(f"seed: {seed}")
    mat, dims = report.render_receiver()
    lines.append(f"receiver state (dims {'x'.join(map(str, dims))}):")
    lines.append(_format_matrix(mat))
    # the discord witness is an entropy, in nats, on two-qubit registers only
    block, spans = report.blocks[0]
    two_qubit = block.dims[: len(block.dims) // spans] == (2, 2)
    lines.append("verdicts:")
    for name, v in sorted(report.verdicts.items()):
        status = "free" if v.is_free else "resource"
        qualifier = "decisive" if v.decisive else "necessary-condition only"
        extra = ""
        if name == "discord" and two_qubit:
            extra = f" ({v.witness_value / np.log(2):.4g} bits)"
        lines.append(
            f"  {name}: {status}, witness {v.witness_value:.4g}{extra} [{qualifier}]"
        )
    if report.distances:
        lines.append("link-noise distances (Hilbert-Schmidt):")
        for rec in report.distances:
            lines.append(
                f"  sender {rec['sender']}: noisy {rec['d_noisy']:.4g}, "
                f"censored {rec['d_censored']:.4g}"
            )
    for note in report.notes:
        lines.append(f"note: {note}")
    if report.extras:
        lines.append("extras:")
        for key in sorted(report.extras):
            lines.append(f"  {key}: {report.extras[key]}")
    return "\n".join(lines) + "\n"
