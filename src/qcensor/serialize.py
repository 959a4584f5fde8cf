"""JSON encoding of states, scenarios, and reports.

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
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{what} must be a number, got {value!r}") from exc


def _integer(value: Any, what: str) -> int:
    # int() would truncate 2.7 to 2 and read true as 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return _number(value, int, what)


def matrix_to_json(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def matrix_from_json(obj: Any, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ScenarioError(f"{what} must be an object with 're' and 'im' tables")
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


def state_to_json(rho: DensityOperator) -> dict:
    out = matrix_to_json(rho.mat)
    return {"dims": list(rho.dims), "re": out["re"], "im": out["im"]}


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
        terms.append((_number(term["weight"], float, f"ensemble term {pos} weight"), factors))
    return terms


def ensemble_to_json(ensemble: list) -> list:
    out = []
    for weight, factors in ensemble:
        out.append(
            {
                "weight": float(weight),
                "factors": [
                    [[float(z.real), float(z.imag)] for z in np.asarray(f, dtype=complex)]
                    for f in factors
                ],
            }
        )
    return out


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


def noise_to_json(spec: ChannelSpec) -> dict:
    params: dict[str, Any] = {}
    for key, value in spec.params.items():
        if isinstance(value, DensityOperator):
            params[key] = state_to_json(value)
        elif isinstance(value, np.ndarray):
            params[key] = matrix_to_json(value)
        else:
            params[key] = value
    return {"kind": spec.kind, "params": params}


def _strategy_from_json(obj: Any, pos: int) -> SenderStrategy:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError(f"sender {pos} must be an object with a 'kind'")
    kind = str(obj["kind"])
    if kind not in ("honest", "untruthful", "correlated"):
        raise ScenarioError(f"sender {pos}: unknown kind {kind!r}")
    state = state_from_json(obj["state"], f"sender {pos} state") if "state" in obj else None
    ensemble = ensemble_from_json(obj["ensemble"]) if "ensemble" in obj else None
    claimed = None
    if "claimed" in obj and obj["claimed"] is not None:
        raw = obj["claimed"]
        if kind == "correlated":
            if not isinstance(raw, list):
                raise ScenarioError(f"sender {pos}: correlated claims must be a list")
            claimed = [claim_from_json(c) for c in raw]
        else:
            claimed = claim_from_json(raw)
    spans = _integer(obj.get("spans", 1), f"sender {pos} 'spans'")
    if spans < 1:
        raise ScenarioError(f"sender {pos}: 'spans' must be at least 1, got {spans}")
    if kind == "honest" and state is None and ensemble is None:
        raise ScenarioError(f"sender {pos}: honest strategy needs a state or ensemble")
    if kind == "untruthful" and (state is None or claimed is None):
        raise ScenarioError(f"sender {pos}: untruthful strategy needs a state and a claim")
    if kind == "correlated" and (state is None or claimed is None):
        raise ScenarioError(f"sender {pos}: correlated strategy needs a joint state and claims")
    return SenderStrategy(kind=kind, state=state, ensemble=ensemble, claimed=claimed, spans=spans)


def scenario_from_json(obj: Any) -> NetworkScenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("theory", "channel_kind", "senders"):
        if key not in obj:
            raise ScenarioError(f"scenario is missing the {key!r} field")
    senders = obj["senders"]
    if not isinstance(senders, list) or not senders:
        raise ScenarioError("scenario needs a non-empty 'senders' list")
    strategies = [_strategy_from_json(s, i) for i, s in enumerate(senders)]
    noise = noise_from_json(obj["noise"]) if obj.get("noise") is not None else None
    seed = obj.get("seed")
    return NetworkScenario(
        theory=str(obj["theory"]),
        channel_kind=str(obj["channel_kind"]),
        strategies=strategies,
        noise=noise,
        seed=None if seed is None else _integer(seed, "'seed'"),
        rng_algorithm=str(obj.get("rng", "pcg64")),
    )


def _strategy_to_json(st: SenderStrategy) -> dict:
    out: dict[str, Any] = {"kind": st.kind}
    if st.state is not None:
        out["state"] = state_to_json(st.state)
    if st.ensemble is not None:
        out["ensemble"] = ensemble_to_json(st.ensemble)
    if st.claimed is not None:
        if isinstance(st.claimed, (list, tuple)):
            out["claimed"] = [_claim_to_json(c) for c in st.claimed]
        else:
            out["claimed"] = _claim_to_json(st.claimed)
    if st.spans != 1:
        out["spans"] = st.spans
    return out


def _claim_to_json(claim) -> dict:
    if isinstance(claim, Claim):
        if claim.ensemble is not None:
            return {"ensemble": ensemble_to_json(claim.ensemble)}
        if claim.state is not None:
            return {"state": state_to_json(claim.state)}
    raise ScenarioError("only Claim objects serialize; encode descriptions on load")


def scenario_to_json(scenario: NetworkScenario) -> dict:
    return {
        "theory": scenario.theory,
        "channel_kind": scenario.channel_kind,
        "senders": [_strategy_to_json(s) for s in scenario.strategies],
        "noise": noise_to_json(scenario.noise) if scenario.noise is not None else None,
        "seed": scenario.seed,
        "rng": scenario.rng_algorithm,
    }


def verdict_to_json(v: ResourceVerdict) -> dict:
    return {
        "is_free": bool(v.is_free),
        "witness_value": float(v.witness_value),
        "decisive": bool(v.decisive),
    }


def report_to_json(report: CensorshipReport, seed: int | None = None) -> dict:
    return {
        "receiver_state": state_to_json(report.receiver_state),
        "verdicts": {name: verdict_to_json(v) for name, v in report.verdicts.items()},
        "breach": bool(report.breach),
        "distances": report.distances,
        "notes": list(report.notes),
        "extras": report.extras,
        "seed": seed,
    }


def report_json_str(report: CensorshipReport, seed: int | None = None) -> str:
    return json.dumps(report_to_json(report, seed), sort_keys=True, indent=2) + "\n"


def _format_matrix(mat: np.ndarray) -> str:
    return np.array2string(
        np.asarray(mat), precision=4, suppress_small=True, max_line_width=120
    )


def report_pretty(report: CensorshipReport, seed: int | None = None) -> str:
    lines = []
    lines.append(f"breach: {'YES' if report.breach else 'no'}")
    if seed is not None:
        lines.append(f"seed: {seed}")
    dims = "x".join(str(d) for d in report.receiver_state.dims)
    lines.append(f"receiver state (dims {dims}):")
    lines.append(_format_matrix(report.receiver_state.mat))
    lines.append("verdicts:")
    for name, v in sorted(report.verdicts.items()):
        status = "free" if v.is_free else "resource"
        qualifier = "decisive" if v.decisive else "necessary-condition only"
        extra = ""
        if name == "discord":
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
