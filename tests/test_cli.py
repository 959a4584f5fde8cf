import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcensor
from qcensor.censorship import MAX_RECEIVER_DIM
from qcensor.cli import EXIT_BREACH, EXIT_ERROR, EXIT_OK, EXIT_USAGE, main
from qcensor.demos import DEMOS
from qcensor.serialize import state_to_json
from qcensor.states import bell_phi_plus, from_pure, isotropic, random_real_density

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)
# Byte-exact demo reports (written with numpy 2.4.6); a deliberate report
# change regenerates them.
GOLDEN = Path(__file__).parent / "golden"


def _honest_imaginarity_scenario(seed=5):
    sigma = random_real_density(2, 2, seed)
    return {
        "theory": "imaginarity",
        "channel_kind": "eigen_dephasing",
        "senders": [{"kind": "honest", "state": state_to_json(sigma)}],
        "noise": None,
        "seed": seed,
    }


def _discord_breach_scenario():
    z0 = from_pure(np.array([1.0, 0.0])).mat
    z1 = from_pure(np.array([0.0, 1.0])).mat
    plus = from_pure(PLUS).mat
    s0 = np.kron(z0, z0)
    s1 = np.kron(plus, z1)
    joint = np.zeros((12, 12), dtype=complex)
    for idx, comp in ((0, s0), (1, s1)):
        proj = np.zeros((3, 3))
        proj[idx, idx] = 1.0
        joint += 0.5 * np.kron(proj, comp)
    return {
        "theory": "discord",
        "channel_kind": "replacement",
        "senders": [
            {
                "kind": "correlated",
                "state": {
                    "dims": [3, 2, 2],
                    "re": joint.real.tolist(),
                    "im": joint.imag.tolist(),
                },
                "claimed": [
                    {"state": {"dims": [2, 2], "re": s0.real.tolist(), "im": s0.imag.tolist()}},
                    {"state": {"dims": [2, 2], "re": s1.real.tolist(), "im": s1.imag.tolist()}},
                ],
                "spans": 1,
            }
        ],
        "noise": None,
        "seed": 1,
    }


def _write(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_run_honest_scenario_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, _honest_imaginarity_scenario())
    code = main(["run", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["breach"] is False
    assert payload["seed"] == 5


def test_run_discord_breach_exit_three(tmp_path):
    path = _write(tmp_path, _discord_breach_scenario())
    code = main(["run", "--scenario", str(path)])
    assert code == EXIT_BREACH


def test_run_missing_file_exit_two(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_run_malformed_json_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--scenario", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "raw", [b"\xff\xfe{}", b'{"seed": ' + b"9" * 5000 + b"}"], ids=["not-utf8", "huge-integer"]
)
def test_run_unreadable_json_exit_two(raw, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["run", "--scenario", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("could not parse scenario:")


def test_run_invalid_scenario_exit_two(tmp_path):
    path = _write(tmp_path, {"theory": "imaginarity"})
    assert main(["run", "--scenario", str(path)]) == EXIT_USAGE


def test_run_writes_report_file(tmp_path):
    path = _write(tmp_path, _honest_imaginarity_scenario())
    out_path = tmp_path / "report.json"
    code = main(["run", "--scenario", str(path), "--out", str(out_path)])
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["verdicts"]["imaginarity"]["is_free"] is True


def test_run_reports_byte_stable(tmp_path):
    path = _write(tmp_path, _honest_imaginarity_scenario())
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", "--scenario", str(path), "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--scenario", str(path), "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, _honest_imaginarity_scenario(seed=5))
    monkeypatch.setenv("QCENSOR_SEED", "99")
    code = main(["run", "--scenario", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["seed"] == 99


def test_env_seed_invalid(tmp_path, monkeypatch):
    path = _write(tmp_path, _honest_imaginarity_scenario())
    monkeypatch.setenv("QCENSOR_SEED", "not-an-int")
    assert main(["run", "--scenario", str(path)]) == EXIT_USAGE


def test_run_pretty_format(tmp_path, capsys):
    path = _write(tmp_path, _honest_imaginarity_scenario())
    code = main(["run", "--scenario", str(path), "--format", "pretty"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "breach: no" in out


@pytest.mark.parametrize(
    "name,expected",
    [
        ("bell_filter", EXIT_OK),
        ("eigen_smuggle", EXIT_BREACH),
        ("discord_breach", EXIT_BREACH),
        ("nonlocal_activation", EXIT_OK),
        ("noise_correction", EXIT_OK),
    ],
)
def test_demos_exit_codes(name, expected, capsys):
    assert main(["demo", name]) == expected
    assert capsys.readouterr().out  # something was printed


def test_demo_unknown_lists_names(capsys):
    code = main(["demo", "warp_drive"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "bell_filter" in err


@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_report_matches_golden(name, fmt, capsys):
    main(["demo", name, "--format", fmt])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{fmt}").read_text()


def test_demo_json_format(capsys):
    code = main(["demo", "eigen_smuggle", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_BREACH
    assert payload["breach"] is True
    assert abs(payload["extras"]["ppt_witness"] + 0.5) < 1e-9


def test_verify_suites_pass(capsys):
    code = main(["verify", "--suite", "affine_unbreakable", "--samples", "10", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS" in out


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nonsense"])
    assert code == EXIT_USAGE
    assert "affine_unbreakable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "affine_unbreakable", "--samples", "-5"],
        ["--suite", "affine_unbreakable", "--samples", "0"],
        ["--suite", "activation", "--seed", "-1"],
    ],
    ids=["samples-negative", "samples-zero", "seed-negative"],
)
def test_verify_rejects_bad_counts_at_parsing(argv, capsys):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "must be at least" in captured.err


def test_verify_json_format(capsys):
    code = main(
        ["verify", "--suite", "discord_breach", "--samples", "1", "--seed", "0", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["passed"] is True


def test_usage_error_on_missing_subcommand():
    assert main([]) == EXIT_USAGE


def test_runtime_error_exit_one(tmp_path):
    # scenario that parses but explodes at run time: entanglement claim whose
    # ensemble mixes register sizes
    scenario = {
        "theory": "entanglement",
        "channel_kind": "replacement",
        "senders": [
            {
                "kind": "untruthful",
                "state": state_to_json(bell_phi_plus(2)),
                "claimed": {
                    "ensemble": [
                        {"weight": 1.0, "factors": [[[1.0, 0.0], [0.0, 0.0]]]},
                    ]
                },
            }
        ],
        "noise": None,
        "seed": 0,
    }
    path = _write(tmp_path, scenario)
    code = main(["run", "--scenario", str(path)])
    assert code in (EXIT_ERROR, EXIT_USAGE)


def _locality_senders(n):
    sigma = state_to_json(isotropic(2, 0.3))
    return {
        "theory": "locality",
        "channel_kind": "replacement",
        "senders": [{"kind": "honest", "state": sigma} for _ in range(n)],
        "noise": None,
        "seed": 0,
    }


def test_receiver_over_budget_exits_two_fast(tmp_path, capsys):
    # six two-qubit registers: a 4096-wide receiver and a 262144-wide joint
    path = _write(tmp_path, _locality_senders(6))
    start = time.perf_counter()
    code = main(["run", "--scenario", str(path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert elapsed < 0.5
    assert "4096" in err and str(MAX_RECEIVER_DIM) in err
    assert "Traceback" not in err


def _with(scenario, **changes):
    out = json.loads(json.dumps(scenario))
    for path, value in changes.items():
        target = out
        keys = path.split("__")
        for key in keys[:-1]:
            target = target[int(key)] if isinstance(target, list) else target[key]
        target[keys[-1]] = value
    return out


def _entanglement_honest():
    ensemble = [{"weight": 1.0, "factors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]
    return {
        "theory": "entanglement",
        "channel_kind": "replacement",
        "senders": [{"kind": "honest", "ensemble": ensemble}],
        "noise": None,
        "seed": 0,
    }


@pytest.mark.parametrize(
    "scenario",
    [
        _with(_honest_imaginarity_scenario(), seed="x"),
        _with(_honest_imaginarity_scenario(), seed=2.7),
        _with(_honest_imaginarity_scenario(), seed=True),
        _with(_discord_breach_scenario(), senders__0__spans="two"),
        _with(_discord_breach_scenario(), senders__0__spans=1.9),
        _with(_discord_breach_scenario(), senders__0__spans=True),
        _with(_discord_breach_scenario(), senders__0__spans=0),
        _with(_honest_imaginarity_scenario(), senders__0__state__dims=[2.5]),
        _with(_entanglement_honest(), senders__0__ensemble__0__weight="w"),
        _with(_honest_imaginarity_scenario(), noise={"kind": "depolarizing", "params": {"strength": "s"}}),
        _with(_honest_imaginarity_scenario(), noise={"kind": "depolarizing", "params": {}}),
        _with(_honest_imaginarity_scenario(), noise={"kind": "amplitude_damping", "params": []}),
        _with(_honest_imaginarity_scenario(), noise={"kind": "depolarizing", "params": "s"}),
        _with(_locality_senders(1), noise={"kind": "amplitude_damping", "params": {"gamma": 0.5}}),
        _with(_honest_imaginarity_scenario(), theory="magic"),
        _with(_honest_imaginarity_scenario(), theory=5),
        _with(_discord_breach_scenario(), senders__0__state__dims="322"),
    ],
    ids=[
        "seed-not-int",
        "seed-not-integral",
        "seed-bool",
        "spans-not-int",
        "spans-not-integral",
        "spans-bool",
        "spans-below-one",
        "dims-not-integral",
        "weight-not-number",
        "strength-not-number",
        "strength-missing",
        "gamma-missing",
        "params-not-object",
        "damping-on-two-qubits",
        "theory-unknown",
        "theory-not-string",
        "dims-string",
    ],
)
def test_malformed_scenario_exits_two_without_traceback(scenario, tmp_path, capsys):
    path = _write(tmp_path, scenario)
    code = main(["run", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("invalid scenario:")
    assert "Traceback" not in err


def _ensemble_term(factors):
    return _with(_entanglement_honest(), senders__0__ensemble=[{"weight": 1.0, "factors": factors}])


@pytest.mark.parametrize(
    "scenario, message",
    [
        (_ensemble_term([]), "'factors' must be a non-empty list"),
        (_ensemble_term([[[1, 0, 9], [0, 0]], [[0, 0], [1, 0]]]), "list of [re, im] pairs"),
        (_ensemble_term([[["nan", 0], [0, 0]], [[0, 0], [1, 0]]]), "amplitudes must be finite"),
    ],
    ids=["no-factors", "long-amplitude-pair", "nan-amplitude"],
)
def test_malformed_ensemble_exits_two_on_one_line(scenario, message, tmp_path, capsys):
    path = _write(tmp_path, scenario)
    code = main(["run", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("invalid scenario: ensemble term 0") and message in err
    assert err.count("\n") == 1 and "Warning" not in err


# Mutations of valid scenarios for the exit-code fuzz: each replaces, drops,
# shortens, lengthens or empties one node of the scenario tree.
_WRONG_VALUES = ("x", None, True, {}, 3, -1, 2.5, [[1]])
_NON_FINITE = (math.nan, math.inf, -math.inf, "nan", "-inf")
_FUZZ_BASES = (
    _honest_imaginarity_scenario(),
    _entanglement_honest(),
    _locality_senders(2),  # a 16-wide receiver; one mutation adds at most one sender
)


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def _mutated_scenarios(draw):
    scenario = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_nodes(scenario))[1:]))
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        kind = draw(st.sampled_from(("wrong", "non_finite", "drop", "short", "long", "empty")))
        if kind == "wrong":
            parent[key] = draw(st.sampled_from(_WRONG_VALUES))
        elif kind == "non_finite":
            parent[key] = draw(st.sampled_from(_NON_FINITE))
        elif kind == "drop":
            del parent[key]
        elif kind == "short" and isinstance(node, list) and node:
            node.pop()
        elif kind == "long" and isinstance(node, list) and node:
            node.append(json.loads(json.dumps(node[-1])))
        else:
            parent[key] = []
    return scenario


@given(_mutated_scenarios())
@settings(max_examples=300)
def test_mutated_scenarios_keep_the_exit_code_contract(tmp_path_factory, scenario):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(scenario))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(path)])
    stderr = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BREACH), stderr
    assert "Traceback" not in stderr and "Warning" not in stderr
    assert not caught, [str(w.message) for w in caught]


def test_noise_of_wrong_width_names_both_dimensions(tmp_path, capsys):
    qutrit = {"dims": [3], "re": (np.eye(3) / 3).tolist(), "im": np.zeros((3, 3)).tolist()}
    noise = {"kind": "replacement", "params": {"state": qutrit}}
    path = _write(tmp_path, _with(_honest_imaginarity_scenario(), noise=noise))
    code = main(["run", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "maps dimension 2 to dimension 3; registers have dimension 2" in err


def test_python_dash_m_entry_point():
    src = str(Path(qcensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "qcensor", "demo", "bell_filter"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "breach: no" in proc.stdout
