import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcensor.censorship import (
    CensorshipReport,
    Claim,
    NetworkScenario,
    ScenarioError,
    SenderStrategy,
    run_protocol,
)
from qcensor.channels import ChannelSpec
from qcensor.demos import discord_breach_demo
from qcensor.serialize import (
    ensemble_from_json,
    matrix_to_json,
    noise_from_json,
    report_json_str,
    report_pretty,
    report_to_json,
    scenario_from_json,
    state_from_json,
)
from qcensor.qrt import ResourceVerdict
from qcensor.states import (
    DensityOperator,
    bell_phi_plus,
    from_pure,
    isotropic,
    make_rng,
    random_density,
    tensor,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def state_json(rho: DensityOperator) -> dict:
    return {"dims": list(rho.dims), **matrix_to_json(rho.mat)}


def test_state_roundtrip():
    rho = random_density(4, 2, make_rng(0), dims=(2, 2))
    again = state_from_json(state_json(rho))
    assert again.dims == (2, 2)
    assert np.abs(again.mat - rho.mat).max() < 1e-15


def test_state_from_json_rejects_garbage():
    with pytest.raises(ScenarioError):
        state_from_json({"dims": [2]})
    with pytest.raises(ScenarioError):
        state_from_json({"dims": [2], "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]})
    with pytest.raises(ScenarioError):
        state_from_json(
            {"dims": [2], "re": [[2.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        )


def test_ensemble_roundtrip():
    plus, minus = [[PLUS[0], 0.0], [PLUS[1], 0.0]], [[MINUS[0], 0.0], [MINUS[1], 0.0]]
    i_plus = [[0.0, PLUS[0]], [0.0, PLUS[1]]]
    obj = [
        {"weight": 0.25, "factors": [plus, minus]},
        {"weight": 0.75, "factors": [minus, i_plus]},
    ]
    again = ensemble_from_json(obj)
    assert len(again) == 2
    assert abs(again[0][0] - 0.25) < 1e-15
    assert np.abs(again[1][1][0] - MINUS).max() < 1e-15
    assert np.abs(again[1][1][1] - 1j * PLUS).max() < 1e-15


def test_noise_spec_parsing():
    spec = noise_from_json({"kind": "amplitude_damping", "params": {"gamma": 0.5}})
    assert isinstance(spec, ChannelSpec)
    assert spec.build(2).in_dim == 2
    with pytest.raises(ScenarioError):
        noise_from_json({"kind": "teleport"})
    with pytest.raises(ScenarioError):
        noise_from_json({"params": {}})


def test_scenario_roundtrip_and_run():
    scenario_obj = {
        "theory": "entanglement",
        "channel_kind": "replacement",
        "senders": [
            {
                "kind": "untruthful",
                "state": state_json(bell_phi_plus(2)),
                "claimed": {
                    "ensemble": [
                        {
                            "weight": 1.0,
                            "factors": [
                                [[PLUS[0], 0.0], [PLUS[1], 0.0]],
                                [[MINUS[0], 0.0], [MINUS[1], 0.0]],
                            ],
                        }
                    ]
                },
            }
        ],
        "noise": None,
        "seed": 11,
    }
    scenario = scenario_from_json(scenario_obj)
    assert scenario.seed == 11
    assert scenario.noise is None
    (sender,) = scenario.strategies
    assert sender.kind == "untruthful" and sender.spans == 1
    assert np.abs(sender.state.mat - bell_phi_plus(2).mat).max() < 1e-15
    ((weight, (first, second)),) = sender.claimed.ensemble
    assert weight == 1.0
    assert np.abs(first - PLUS).max() < 1e-15 and np.abs(second - MINUS).max() < 1e-15
    report = run_protocol(scenario)
    assert not report.breach
    # the receiver is the claimed product |+><+| (x) |-><-|
    want = np.kron(np.outer(PLUS, PLUS), np.outer(MINUS, MINUS))
    assert np.abs(report.render_receiver()[0] - want).max() < 1e-15

    noisy = scenario_from_json(
        {
            **scenario_obj,
            "rng": "PCG64",
            "noise": {"kind": "amplitude_damping", "params": {"gamma": 0.25}},
        }
    )
    # "rng" names the one generator in any case and selects nothing
    assert noisy.noise.kind == "amplitude_damping" and noisy.noise.params == {"gamma": 0.25}


def test_scenario_missing_fields():
    with pytest.raises(ScenarioError):
        scenario_from_json({"theory": "coherence"})
    with pytest.raises(ScenarioError):
        scenario_from_json({"theory": "coherence", "channel_kind": "replacement", "senders": []})
    with pytest.raises(ScenarioError):
        scenario_from_json(
            {
                "theory": "coherence",
                "channel_kind": "replacement",
                "senders": [{"kind": "untruthful"}],
            }
        )


def test_report_json_deterministic():
    report = discord_breach_demo()
    a = report_json_str(report, seed=3)
    b = report_json_str(report, seed=3)
    assert a == b
    payload = json.loads(a)
    assert payload["breach"] is True
    assert payload["seed"] == 3
    assert "discord" in payload["verdicts"]


# Entries json prints in every form: signed zero, the smallest subnormal,
# exponent notation and integral floats.
SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0, -2.0, 3.0, 1e-7, 0.1)
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
# Report text with quotes, backslashes, newlines, non-ASCII and NUL.
TEXT = st.text(st.sampled_from('a"\\\n\t\x00\u00e9\u2192\U0001f600 {}[],:0'), max_size=12)


def _table(rng: np.random.Generator, n: int, scale: int = 300) -> np.ndarray:
    # special entries mixed with normals spread over exponents -scale..scale
    spread = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-scale, scale, (n, n))
    return np.where(rng.random((n, n)) < 0.5, rng.choice(SPECIAL, (n, n)), spread)


@st.composite
def reports(draw):
    # one exotic table up to 64 wide, or two or three small blocks whose
    # exponent range is cut so that every entry of their product is finite
    one_table = st.tuples(st.integers(1, 64))
    sizes = draw(st.one_of(one_table, st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 300 // len(sizes)
    mats = [_table(rng, n, scale) + 1j * _table(rng, n, scale) for n in sizes]
    if len(mats) > 1 and draw(st.booleans()):
        # honest senders sharing a label send one block, so entries repeat
        mats = [mats[0]] * len(mats)
    # the writers read only .mat and .dims of a block, so the tables need not be states
    blocks = tuple((SimpleNamespace(mat=m, dims=(len(m),)), 1) for m in mats)
    verdicts = {
        name: ResourceVerdict(draw(st.booleans()), draw(ENTRIES), draw(st.booleans()))
        for name in draw(st.lists(TEXT, max_size=2, unique=True))
    }
    extras = draw(st.dictionaries(TEXT, st.one_of(TEXT, ENTRIES, st.lists(ENTRIES)), max_size=3))
    distances = draw(st.one_of(st.none(), st.just([{"sender": 0, "d_noisy": 0.5}])))
    report = CensorshipReport(
        blocks=blocks,
        verdicts=verdicts,
        breach=draw(st.booleans()),
        distances=distances,
        notes=tuple(draw(st.lists(TEXT, max_size=3))),
        extras=extras,
    )
    return report, draw(st.one_of(st.none(), st.integers(-(2**63), 2**63)))


@given(reports())
@settings(max_examples=150, deadline=None)
def test_report_json_str_is_json_dumps_byte_for_byte(case):
    report, seed = case
    want = json.dumps(report_to_json(report, seed), sort_keys=True, indent=2) + "\n"
    assert report_json_str(report, seed) == want


# The writer formats each magnitude once and signs it by the sign bit; these
# entries reach every form of it: signed zeros, subnormals (the smallest and
# the largest), the smallest normal and the largest finite float.
EDGES = (0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max)


@st.composite
def mirrored_reports(draw):
    # one table up to 64 wide: a block beside its negation, [[T, -T], [-T, T]],
    # with edge entries of either sign mixed into T
    n = draw(st.integers(1, 32))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))

    def half():
        edges = rng.choice(EDGES, (n, n)) * rng.choice((-1.0, 1.0), (n, n))
        return np.where(rng.random((n, n)) < 0.5, edges, _table(rng, n))

    t = half() + 1j * half()
    mat = np.block([[t, -t], [-t, t]])
    report = CensorshipReport(
        blocks=((SimpleNamespace(mat=mat, dims=(2 * n,)), 1),),
        verdicts={},
        breach=False,
        distances=None,
        notes=(),
        extras={},
    )
    return report, draw(st.one_of(st.none(), st.integers(0, 9)))


@given(mirrored_reports())
@settings(max_examples=60, deadline=None)
def test_report_json_str_on_sign_mirrored_tables(case):
    report, seed = case
    assert np.signbit(report.blocks[0][0].mat.real).any()
    _assert_json_dumps(report, seed)


def _assert_json_dumps(report, seed=None):
    want = json.dumps(report_to_json(report, seed), sort_keys=True, indent=2) + "\n"
    assert report_json_str(report, seed) == want
    return want


def test_report_json_str_on_honest_locality_under_local_unitaries():
    # three honest senders sharing one label: a 64-wide receiver whose
    # entries repeat, with complex entries from the random local unitaries
    rng = make_rng(4)
    u, v = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in "uv")
    u = np.kron(u, v)
    sigma = DensityOperator(u @ isotropic(2, 0.3).mat @ u.conj().T, (2, 2))
    senders = [SenderStrategy("honest", state=sigma) for _ in range(3)]
    report = run_protocol(NetworkScenario("locality", "replacement", senders, seed=9))
    text = _assert_json_dumps(report, 9)
    assert len(json.loads(text)["receiver_state"]["re"]) == 64


def test_report_json_str_keeps_signed_zeros_apart():
    mat = np.empty((3, 3), dtype=complex)
    mat.real = [[0.0, -0.0, 0.1], [0.1, 0.0, -0.0], [-0.0, 0.1, 0.1]]
    mat.imag = [[-0.0, 0.0, -0.1], [-0.0, -0.1, 0.0], [0.0, -0.1, -0.1]]
    report = CensorshipReport(
        blocks=((SimpleNamespace(mat=mat, dims=(3,)), 1),),
        verdicts={},
        breach=False,
        distances=None,
        notes=(),
        extras={},
    )
    table = json.loads(_assert_json_dumps(report))["receiver_state"]
    assert [str(x) for x in table["re"][0]] == ["0.0", "-0.0", "0.1"]
    assert [str(x) for x in table["im"][0]] == ["-0.0", "0.0", "-0.1"]


def test_report_pretty_renders():
    report = discord_breach_demo()
    text = report_pretty(report, seed=3)
    assert "breach: YES" in text
    assert "discord" in text
    assert "bits" in text


def test_report_pretty_gives_discord_bits_on_two_qubit_registers_only():
    # On (2, 3) registers the discord witness is the commutator defect, not an entropy.
    components = (
        tensor(from_pure(np.array([1.0, 0.0])), from_pure(np.eye(3)[0])),
        tensor(from_pure(PLUS), from_pure(np.eye(3)[1])),
    )
    joint = sum(0.5 * np.kron(np.diag(np.eye(3)[i]), c.mat) for i, c in enumerate(components))
    sender = SenderStrategy(
        "correlated",
        state=DensityOperator(joint, (3, 2, 3)),
        claimed=[Claim(state=c) for c in components],
    )
    report = run_protocol(NetworkScenario("discord", "replacement", [sender]))
    assert report.breach
    assert "  discord: resource, witness 0.125 [decisive]\n" in report_pretty(report)


def test_report_to_json_fields():
    report = discord_breach_demo()
    obj = report_to_json(report)
    assert set(obj) == {
        "receiver_state",
        "verdicts",
        "breach",
        "distances",
        "notes",
        "extras",
        "seed",
    }
    rho = state_from_json(obj["receiver_state"])
    assert rho.dims == (2, 2)


def test_honest_locality_scenario_from_json():
    scenario = scenario_from_json(
        {
            "theory": "locality",
            "channel_kind": "replacement",
            "senders": [
                {"kind": "honest", "state": state_json(isotropic(2, 5 / 12))},
                {"kind": "honest", "state": state_json(isotropic(2, 5 / 12))},
            ],
            "noise": None,
            "seed": 0,
        }
    )
    report = run_protocol(scenario)
    assert not report.breach
    assert any("activation risk" in n for n in report.notes)


def test_unknown_rng_rejected():
    # the file is refused when it is loaded, before anything runs
    with pytest.raises(ScenarioError, match="unsupported rng 'xorshift'"):
        scenario_from_json(
            {
                "theory": "coherence",
                "channel_kind": "replacement",
                "senders": [{"kind": "honest", "state": state_json(from_pure(np.array([1.0, 0.0])))}],
                "rng": "xorshift",
            }
        )
