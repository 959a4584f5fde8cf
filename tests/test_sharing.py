"""Repeated senders share their work, and sharing changes no report byte.

``run_protocol`` encodes each distinct claim once, keyed by the exact bits of
its parsed input, censors and checks each distinct (label, sent state) once,
and the judges test each distinct block object once. The unshared path is
the same code with ``censorship._input_key`` giving a fresh key to every
input, so that nothing is shared and every block is its own object.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import qcensor.states as states
from qcensor import censorship
from qcensor.censorship import (
    CensorshipReport,
    Claim,
    NetworkScenario,
    ScenarioError,
    SenderStrategy,
    run_protocol,
)
from qcensor.channels import ChannelSpec
from qcensor.serialize import report_json_str
from qcensor.states import DensityOperator, isotropic, make_rng, random_density
from qcensor.suites import random_separable_ensemble


def _copy(state: DensityOperator) -> DensityOperator:
    # a new object with the same bits
    return DensityOperator(state.mat.copy(), state.dims)


def _locality_honest(n: int) -> NetworkScenario:
    u = np.kron(*(np.linalg.qr(make_rng(k).standard_normal((2, 2)))[0] for k in (1, 2)))
    sigma = DensityOperator(u @ isotropic(2, 0.38).mat @ u.T, (2, 2))
    senders = [SenderStrategy("honest", state=_copy(sigma)) for _ in range(n)]
    return NetworkScenario("locality", "replacement", senders, seed=3)


def _entanglement_ensembles(n: int) -> NetworkScenario:
    ensemble = random_separable_ensemble(make_rng(5))
    senders = [SenderStrategy("honest", ensemble=copy.deepcopy(ensemble)) for _ in range(n)]
    return NetworkScenario(
        "entanglement", "replacement", senders, noise=ChannelSpec("depolarizing", {"strength": 0.2})
    )


def _untruthful_one_claim(n: int) -> NetworkScenario:
    sent = random_density(2, 2, make_rng(6))
    claim = states.random_real_density(2, 2, make_rng(7))
    senders = [
        SenderStrategy("untruthful", state=_copy(sent), claimed=Claim(state=_copy(claim)))
        for _ in range(n)
    ]
    return NetworkScenario("imaginarity", "eigen_dephasing", senders)


SCENARIOS = {
    "locality-honest": _locality_honest,
    "entanglement-ensembles": _entanglement_ensembles,
    "imaginarity-untruthful": _untruthful_one_claim,
}


def _counted_run(monkeypatch, scenario: NetworkScenario) -> tuple[CensorshipReport, int, int]:
    """The report, the encode count and the state-check count of a run."""
    calls = {"encode": 0, "check": 0}
    encode, check = censorship.encode_description, states._check_state

    def counted_encode(*args, **kwargs):
        calls["encode"] += 1
        return encode(*args, **kwargs)

    def counted_check(mat):
        calls["check"] += 1
        return check(mat)

    with monkeypatch.context() as m:
        m.setattr(censorship, "encode_description", counted_encode)
        m.setattr(states, "_check_state", counted_check)
        report = run_protocol(scenario)
    return report, calls["encode"], calls["check"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_work_scales_with_distinct_senders_not_with_n(name, monkeypatch):
    run_protocol(SCENARIOS[name](1))  # builds the cached I/d branch and Bell state
    checks = set()
    for n in range(1, 6):
        scenario = SCENARIOS[name](n)
        shared, encodes, check_count = _counted_run(monkeypatch, scenario)
        assert encodes == 1
        checks.add(check_count)
        with monkeypatch.context() as m:
            m.setattr(censorship, "_input_key", lambda state, ensemble: object())
            unshared, unshared_encodes, _ = _counted_run(m, scenario)
        assert unshared_encodes == n  # the reference really shares nothing
        assert report_json_str(shared) == report_json_str(unshared)
    assert len(checks) == 1, checks


def test_many_shared_label_senders_encode_once(monkeypatch):
    n = 256
    monkeypatch.setattr(censorship, "MAX_RECEIVER_DIM", 4**n)
    _, encodes, _ = _counted_run(monkeypatch, _locality_honest(n))
    assert encodes == 1


def test_repeated_senders_share_one_block_and_its_distances():
    sigma = isotropic(2, 0.3)
    senders = [SenderStrategy("honest", state=_copy(sigma)) for _ in range(3)]
    senders.insert(1, SenderStrategy("honest", state=isotropic(2, 0.2)))
    report = run_protocol(
        NetworkScenario(
            "locality", "replacement", senders, noise=ChannelSpec("depolarizing", {"strength": 0.3})
        )
    )
    blocks = [block for block, _ in report.blocks]
    assert blocks[0] is blocks[2] is blocks[3] and blocks[1] is not blocks[0]
    shared = [(d["d_noisy"], d["d_censored"]) for d in report.distances]
    assert shared[0] == shared[2] == shared[3] != shared[1]


def test_correlated_senders_are_not_shared():
    claim = Claim(state=isotropic(2, 0.3))
    joint = np.kron(np.diag([1.0, 0.0]), isotropic(2, 0.3).mat)
    senders = [
        SenderStrategy("correlated", state=DensityOperator(joint, (2, 2, 2)), claimed=[claim])
        for _ in range(2)
    ]
    report = run_protocol(NetworkScenario("locality", "replacement", senders))
    assert report.blocks[0][0] is not report.blocks[1][0]


def _outcome(scenario: NetworkScenario) -> str:
    try:
        return report_json_str(run_protocol(scenario))
    except ScenarioError as exc:
        return f"error: {exc}"


PLUS = np.array([1.0, 1.0]) / np.sqrt(2) + 0j
# ensembles that are malformed, or in a form the key does not read
ODD_ENSEMBLES = {
    "nan-amplitude": [(1.0, (np.array([np.nan, 0.0], dtype=complex), PLUS))],
    "no-factors": [(1.0, ())],
    "negative-weight": [(-0.5, (PLUS, PLUS)), (1.5, (PLUS, PLUS))],
    "short-term": [(1.0,)],
    "unnormalized": [(1.0, (2 * PLUS, PLUS))],
    "numpy-weight": [(np.float64(1.0), (PLUS, PLUS))],
    "string-weight": [("1", (PLUS, PLUS))],
    "list-factors": [(1.0, [PLUS.real, PLUS.real])],
    "generator": (term for term in [(1.0, (PLUS, PLUS))]),
}


@pytest.mark.parametrize("name", sorted(ODD_ENSEMBLES))
def test_keys_change_no_outcome(name, monkeypatch):
    # the same error at the same sender, or the same report, with and without
    # sharing; a generator is read once, so its second sender finds it empty
    def scenario():
        odd = ODD_ENSEMBLES[name]
        if name == "generator":
            odd = (term for term in [(1.0, (PLUS, PLUS))])
        good = random_separable_ensemble(make_rng(1))
        senders = [SenderStrategy("honest", ensemble=e) for e in (good, odd, odd)]
        return NetworkScenario("entanglement", "replacement", senders)

    shared = _outcome(scenario())
    monkeypatch.setattr(censorship, "_input_key", lambda state, ensemble: object())
    assert shared == _outcome(scenario())
    if name not in ("numpy-weight", "string-weight", "list-factors"):
        assert shared.startswith("error: honest sender ")
