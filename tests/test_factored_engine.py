"""The factored censorship engine against the dense reference engine.

``dense_reference`` keeps the engine that built the whole Kronecker joint and
summed over every message combination; here random scenarios and random
dense joints must give the same receivers and distances from both engines.
The reference joint is kept at most 128 wide so each example stays cheap:
three pairs run on qubit registers, two-qubit registers run up to two pairs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_apply_censorship, dense_run_protocol
from qcensor import linalg
from qcensor.censorship import (
    Claim,
    NetworkScenario,
    SenderStrategy,
    apply_censorship,
    build_conditional_channel,
    encode_description,
    run_protocol,
)
from qcensor.channels import ChannelSpec
from qcensor.states import (
    DensityOperator,
    from_pure,
    isotropic,
    make_rng,
    random_density,
    random_real_density,
)
from qcensor.suites import random_separable_ensemble

TOL = 1e-12
MAX_REFERENCE_WIDTH = 128

SYSTEM_DIMS = {
    "imaginarity": (2,),
    "entanglement": (2, 2),
    "discord": (2, 2),
    "locality": (2, 2),
}


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _free_source(theory, rng):
    """A free state as an honest sender holds it: (state, ensemble)."""
    if theory == "imaginarity":
        return random_real_density(2, 2, rng), None
    if theory == "entanglement":
        return None, random_separable_ensemble(rng)
    if theory == "discord":
        p = rng.random()
        mat = sum(
            w * np.kron(from_pure(np.eye(2)[a]).mat, random_density(2, 2, rng).mat)
            for a, w in enumerate((p, 1.0 - p))
        )
        return DensityOperator(mat, (2, 2)), None
    u = np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2))
    mat = u @ isotropic(2, 0.65 * rng.random()).mat @ u.conj().T
    return DensityOperator((mat + mat.conj().T) / 2, (2, 2)), None


def _claim(source):
    state, ensemble = source
    return Claim(state=state, ensemble=ensemble)


def _noise_spec(kind, sys, rng):
    d = int(np.prod(sys))
    if kind == "identity":
        return ChannelSpec("identity")
    if kind == "dephasing":
        return ChannelSpec("dephasing", {"basis": _random_unitary(rng, d)})
    if kind == "replacement":
        return ChannelSpec("replacement", {"state": random_density(d, d, rng, dims=sys)})
    if kind == "depolarizing":
        return ChannelSpec("depolarizing", {"strength": float(rng.random())})
    return ChannelSpec("amplitude_damping", {"gamma": float(rng.random())})


NOISE_KINDS = ("none", "identity", "dephasing", "replacement", "depolarizing", "amplitude_damping")
# (kind, spans) of each strategy; qubit registers also run three pairs
PLANS = [
    (("honest", 1),),
    (("untruthful", 1),),
    (("correlated", 1),),
    (("honest", 1), ("untruthful", 1)),
    (("correlated", 2),),
    (("honest", 1), ("correlated", 2)),
    (("untruthful", 1), ("honest", 1), ("untruthful", 1)),
    (("correlated", 3),),
]


def _cases():
    """Every theory meets every noise kind, both channel kinds and every plan
    its registers allow; amplitude damping acts on one qubit only. Qubit
    registers also run the three-pair joint under every noise kind."""
    cases = []
    for theory, sys in sorted(SYSTEM_DIMS.items()):
        qubit = sys == (2,)
        noises = NOISE_KINDS if qubit else NOISE_KINDS[:-1]
        kinds = ("replacement", "eigen_dephasing") if qubit else ("replacement",)
        plans = PLANS if qubit else PLANS[:5]
        for j, (kind, noise) in enumerate((k, n) for k in kinds for n in noises):
            cases.append((theory, kind, noise, plans[j % len(plans)]))
    kinds = ("replacement", "eigen_dephasing")
    cases.extend(("imaginarity", kinds[j % 2], n, PLANS[-1]) for j, n in enumerate(NOISE_KINDS))
    # each case is named by its contents, so adding one renames no other; one
    # case is built twice above and runs once
    named = []
    for theory, kind, noise, plan in dict.fromkeys(cases):
        steps = "+".join(f"{k}{spans}" for k, spans in plan)
        named.append(pytest.param(theory, kind, noise, plan, id=f"{theory}-{kind}-{noise}-plan-{steps}"))
    return named


@st.composite
def scenarios(draw, theory, channel_kind, noise_kind, plan):
    sys = SYSTEM_DIMS[theory]
    reg_dim = int(np.prod(sys))
    n_pairs = sum(spans for _, spans in plan)
    # the reference joint is ((labels + 1) * d)^n wide
    max_labels = max(
        k for k in (1, 2, 3) if ((k + 1) * reg_dim) ** n_pairs <= MAX_REFERENCE_WIDTH
    )
    n_labels = draw(st.integers(1, max_labels))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))

    pool = [_free_source(theory, rng) for _ in range(n_labels)]
    # the pool sources each strategy describes: one, or one per correlated claim
    sources = [
        [
            pool[draw(st.integers(0, n_labels - 1))]
            for _ in range(draw(st.integers(1, 2)) if kind == "correlated" else 1)
        ]
        for kind, _ in plan
    ]
    # correlated joints are sized by the message dimension of the whole channel
    descs = [encode_description(theory, *source) for group in sources for source in group]
    mdim = build_conditional_channel(theory, channel_kind, descs).message_dim

    strategies = []
    for (kind, spans), group in zip(plan, sources):
        if kind == "honest":
            state, ensemble = group[0]
            strategies.append(SenderStrategy("honest", state=state, ensemble=ensemble))
        elif kind == "untruthful":
            sent = random_density(reg_dim, reg_dim, rng, dims=sys)
            strategies.append(SenderStrategy("untruthful", state=sent, claimed=_claim(group[0])))
        else:
            dims = ((mdim,) + sys) * spans
            width = int(np.prod(dims))
            joint = random_density(width, width, rng, dims=dims)
            claims = [_claim(source) for source in group]
            strategies.append(SenderStrategy("correlated", state=joint, claimed=claims, spans=spans))
    noise = _noise_spec(noise_kind, sys, rng) if noise_kind != "none" else None
    return NetworkScenario(theory, channel_kind, strategies, noise=noise)


@pytest.mark.parametrize("theory,channel_kind,noise_kind,plan", _cases())
@given(data=st.data())
@settings(max_examples=3)
def test_run_protocol_matches_dense_engine(theory, channel_kind, noise_kind, plan, data):
    scenario = data.draw(scenarios(theory, channel_kind, noise_kind, plan))
    report = run_protocol(scenario)
    receiver, distances = dense_run_protocol(scenario)
    rendered, _ = report.render_receiver()
    assert rendered.shape == receiver.shape
    assert np.abs(rendered - receiver).max() < TOL
    if distances is None:
        assert report.distances is None
        return
    assert [d["sender"] for d in report.distances] == [d["sender"] for d in distances]
    for got, want in zip(report.distances, distances):
        assert abs(got["d_noisy"] - want["d_noisy"]) < TOL
        assert abs(got["d_censored"] - want["d_censored"]) < TOL


@given(
    st.sampled_from(["imaginarity-replacement", "imaginarity-eigen_dephasing", "entanglement"]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30)
def test_apply_censorship_matches_dense_engine(family, n_pairs, n_descs, seed):
    # random joints put weight on every message index, the reserved one included
    theory, _, kind = family.partition("-")
    kind = kind or "replacement"
    sys = SYSTEM_DIMS[theory]
    rng = make_rng(seed)
    descs = []
    for _ in range(n_descs):
        state, ensemble = _free_source(theory, rng)
        descs.append(encode_description(theory, sigma=state, ensemble=ensemble))
    ch = build_conditional_channel(theory, kind, descs)
    pair_dims = (ch.message_dim,) + sys
    while n_pairs > 1 and int(np.prod(pair_dims)) ** n_pairs > 2 * MAX_REFERENCE_WIDTH:
        n_pairs -= 1
    dims = pair_dims * n_pairs
    width = int(np.prod(dims))
    joint = random_density(width, int(rng.integers(1, width + 1)), rng, dims=dims)
    out = apply_censorship(ch, joint)
    assert np.abs(out.mat - dense_apply_censorship(ch, joint)).max() < TOL


def test_product_senders_never_validate_the_joint(monkeypatch):
    # Four two-qubit senders: a 4096-wide joint for the dense engine and a
    # 256-wide receiver. Nothing wider than one censored block (4) may be
    # validated; the receiver is rendered from the blocks for the report.
    import qcensor.states as states

    widths = []
    original = states._check_state  # the one state check, of a matrix or a stack

    def spy(mat):
        widths.append(np.asarray(mat).shape[-1])
        return original(mat)

    sigma = isotropic(2, 5 / 12)
    scenario = NetworkScenario(
        "locality", "replacement", [SenderStrategy("honest", state=sigma) for _ in range(4)]
    )
    with monkeypatch.context() as m:
        m.setattr(states, "_check_state", spy)
        report = run_protocol(scenario)
    assert max(widths) == 4
    receiver, dims = report.render_receiver()
    assert dims == (2, 2) * 4
    marginal = linalg.partial_trace(receiver, dims, [4, 5])
    assert np.abs(marginal - sigma.mat).max() < 1e-12


def test_many_labels_censor_without_a_transfer_quadratic_in_them():
    # One correlated locality block registering 60 distinct labels (m = 61):
    # its joint |0><0| (x) rho is 244 wide (0.91 MiB). Only the message
    # diagonal reaches a branch, so the run must peak below twice the joint;
    # a dense pair transfer alone, d^2 x (m d)^2, is 16 times the joint.
    claims = [Claim(state=isotropic(2, k / 200)) for k in range(60)]
    sigma = claims[0].state
    proj = np.zeros((61, 61))
    proj[0, 0] = 1.0
    joint = DensityOperator(np.kron(proj, sigma.mat), (61, 2, 2))
    scenario = NetworkScenario(
        "locality", "replacement", [SenderStrategy("correlated", state=joint, claimed=claims)]
    )
    tracemalloc.start()
    try:
        report = run_protocol(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * joint.mat.nbytes
    (block, spans), = report.blocks
    assert spans == 1
    assert np.abs(block.mat - sigma.mat).max() < TOL
