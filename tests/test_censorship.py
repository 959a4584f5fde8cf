import numpy as np
import pytest

from qcensor import linalg, qrt
from qcensor.censorship import (
    Claim,
    NetworkScenario,
    ScenarioError,
    SenderStrategy,
    apply_censorship,
    build_conditional_channel,
    encode_description,
    noise_comparison,
    run_protocol,
)
from qcensor.channels import ChannelSpec, amplitude_damping, depolarizing, identity_channel
from qcensor.demos import smuggle_eigenstate_demo
from qcensor.states import (
    DensityOperator,
    bell_phi_plus,
    from_pure,
    isotropic,
    make_rng,
    random_density,
    random_real_density,
    tensor,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)
Z0 = np.array([1.0, 0.0])
Z1 = np.array([0.0, 1.0])


def _rotation(theta):
    return np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )


def _commuting_real_pair(theta=0.3):
    o = _rotation(theta)
    a = DensityOperator((o @ np.diag([0.7, 0.3]) @ o.T).astype(complex), (2,))
    b = DensityOperator((o @ np.diag([0.2, 0.8]) @ o.T).astype(complex), (2,))
    return a, b


# ----------------------------------------------------------- descriptions


def test_encode_coherence_payload_is_leading_probabilities():
    rho = DensityOperator(np.diag([0.3, 0.7]).astype(complex), (2,))
    desc = encode_description("coherence", rho)
    assert desc.payload == (0.3,)
    assert desc.label == b"coherence|probs|0.300000000"


def test_encode_coherence_rejects_coherent_state():
    with pytest.raises(ValueError):
        encode_description("coherence", from_pure(PLUS))


def test_encode_imaginarity_commuting_states_share_label():
    a, b = _commuting_real_pair()
    da = encode_description("imaginarity", a)
    db = encode_description("imaginarity", b)
    assert da.label == db.label


def test_encode_imaginarity_label_stable_under_diagonal_noise():
    # The eigenvectors of [[.5,.2],[.2,.5]] have entries of equal magnitude,
    # so float noise far below the label's 9 decimals must not pick the
    # phase pivot or the column order.
    steps = [k * 2.5e-12 for k in range(-4, 5)]
    labels = set()
    for a in steps:
        for b in steps:
            mat = np.array([[0.5 + a, 0.2], [0.2, 0.5 + b]])
            rho = DensityOperator(mat / np.trace(mat), (2,))
            labels.add(encode_description("imaginarity", rho).label)
    assert len(labels) == 1


def test_encode_imaginarity_distinct_classes_distinct_labels():
    a, _ = _commuting_real_pair(0.3)
    c, _ = _commuting_real_pair(0.9)
    assert encode_description("imaginarity", a).label != encode_description("imaginarity", c).label


def test_encode_imaginarity_rejects_complex_state():
    rho = DensityOperator(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]]), (2,))
    with pytest.raises(ValueError):
        encode_description("imaginarity", rho)


def test_encode_entanglement_payload_amplitudes():
    desc = encode_description("entanglement", ensemble=[(1.0, (PLUS, MINUS))])
    weight, factors = desc.payload[0]
    assert weight == 1.0
    flat = [x for vec in factors for (re, im) in vec for x in (re, im)]
    expected = [0.707106781, 0.0, 0.707106781, 0.0, 0.707106781, 0.0, -0.707106781, 0.0]
    assert flat == pytest.approx(expected, abs=1e-12)
    sigma = tensor(from_pure(PLUS), from_pure(MINUS))
    assert linalg.hs_distance(desc.state.mat, sigma.mat) < 1e-12


def test_encode_entanglement_rejects_nan_amplitudes_and_empty_terms():
    with pytest.raises(ValueError, match="not normalized"):
        encode_description("entanglement", ensemble=[(1.0, (np.array([np.nan, 0.0]), MINUS))])
    with pytest.raises(ValueError, match="no factors"):
        encode_description("entanglement", ensemble=[(1.0, ())])


def test_encode_entanglement_requires_ensemble():
    with pytest.raises(ValueError):
        encode_description("entanglement", tensor(from_pure(PLUS), from_pure(MINUS)))


def test_encode_entanglement_checks_state_consistency():
    with pytest.raises(ValueError):
        encode_description(
            "entanglement", sigma=bell_phi_plus(2), ensemble=[(1.0, (PLUS, MINUS))]
        )


def test_encode_entanglement_order_independent_label():
    ens_a = [(0.4, (PLUS, MINUS)), (0.6, (Z0, Z1))]
    ens_b = [(0.6, (Z0, Z1)), (0.4, (PLUS, MINUS))]
    da = encode_description("entanglement", ensemble=ens_a)
    db = encode_description("entanglement", ensemble=ens_b)
    assert da.label == db.label


def test_encode_discord_requires_classical_quantum():
    mix = DensityOperator(
        0.5 * tensor(from_pure(Z0), from_pure(Z0)).mat
        + 0.5 * tensor(from_pure(PLUS), from_pure(Z1)).mat,
        (2, 2),
    )
    with pytest.raises(ValueError):
        encode_description("discord", mix)
    assert encode_description("discord", tensor(from_pure(PLUS), from_pure(Z1))) is not None


def test_encode_locality_rejects_chsh_violation():
    with pytest.raises(ValueError):
        encode_description("locality", bell_phi_plus(2))
    assert encode_description("locality", isotropic(2, 5 / 12)) is not None


# ------------------------------------------------------- channel building


def test_eigen_dephasing_branch_matches_probability_transfer():
    sigma = random_real_density(2, 2, make_rng(0))
    desc = encode_description("imaginarity", sigma)
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", [desc])
    branch = ch.branch_for_label(desc.label)
    rho = random_density(2, 2, make_rng(1))
    lam, phi = linalg.hermitian_eig(rho.mat)
    _, basis = linalg.hermitian_eig(sigma.mat)
    expected = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        nu = sum(lam[b] * abs(np.vdot(basis[:, a], phi[:, b])) ** 2 for b in range(2))
        expected += nu * np.outer(basis[:, a], basis[:, a].conj())
    assert np.abs(branch.apply_matrix(rho.mat) - expected).max() < 1e-10


def test_replacement_branch_for_entanglement():
    desc = encode_description("entanglement", ensemble=[(1.0, (PLUS, MINUS))])
    ch = build_conditional_channel("entanglement", "replacement", [desc])
    out = ch.branch_for_label(desc.label).apply_matrix(bell_phi_plus(2).mat)
    assert np.abs(out - desc.state.mat).max() < 1e-12


def test_eigen_dephasing_rejected_for_entanglement():
    desc = encode_description("entanglement", ensemble=[(1.0, (PLUS, MINUS))])
    with pytest.raises(ValueError, match="eigen_dephasing"):
        build_conditional_channel("entanglement", "eigen_dephasing", [desc])


def test_eigen_dephasing_rejected_for_discord_and_locality():
    d_desc = encode_description("discord", tensor(from_pure(Z0), from_pure(Z0)))
    with pytest.raises(ValueError):
        build_conditional_channel("discord", "eigen_dephasing", [d_desc])
    l_desc = encode_description("locality", isotropic(2, 0.2))
    with pytest.raises(ValueError):
        build_conditional_channel("locality", "eigen_dephasing", [l_desc])


@pytest.mark.parametrize("name", sorted(qrt.THEORIES))
def test_registry_entry_contract(name):
    """Every registry entry describes, judges and censors one known free state."""
    known_free = {
        "coherence": {"state": DensityOperator(np.diag([0.25, 0.75]).astype(complex), (2,))},
        "imaginarity": {"state": random_real_density(2, 2, 5)},
        "entanglement": {"ensemble": [(0.5, (Z0, PLUS)), (0.5, (Z1, MINUS))]},
        "discord": {"state": tensor(from_pure(Z0), from_pure(PLUS))},
        "locality": {"state": isotropic(2, 5 / 12)},
    }[name]
    entry = qrt.THEORIES[name]
    desc = encode_description(name, sigma=known_free.get("state"), ensemble=known_free.get("ensemble"))
    assert desc.theory == name
    assert entry.free(desc.state).is_free
    assert entry.excess(desc.state) <= 1e-12

    report = run_protocol(
        NetworkScenario(name, "replacement", [SenderStrategy("honest", **known_free)])
    )
    assert linalg.hs_distance(report.receiver_state.mat, desc.state.mat) < 1e-12
    assert not report.breach

    if entry.sample_free is None:
        with pytest.raises(ValueError, match="not resource destroying"):
            build_conditional_channel(name, "eigen_dephasing", [desc])
    else:
        assert build_conditional_channel(name, "eigen_dephasing", [desc]).kind == "eigen_dephasing"
        probe = entry.sample_free(3, make_rng(0))
        assert probe.dim == 3 and entry.free(probe).is_free


def test_unknown_kind_rejected():
    desc = encode_description("coherence", DensityOperator(np.diag([0.5, 0.5]).astype(complex), (2,)))
    with pytest.raises(ValueError):
        build_conditional_channel("coherence", "twirl", [desc])


def test_duplicate_labels_deduplicated():
    a, b = _commuting_real_pair()
    ch = build_conditional_channel(
        "imaginarity",
        "eigen_dephasing",
        [encode_description("imaginarity", a), encode_description("imaginarity", b)],
    )
    assert len(ch.labels) == 1
    assert ch.message_dim == 2


def test_default_branch_on_unknown_label():
    sigma = random_real_density(2, 2, make_rng(2))
    ch = build_conditional_channel(
        "imaginarity", "eigen_dephasing", [encode_description("imaginarity", sigma)]
    )
    out = ch.branch_for_label(b"garbage").apply_matrix(from_pure(PLUS).mat)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12
    assert np.abs(ch.branch_for_index(5).apply_matrix(sigma.mat) - np.eye(2) / 2).max() < 1e-12


# --------------------------------------------------------- apply_censorship


def _single_sender_joint(ch, index, system_mat):
    m = ch.message_dim
    proj = np.zeros((m, m), dtype=complex)
    proj[index, index] = 1.0
    return DensityOperator(np.kron(proj, system_mat), (m,) + ch.system_dims)


def test_honest_message_fixes_state():
    sigma = random_real_density(2, 2, make_rng(3))
    desc = encode_description("imaginarity", sigma)
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", [desc])
    joint = _single_sender_joint(ch, 0, sigma.mat)
    out = apply_censorship(ch, joint)
    assert np.abs(out.mat - sigma.mat).max() < 1e-9


def test_untruthful_message_yields_free_state():
    sigma = random_real_density(2, 2, make_rng(4))
    desc = encode_description("imaginarity", sigma)
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", [desc])
    resource = DensityOperator(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]]), (2,))
    out = apply_censorship(ch, _single_sender_joint(ch, 0, resource.mat))
    assert qrt.is_free_imaginarity(out).is_free


def test_message_superposition_splits_into_branch_mixture():
    a, _ = _commuting_real_pair(0.3)
    c, _ = _commuting_real_pair(1.1)
    da = encode_description("imaginarity", a)
    dc = encode_description("imaginarity", c)
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", [da, dc])
    sup = np.zeros(ch.message_dim, dtype=complex)
    sup[0] = sup[1] = 1 / np.sqrt(2)
    joint = DensityOperator(np.kron(np.outer(sup, sup.conj()), a.mat), (3, 2))
    out = apply_censorship(ch, joint)
    expected = 0.5 * ch.branch_for_index(0).apply_matrix(a.mat) + 0.5 * ch.branch_for_index(
        1
    ).apply_matrix(a.mat)
    assert np.abs(out.mat - expected).max() < 1e-12


def test_apply_censorship_trace_preserving_and_linear():
    rng = make_rng(5)
    descs = [encode_description("imaginarity", random_real_density(2, 2, rng)) for _ in range(2)]
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", descs)
    m = ch.message_dim
    dim = (m * 2) ** 2
    a = random_density(dim, dim, rng, dims=(m, 2, m, 2))
    b = random_density(dim, dim, rng, dims=(m, 2, m, 2))
    out_a = apply_censorship(ch, a)
    out_b = apply_censorship(ch, b)
    assert abs(float(out_a.mat.trace().real) - 1.0) < 1e-10
    t = 0.37
    mix = DensityOperator(t * a.mat + (1 - t) * b.mat, a.dims)
    out_mix = apply_censorship(ch, mix)
    assert np.abs(out_mix.mat - (t * out_a.mat + (1 - t) * out_b.mat)).max() < 1e-12


def test_apply_censorship_validates_layout():
    sigma = random_real_density(2, 2, make_rng(6))
    ch = build_conditional_channel(
        "imaginarity", "eigen_dephasing", [encode_description("imaginarity", sigma)]
    )
    bad = random_density(9, 9, make_rng(7), dims=(3, 3))
    with pytest.raises(ValueError):
        apply_censorship(ch, bad)


# ------------------------------------------------------------ run_protocol


def test_two_honest_imaginarity_senders_unchanged():
    rng = make_rng(8)
    s1 = random_real_density(2, 2, rng)
    s2 = random_real_density(2, 2, rng)
    report = run_protocol(
        NetworkScenario(
            "imaginarity",
            "eigen_dephasing",
            [SenderStrategy("honest", state=s1), SenderStrategy("honest", state=s2)],
        )
    )
    assert not report.breach
    assert np.abs(report.receiver_state.mat - np.kron(s1.mat, s2.mat)).max() < 1e-9
    assert report.verdicts["imaginarity"].is_free


def test_honest_claim_mismatch_rejected():
    a, _ = _commuting_real_pair(0.2)
    c, _ = _commuting_real_pair(1.2)
    with pytest.raises(ScenarioError):
        run_protocol(
            NetworkScenario(
                "imaginarity",
                "eigen_dephasing",
                [SenderStrategy("honest", state=a, claimed=Claim(state=c))],
            )
        )


def test_honest_sender_with_resource_state_rejected():
    resource = DensityOperator(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]]), (2,))
    with pytest.raises(ScenarioError):
        run_protocol(
            NetworkScenario(
                "imaginarity", "eigen_dephasing", [SenderStrategy("honest", state=resource)]
            )
        )


def test_untruthful_bell_claim_filtered_to_product():
    claimed = Claim(ensemble=[(1.0, (PLUS, MINUS))])
    report = run_protocol(
        NetworkScenario(
            "entanglement",
            "replacement",
            [SenderStrategy("untruthful", state=bell_phi_plus(2), claimed=claimed)],
        )
    )
    target = tensor(from_pure(PLUS), from_pure(MINUS))
    assert np.abs(report.receiver_state.mat - target.mat).max() < 1e-12
    assert not report.breach


def test_correlated_discord_mixture_breaches():
    s0 = tensor(from_pure(Z0), from_pure(Z0))
    s1 = tensor(from_pure(PLUS), from_pure(Z1))
    d0 = encode_description("discord", s0)
    d1 = encode_description("discord", s1)
    joint = np.zeros((12, 12), dtype=complex)
    for idx, comp in ((0, s0), (1, s1)):
        proj = np.zeros((3, 3), dtype=complex)
        proj[idx, idx] = 1.0
        joint += 0.5 * np.kron(proj, comp.mat)
    report = run_protocol(
        NetworkScenario(
            "discord",
            "replacement",
            [
                SenderStrategy(
                    "correlated",
                    state=DensityOperator(joint, (3, 2, 2)),
                    claimed=[d0, d1],
                    spans=1,
                )
            ],
        )
    )
    assert report.breach
    assert report.verdicts["discord"].witness_value > 1e-3
    expected = 0.5 * s0.mat + 0.5 * s1.mat
    assert np.abs(report.receiver_state.mat - expected).max() < 1e-10


def test_correlated_wrong_dims_rejected():
    s0 = tensor(from_pure(Z0), from_pure(Z0))
    d0 = encode_description("discord", s0)
    # one registered label means message dim 2; a 3-dim register must be rejected
    bad = DensityOperator(np.kron(np.diag([1.0, 0.0, 0.0]).astype(complex), s0.mat), (3, 2, 2))
    with pytest.raises(ScenarioError):
        run_protocol(
            NetworkScenario(
                "discord",
                "replacement",
                [SenderStrategy("correlated", state=bad, claimed=[d0], spans=1)],
            )
        )


def test_activation_scenario_marginals_and_notes():
    sigma = isotropic(2, 5 / 12)
    report = run_protocol(
        NetworkScenario(
            "locality",
            "replacement",
            [SenderStrategy("honest", state=sigma), SenderStrategy("honest", state=sigma)],
        )
    )
    assert not report.breach
    assert not report.verdicts["locality"].decisive  # CHSH pass is necessary-only
    for k in range(2):
        marg = report.receiver_state.marginal([2 * k, 2 * k + 1])
        assert linalg.hs_distance(marg.mat, sigma.mat) < 1e-10
    assert any("activation risk" in note for note in report.notes)
    assert not report.verdicts["entanglement"].is_free  # in-window state is NPT


def test_noise_scenario_records_distances():
    sigma = from_pure(PLUS)
    report = run_protocol(
        NetworkScenario(
            "imaginarity",
            "eigen_dephasing",
            [SenderStrategy("honest", state=sigma)],
            noise=ChannelSpec("amplitude_damping", {"gamma": 0.5}),
        )
    )
    assert report.distances is not None
    rec = report.distances[0]
    assert rec["d_censored"] <= rec["d_noisy"] + 1e-12
    assert rec["d_noisy"] > 0.1
    assert qrt.is_free_imaginarity(report.receiver_state).is_free


def test_unknown_theory_and_kind_rejected():
    with pytest.raises(ValueError):
        run_protocol(NetworkScenario("magic", "replacement", [SenderStrategy("honest")]))
    rho = DensityOperator(np.diag([0.5, 0.5]).astype(complex), (2,))
    with pytest.raises(ScenarioError):
        run_protocol(NetworkScenario("coherence", "twirl", [SenderStrategy("honest", state=rho)]))


# ------------------------------------------------------------- smuggle demo


def test_smuggle_demo_receiver_is_bell_state():
    report = smuggle_eigenstate_demo()
    assert report.breach
    assert report.extras["distance_to_phi_plus"] < 1e-10
    assert abs(report.extras["ppt_witness"] - (-0.5)) < 1e-9
    assert report.extras["described_state_fixed_point_defect"] < 1e-9


# --------------------------------------------------------- noise comparison


def test_noise_comparison_identity_noise_zero():
    sigma = from_pure(PLUS)
    result = noise_comparison(sigma, identity_channel(2))
    assert result.d_noisy < 1e-12
    assert result.d_censored < 1e-12


def test_noise_comparison_diagonal_equality_case():
    sigma = DensityOperator(np.diag([0.8, 0.2]).astype(complex), (2,))
    result = noise_comparison(sigma, depolarizing(2, 0.3))
    assert abs(result.d_noisy - result.d_censored) < 1e-12


def test_noise_comparison_amplitude_damping_improves():
    result = noise_comparison(from_pure(PLUS), amplitude_damping(0.5))
    assert result.d_censored <= result.d_noisy + 1e-12
    assert result.d_censored < result.d_noisy  # strictly better off-eigenbasis


def test_noise_comparison_rejects_non_free_sigma():
    rho = DensityOperator(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]]), (2,))
    with pytest.raises(ValueError):
        noise_comparison(rho, amplitude_damping(0.1))


def test_noise_comparison_rejects_resource_generating_noise():
    # dephasing in a complex basis creates imaginary parts from real states
    phase = np.array([[1.0, 0.0], [0.0, np.exp(0.7j)]])
    basis = phase @ np.column_stack([PLUS, MINUS])
    from qcensor.channels import KrausChannel

    rotate = KrausChannel((basis,), (2,), (2,))
    with pytest.raises(ValueError):
        noise_comparison(from_pure(PLUS), rotate)


# ----------------------------------------------- unbreakability mini-suites


def test_affine_receivers_stay_real_mini():
    rng = make_rng(9)
    for _ in range(20):
        descs = [
            encode_description("imaginarity", random_real_density(2, 2, rng)) for _ in range(2)
        ]
        ch = build_conditional_channel("imaginarity", "eigen_dephasing", descs)
        m = ch.message_dim
        dim = (m * 2) ** 2
        joint = random_density(dim, dim, rng, dims=(m, 2, m, 2))
        receiver = apply_censorship(ch, joint)
        assert np.abs(receiver.mat.imag).max() <= 1e-9


def test_convex_receivers_reconstruct_mini():
    from qcensor.suites import random_separable_ensemble

    rng = make_rng(10)
    for _ in range(5):
        descs = [
            encode_description("entanglement", ensemble=random_separable_ensemble(rng))
            for _ in range(2)
        ]
        ch = build_conditional_channel("entanglement", "replacement", descs)
        m = ch.message_dim
        dim = (m * 4) ** 2
        joint = random_density(dim, dim, rng, dims=(m, 2, 2, m, 2, 2))
        receiver = apply_censorship(ch, joint)
        tensor_form = joint.mat.reshape(joint.dims + joint.dims)
        weights = np.einsum(tensor_form, [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5], [0, 3]).real
        expected = np.zeros((16, 16), dtype=complex)
        for i in range(m):
            for j in range(m):
                expected += weights[i, j] * np.kron(
                    ch.target_for_index(i).mat, ch.target_for_index(j).mat
                )
        assert np.abs(receiver.mat - expected).max() <= 1e-9
        assert qrt.ppt_all_cuts(receiver).is_free
