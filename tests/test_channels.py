import numpy as np
import pytest

from dense_reference import kraus_apply, kraus_choi, kraus_dephasing
from qcensor import linalg
from qcensor.censorship import build_conditional_channel, encode_description
from qcensor.channels import (
    ChannelSpec,
    EbVerdict,
    GeneralLinearMap,
    KrausChannel,
    amplitude_damping,
    apply,
    choi,
    dephasing_channel,
    depolarizing,
    identity_channel,
    imaginarity_rd_map,
    is_completely_positive,
    is_entanglement_breaking,
    mix_maps,
    replacement_channel,
    transpose_map,
)
from qcensor.states import (
    DensityOperator,
    bell_phi_plus,
    from_pure,
    make_rng,
    maximally_mixed,
    random_density,
    random_real_density,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


# ----------------------------------------------------------------- apply


def test_identity_channel_fixes_input():
    rho = random_density(3, 3, make_rng(0))
    out = apply(identity_channel(3), rho)
    assert np.abs(out.mat - rho.mat).max() < 1e-15


def test_dephasing_destroys_plus_state():
    deph = dephasing_channel(np.eye(2))
    out = apply(deph, from_pure(PLUS))
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-15


def test_transpose_map_transposes():
    rho = random_density(3, 3, make_rng(1))
    out = apply(transpose_map(3), rho)
    assert np.abs(out - rho.mat.T).max() < 1e-12


def test_apply_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        apply(identity_channel(2), random_density(3, 3, make_rng(2)))


# ------------------------------------------------------------- dephasing


def test_dephasing_computational_fixed_point():
    deph = dephasing_channel(np.eye(2))
    diag = DensityOperator(np.diag([0.3, 0.7]).astype(complex), (2,))
    out = apply(deph, diag)
    assert np.abs(out.mat - diag.mat).max() < 1e-15


def test_dephasing_hadamard_basis_on_zero():
    # oracle: |<+|0>|^2 = |<-|0>|^2 = 1/2, so the projector sum is I/2
    basis = np.column_stack([PLUS, MINUS])
    out = apply(dephasing_channel(basis), from_pure(np.array([1.0, 0.0])))
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-15


def test_dephasing_eigenbasis_probability_transfer():
    # output weights must be nu_a = sum_b lambda_b |<basis_a|phi_b>|^2
    rng = make_rng(3)
    sigma = random_density(3, 3, rng)
    rho = random_density(3, 3, rng)
    _, basis = linalg.hermitian_eig(sigma.mat)
    out = apply(dephasing_channel(basis), rho)
    lam, phi = linalg.hermitian_eig(rho.mat)
    expected = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        nu = sum(lam[b] * abs(np.vdot(basis[:, a], phi[:, b])) ** 2 for b in range(3))
        expected += nu * np.outer(basis[:, a], basis[:, a].conj())
    assert np.abs(out.mat - expected).max() < 1e-10


def test_dephasing_rejects_nonunitary_basis():
    with pytest.raises(ValueError):
        dephasing_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_dephasing_idempotent():
    rng = make_rng(4)
    basis, _ = np.linalg.qr(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    )
    deph = dephasing_channel(basis)
    for _ in range(10):
        rho = random_density(3, 3, rng)
        once = deph.apply_matrix(rho.mat)
        twice = deph.apply_matrix(once)
        assert np.abs(twice - once).max() < 1e-10


# ------------------------------------------------------------ replacement


def test_replacement_outputs_target_exactly():
    rng = make_rng(5)
    sigma = random_density(2, 2, rng)
    repl = replacement_channel(sigma)
    for _ in range(5):
        out = apply(repl, random_density(2, 2, rng))
        assert np.abs(out.mat - sigma.mat).max() < 1e-12


def test_replacement_mixed_target_on_pure_input():
    repl = replacement_channel(maximally_mixed((2,)))
    out = apply(repl, from_pure(np.array([1.0, 0.0])))
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


def test_replacement_bell_to_product():
    sigma = from_pure(np.kron(PLUS, MINUS), dims=(2, 2))
    repl = replacement_channel(sigma)
    out = apply(repl, bell_phi_plus(2))
    assert np.abs(out.mat - sigma.mat).max() < 1e-12


def test_replacement_input_independent():
    rng = make_rng(6)
    repl = replacement_channel(random_density(3, 2, rng))
    a = repl.apply_matrix(random_density(3, 3, rng).mat)
    b = repl.apply_matrix(random_density(3, 3, rng).mat)
    assert np.abs(a - b).max() < 1e-10


# ----------------------------------------------------------- depolarizing


def test_depolarizing_endpoints():
    rho = random_density(2, 2, make_rng(7))
    assert np.abs(apply(depolarizing(2, 0.0), rho).mat - rho.mat).max() < 1e-12
    assert np.abs(apply(depolarizing(2, 1.0), rho).mat - np.eye(2) / 2).max() < 1e-12


def test_depolarizing_convex_combination_arithmetic():
    rho = DensityOperator(np.diag([0.8, 0.2]).astype(complex), (2,))
    out = apply(depolarizing(2, 0.5), rho)
    assert np.abs(out.mat - np.diag([0.65, 0.35])).max() < 1e-12


def test_depolarizing_rejects_bad_strength():
    with pytest.raises(ValueError):
        depolarizing(2, 1.5)


# ------------------------------------------------------ amplitude damping


def test_amplitude_damping_kraus_valid():
    ch = amplitude_damping(0.3)
    total = sum(k.conj().T @ k for k in ch.kraus)
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_amplitude_damping_full_decay():
    out = apply(amplitude_damping(1.0), from_pure(np.array([0.0, 1.0])))
    assert np.abs(out.mat - np.diag([1.0, 0.0])).max() < 1e-12


# -------------------------------------------------------- imaginarity map


def test_imaginarity_map_fixes_real_states():
    rng = make_rng(8)
    from qcensor.states import random_real_density

    sigma = random_real_density(2, 2, rng)
    out = apply(imaginarity_rd_map(2), sigma)
    assert np.abs(out - sigma.mat).max() < 1e-12


def test_imaginarity_map_y_state_to_mixed():
    rho = DensityOperator(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]]), (2,))
    out = apply(imaginarity_rd_map(2), rho)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_imaginarity_map_output_real_valid_state():
    rng = make_rng(9)
    for _ in range(20):
        rho = random_density(2, 2, rng)
        out = apply(imaginarity_rd_map(2), rho)
        assert np.abs(out.imag).max() < 1e-12
        assert linalg.min_eigenvalue(out) > -1e-12
        assert abs(out.trace().real - 1.0) < 1e-12


def test_imaginarity_choi_spectrum():
    # Under the fixed convention (identity -> 2 phi+, transpose -> SWAP) the
    # symmetrization map (id + transpose)/2 has Choi spectrum
    # {3/2, 1/2, 1/2, -1/2}; the -1 eigenvalue belongs to the bare transpose.
    w = np.sort(np.linalg.eigvalsh(choi(imaginarity_rd_map(2)).mat))
    assert np.abs(w - np.array([-0.5, 0.5, 0.5, 1.5])).max() < 1e-12


# ------------------------------------------------------------------ choi


def test_choi_identity_is_twice_bell():
    c = choi(identity_channel(2))
    assert np.abs(c.mat - 2 * bell_phi_plus(2).mat).max() < 1e-12


def test_choi_transpose_is_swap():
    c = choi(transpose_map(2))
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    assert np.abs(c.mat - swap).max() < 1e-12
    w = np.sort(np.linalg.eigvalsh(c.mat))
    assert np.abs(w - np.array([-1.0, 1.0, 1.0, 1.0])).max() < 1e-12
    assert linalg.min_eigenvalue(c.mat) < -1e-9


def test_choi_dephasing_positive():
    basis = np.column_stack([PLUS, MINUS])
    c = choi(dephasing_channel(basis))
    assert linalg.min_eigenvalue(c.mat) > -1e-12


def test_choi_partial_trace_invariant():
    c = choi(amplitude_damping(0.4))
    reduced = linalg.partial_trace(c.mat, (2, 2), keep=[1])
    assert np.abs(reduced - np.eye(2)).max() < 1e-12


def test_choi_consistent_with_kraus_application():
    rng = make_rng(10)
    basis = np.column_stack([PLUS, MINUS])
    ch, kraus = dephasing_channel(basis), kraus_dephasing(basis).kraus
    assert np.abs(choi(ch).mat - kraus_choi(kraus)).max() < 1e-12
    for _ in range(10):
        rho = random_density(2, 2, rng)
        assert np.abs(ch.apply_matrix(rho.mat) - kraus_apply(kraus, rho.mat)).max() < 1e-10


# ------------------------------------------------------ complete positivity


def _uncertified(ch: KrausChannel) -> GeneralLinearMap:
    """The transfer of a channel alone, with no Kraus operators to certify it."""
    return GeneralLinearMap(ch.transfer, ch.in_dims, ch.out_dims)


def test_kraus_channels_are_cp():
    for ch in (identity_channel(2), depolarizing(2, 0.5), amplitude_damping(0.2)):
        assert is_completely_positive(_uncertified(ch))


def test_imaginarity_map_not_cp():
    assert not is_completely_positive(imaginarity_rd_map(2))


def test_mixture_of_cp_maps_is_cp():
    maps = [
        _uncertified(identity_channel(2)),
        _uncertified(depolarizing(2, 0.7)),
    ]
    assert is_completely_positive(mix_maps(maps, [0.4, 0.6]))


# -------------------------------------------------- entanglement breaking


def test_replacement_is_entanglement_breaking():
    verdict = is_entanglement_breaking(replacement_channel(random_density(2, 2, make_rng(11))))
    assert verdict.is_breaking and verdict.decisive


def test_dephasing_is_entanglement_breaking():
    verdict = is_entanglement_breaking(dephasing_channel(np.column_stack([PLUS, MINUS])))
    assert verdict.is_breaking and verdict.decisive


def test_branches_are_decisively_entanglement_breaking():
    # both kinds of branch, and the I/d default, by their Holevo pairs alone
    rng = make_rng(13)
    for theory, kind in (("coherence", "replacement"), ("imaginarity", "eigen_dephasing")):
        states = [random_real_density(2, 2, rng) for _ in range(2)]
        if theory == "coherence":
            states = [DensityOperator(np.diag(np.diag(s.mat)), (2,)) for s in states]
        descs = [encode_description(theory, s) for s in states]
        ch = build_conditional_channel(theory, kind, descs)
        assert len(ch.branches) == 3
        for branch in ch.branches:
            assert branch.effects is not None
            assert is_entanglement_breaking(branch) == EbVerdict(True, True)


def test_a_map_with_no_certificate_is_not_known_to_be_a_channel():
    for linear_map in (transpose_map(2), imaginarity_rd_map(2), _uncertified(identity_channel(2))):
        with pytest.raises(ValueError, match="not known to be a channel"):
            is_entanglement_breaking(linear_map)
        assert not isinstance(apply(linear_map, maximally_mixed((2,))), DensityOperator)
    for ch in (dephasing_channel(np.eye(2)), replacement_channel(maximally_mixed((2,)))):
        assert isinstance(apply(ch, maximally_mixed((2,))), DensityOperator)


def test_identity_not_entanglement_breaking():
    verdict = is_entanglement_breaking(identity_channel(2))
    assert not verdict.is_breaking and verdict.decisive


def test_large_dim_ppt_verdict_flagged():
    # qutrit depolarizing at mid strength: Choi PPT check is 3x3, necessary only
    verdict = is_entanglement_breaking(depolarizing(3, 0.9))
    assert verdict.is_breaking
    assert not verdict.decisive


# ------------------------------------------------------------- invariants


def test_trace_preserved_on_random_states():
    rng = make_rng(12)
    chans = [
        identity_channel(2),
        dephasing_channel(np.column_stack([PLUS, MINUS])),
        replacement_channel(random_density(2, 2, rng)),
        depolarizing(2, 0.3),
        amplitude_damping(0.6),
    ]
    for ch in chans:
        for _ in range(10):
            out = ch.apply_matrix(random_density(2, 2, rng).mat)
            assert abs(out.trace().real - 1.0) < 1e-10


def test_kraus_validation_rejects_non_tp():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,), (2,), (2,))


def test_channel_spec_builds_and_rejects():
    spec = ChannelSpec("depolarizing", {"strength": 0.25})
    ch = spec.build((2, 2))
    assert ch.in_dim == 4
    with pytest.raises(ValueError):
        ChannelSpec("amplitude_damping", {"gamma": 0.1}).build((2, 2))
    with pytest.raises(ValueError):
        ChannelSpec("bogus").build(2)


def test_depolarizing_spec_builds_one_channel(monkeypatch):
    built = []
    post_init = KrausChannel.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(KrausChannel, "__post_init__", counted)
    ch = ChannelSpec("depolarizing", {"strength": 0.25}).build((2, 2))
    assert built == [ch]
    assert ch.in_dims == ch.out_dims == (2, 2)
    assert np.abs(ch.transfer - depolarizing(4, 0.25).transfer).max() == 0.0
