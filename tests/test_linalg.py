import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import reference_hermitian_eig
from qcensor import linalg
from qcensor.channels import dephasing_channel, replacement_channel
from qcensor.states import isotropic, make_rng, maximally_mixed, random_density

# Frozen by independent scalar evaluation: -(0.9 ln 0.9 + 0.1 ln 0.1)
ENTROPY_09_01 = 0.3250829733914482


def _rand_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _rand_hermitian(rng, d):
    m = _rand_matrix(rng, d)
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- kron


def test_kron_identity():
    out = linalg.kron_all([np.eye(2), np.eye(2)])
    assert np.array_equal(out, np.eye(4))


def test_kron_basis_projectors():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert np.array_equal(linalg.kron_all([p0, p1]), np.diag([0.0, 1.0, 0.0, 0.0]))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_kron_mixed_product_rule(seed):
    # (A x B)(C x D) = AC x BD, checked against direct multiplication
    rng = np.random.default_rng(seed)
    a, b, c, d = (_rand_matrix(rng, 2) for _ in range(4))
    lhs = linalg.kron_all([a, b]) @ linalg.kron_all([c, d])
    rhs = linalg.kron_all([a @ c, b @ d])
    assert np.abs(lhs - rhs).max() < 1e-12


def test_kron_rejects_nonfinite():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        linalg.kron_all([bad, np.eye(2)])


# ---------------------------------------------------------- partial trace


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(0)
    rho = random_density(2, 2, make_rng(1)).mat
    tau = random_density(3, 3, make_rng(2)).mat
    joint = np.kron(rho, tau)
    reduced = linalg.partial_trace(joint, (2, 3), keep=[0])
    assert np.abs(reduced - rho * tau.trace()).max() < 1e-12


def test_partial_trace_bell_marginal_explicit_sum():
    # oracle: direct 4x4 index sum over the traced factor
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = np.outer(vec, vec)
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[i, j] = sum(rho[i * 2 + k, j * 2 + k] for k in range(2))
    got = linalg.partial_trace(rho, (2, 2), keep=[0])
    assert np.abs(got - expected).max() < 1e-14
    assert np.abs(got - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_keep_all_is_identity():
    rho = random_density(6, 6, make_rng(3), dims=(2, 3)).mat
    assert np.abs(linalg.partial_trace(rho, (2, 3), keep=[0, 1]) - rho).max() == 0.0


def test_partial_trace_preserves_trace():
    rng = make_rng(4)
    for _ in range(20):
        rho = random_density(12, 12, rng, dims=(2, 2, 3)).mat
        for keep in ([0], [1], [2], [0, 2]):
            reduced = linalg.partial_trace(rho, (2, 2, 3), keep=keep)
            assert abs(reduced.trace() - rho.trace()) < 1e-12


def test_partial_trace_index_out_of_range():
    rho = np.eye(4) / 4
    with pytest.raises(IndexError):
        linalg.partial_trace(rho, (2, 2), keep=[2])


# ------------------------------------------------------ partial transpose


def test_partial_transpose_product_action():
    rho = random_density(2, 2, make_rng(5)).mat
    tau = random_density(2, 2, make_rng(6)).mat
    joint = np.kron(rho, tau)
    got = linalg.partial_transpose(joint, (2, 2), 1)
    assert np.abs(got - np.kron(rho, tau.T)).max() < 1e-14


def test_partial_transpose_bell_witness():
    # oracle: the transposed matrix written out by hand, then eigensolved
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = np.outer(vec, vec)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5  # diagonal survives
    expected[1, 2] = expected[2, 1] = 0.5  # coherences move to the swap block
    got = linalg.partial_transpose(rho, (2, 2), 1)
    assert np.abs(got - expected).max() < 1e-14
    assert abs(linalg.min_eigenvalue(got) - (-0.5)) < 1e-12


def test_partial_transpose_involution():
    rho = random_density(6, 6, make_rng(7), dims=(2, 3)).mat
    twice = linalg.partial_transpose(linalg.partial_transpose(rho, (2, 3), 0), (2, 3), 0)
    assert np.abs(twice - rho).max() == 0.0


def test_partial_transpose_preserves_product_spectrum():
    rho = random_density(2, 2, make_rng(8)).mat
    tau = random_density(3, 3, make_rng(9)).mat
    joint = np.kron(rho, tau)
    before = np.sort(np.linalg.eigvalsh(joint))
    after = np.sort(np.linalg.eigvalsh(linalg.partial_transpose(joint, (2, 3), 1)))
    assert np.abs(before - after).max() < 1e-12


def test_partial_transpose_index_out_of_range():
    with pytest.raises(IndexError):
        linalg.partial_transpose(np.eye(4), (2, 2), 5)


# --------------------------------------------------------- hermitian_eig


def test_hermitian_eig_diagonal():
    w, v = linalg.hermitian_eig(np.diag([0.7, 0.3]).astype(complex))
    assert np.abs(w - np.array([0.7, 0.3])).max() < 1e-14
    assert np.abs(v - np.eye(2)).max() < 1e-14


def test_hermitian_eig_plus_projector():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    w, v = linalg.hermitian_eig(np.outer(plus, plus))
    assert np.abs(w - np.array([1.0, 0.0])).max() < 1e-12
    assert np.abs(v[:, 0] - plus).max() < 1e-12  # canonical sign: positive pivot


@given(st.integers(0, 10_000), st.integers(2, 16))
@settings(max_examples=30, deadline=None)
def test_hermitian_eig_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    h = _rand_hermitian(rng, dim)
    w, v = linalg.hermitian_eig(h)
    assert np.abs(h - (v * w) @ v.conj().T).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
    assert np.all(np.diff(w) <= 1e-12)  # descending


def test_hermitian_eig_deterministic():
    h = _rand_hermitian(np.random.default_rng(11), 6)
    w1, v1 = linalg.hermitian_eig(h)
    w2, v2 = linalg.hermitian_eig(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_hermitian_eig_matches_reference_without_degeneracy(seed, dim):
    h = _rand_hermitian(np.random.default_rng(seed), dim)
    w, v = linalg.hermitian_eig(h)
    assume(np.diff(w).max() < -1e-9)  # no group for the reference's tie sort
    ref_w, ref_v = reference_hermitian_eig(h)
    assert np.array_equal(w, ref_w)
    assert np.array_equal(v, ref_v)


def _degenerate_state(kind, rng):
    if kind == "isotropic":
        return isotropic(int(rng.integers(2, 4)), float(rng.random()))
    if kind == "maximally_mixed":
        return maximally_mixed((int(rng.integers(2, 9)),))
    dim = int(rng.integers(3, 9))
    return random_density(dim, int(rng.integers(1, dim - 1)), rng)


@given(st.sampled_from(["isotropic", "maximally_mixed", "rank_deficient"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hermitian_eig_agrees_with_reference_on_degenerate_spectra(kind, seed):
    # Inside a degenerate group the two orders differ; everything read from
    # the basis must not.
    sigma = _degenerate_state(kind, np.random.default_rng(seed))
    w, v = linalg.hermitian_eig(sigma.mat)
    ref_w, ref_v = reference_hermitian_eig(sigma.mat)
    assert np.array_equal(w, ref_w)
    assert np.abs(v.conj().T @ v - np.eye(sigma.dim)).max() < 1e-12
    mags = np.abs(v)
    pivots = v[(mags >= mags.max(0) - 1e-10).argmax(0), np.arange(sigma.dim)]
    assert np.all(pivots.real > 0) and np.abs(pivots.imag).max() < 1e-15
    starts = np.flatnonzero(np.r_[True, np.diff(w) < -1e-10 * max(1.0, np.abs(w).max())])
    for group in np.split(np.arange(sigma.dim), starts[1:]):
        proj = v[:, group] @ v[:, group].conj().T
        ref_proj = ref_v[:, group] @ ref_v[:, group].conj().T
        assert np.abs(proj - ref_proj).max() < 1e-12
    dephase = dephasing_channel(v, sigma.dims).transfer
    assert np.abs(dephase - dephasing_channel(ref_v, sigma.dims).transfer).max() < 1e-15
    replace = replacement_channel(sigma).transfer
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "hermitian_eig", reference_hermitian_eig)
        ref_replace = replacement_channel(sigma).transfer
    assert np.abs(replace - ref_replace).max() < 1e-15


# --------------------------------------------------------------- entropy


def test_entropy_pure_state_zero():
    vec = np.array([1.0, 1.0j]) / np.sqrt(2)
    assert linalg.von_neumann_entropy(np.outer(vec, vec.conj())) < 1e-12


def test_entropy_maximally_mixed_qubit():
    assert abs(linalg.von_neumann_entropy(np.eye(2) / 2) - math.log(2)) < 1e-12


def test_entropy_frozen_binary_value():
    got = linalg.von_neumann_entropy(np.diag([0.9, 0.1]).astype(complex))
    assert abs(got - ENTROPY_09_01) < 1e-12


def test_entropy_additive_on_products():
    rng = make_rng(12)
    for _ in range(10):
        a = random_density(2, 2, rng).mat
        b = random_density(3, 3, rng).mat
        joint = np.kron(a, b)
        split = linalg.von_neumann_entropy(a) + linalg.von_neumann_entropy(b)
        assert abs(linalg.von_neumann_entropy(joint) - split) < 1e-9


def test_entropy_rejects_invalid_state():
    with pytest.raises(ValueError):
        linalg.von_neumann_entropy(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        linalg.von_neumann_entropy(np.diag([0.4, 0.4]))


# ------------------------------------------------------------- distances


def test_hs_distance_zero_on_equal():
    rho = random_density(3, 3, make_rng(13)).mat
    assert linalg.hs_distance(rho, rho) == 0.0


def test_hs_distance_orthogonal_projectors():
    # direct 2x2 evaluation: sqrt(1^2 + 1^2)
    assert abs(linalg.hs_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - math.sqrt(2)) < 1e-14


def test_hs_distance_triangle_inequality():
    rng = make_rng(14)
    for _ in range(25):
        a = random_density(4, 4, rng).mat
        b = random_density(4, 4, rng).mat
        c = random_density(4, 4, rng).mat
        assert linalg.hs_distance(a, c) <= linalg.hs_distance(a, b) + linalg.hs_distance(b, c) + 1e-12


def test_hs_distance_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.hs_distance(np.eye(2), np.eye(3))


# ---------------------------------------------------------------- psd
# A matrix is positive semidefinite when its smallest eigenvalue is >= -TOL_PSD.


def test_psd_identity():
    assert linalg.min_eigenvalue(np.eye(3)) >= -linalg.TOL_PSD


def test_psd_explicit_negative_eigenvalue():
    assert linalg.min_eigenvalue(np.diag([1.0, -0.01])) < -1e-9


def test_psd_requires_hermitian():
    with pytest.raises(ValueError):
        linalg.min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_signature_validation():
    with pytest.raises(ValueError):
        linalg.check_signature((2, 2), 5)
    with pytest.raises(ValueError):
        linalg.check_signature((1, 4), 4)
    assert linalg.check_signature([2, 3], 6) == (2, 3)
