import numpy as np
import pytest

from qcensor import linalg
from qcensor.states import (
    DensityOperator,
    bell_phi_plus,
    from_pure,
    isotropic,
    make_rng,
    maximally_mixed,
    random_density,
    random_real_density,
    tensor,
    validate,
)


def test_from_pure_basis_state():
    rho = from_pure(np.array([1.0, 0.0]))
    assert np.abs(rho.mat - np.diag([1.0, 0.0])).max() < 1e-15


def test_from_pure_plus_state():
    rho = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.abs(rho.mat - 0.5 * np.ones((2, 2))).max() < 1e-15


def test_from_pure_random_purity():
    rng = make_rng(0)
    from qcensor.states import random_pure_vector

    for _ in range(10):
        rho = from_pure(random_pure_vector(5, rng))
        purity = float(np.trace(rho.mat @ rho.mat).real)
        assert abs(purity - 1.0) < 1e-10


def test_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        from_pure(np.array([1.0, 1.0]))


def test_bell_qubits_matches_expected_matrix():
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.abs(bell_phi_plus(2).mat - expected).max() < 1e-15


def test_bell_marginals_maximally_mixed():
    for d in (2, 3, 4):
        rho = bell_phi_plus(d)
        for keep in ([0], [1]):
            marg = rho.marginal(keep)
            assert np.abs(marg.mat - np.eye(d) / d).max() < 1e-12


def test_bell_qutrit_entries_direct_construction():
    # oracle: place 1/3 at every (aa, bb) position by loop
    expected = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            expected[a * 3 + a, b * 3 + b] = 1.0 / 3.0
    assert np.abs(bell_phi_plus(3).mat - expected).max() < 1e-15


def test_bell_rejects_small_dimension():
    with pytest.raises(ValueError):
        bell_phi_plus(1)


def test_isotropic_endpoints():
    assert np.abs(isotropic(2, 0.0).mat - np.eye(4) / 4).max() < 1e-15
    assert np.abs(isotropic(2, 1.0).mat - bell_phi_plus(2).mat).max() < 1e-15


def test_isotropic_rejects_out_of_range():
    with pytest.raises(ValueError):
        isotropic(2, -0.1)
    with pytest.raises(ValueError):
        isotropic(2, 1.1)


def test_isotropic_spectrum_structure():
    for d, p in ((2, 0.3), (3, 0.6), (2, 1 / 3)):
        w, _ = linalg.hermitian_eig(isotropic(d, p).mat)
        top = p + (1 - p) / d**2
        rest = (1 - p) / d**2
        assert abs(w[0] - top) < 1e-12
        assert np.abs(w[1:] - rest).max() < 1e-12


def test_random_density_rank_one_is_pure():
    rho = random_density(4, 1, make_rng(1))
    purity = float(np.trace(rho.mat @ rho.mat).real)
    assert abs(purity - 1.0) < 1e-10


def test_random_density_deterministic_for_seed():
    a = random_density(5, 3, 42)
    b = random_density(5, 3, 42)
    assert np.array_equal(a.mat, b.mat)


def test_random_density_monte_carlo_mean():
    rng = make_rng(2)
    acc = np.zeros((2, 2), dtype=complex)
    n = 1000
    for _ in range(n):
        acc += random_density(2, 2, rng).mat
    assert np.abs(acc / n - np.eye(2) / 2).max() < 5e-2


def test_random_density_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_density(3, 0, 0)
    with pytest.raises(ValueError):
        random_density(3, 4, 0)


def test_random_real_density_is_real():
    rng = make_rng(3)
    for _ in range(10):
        rho = random_real_density(3, 3, rng)
        assert np.abs(rho.mat.imag).max() == 0.0


def test_validate_reports():
    report = validate(np.eye(2) / 2)
    assert report.is_valid
    assert report.hermiticity_defect == 0.0
    assert abs(report.min_eigenvalue - 0.5) < 1e-12
    assert report.trace_deviation < 1e-15

    bad = validate(np.diag([1.5, -0.5]))
    assert not bad.is_valid
    assert bad.min_eigenvalue < -0.4

    bell = validate(bell_phi_plus(2).mat)
    assert bell.is_valid


def test_constructors_pass_validation():
    rng = make_rng(4)
    samples = [
        bell_phi_plus(3),
        isotropic(2, 0.7),
        maximally_mixed((2, 2)),
        random_density(6, 2, rng, dims=(2, 3)),
        random_real_density(4, 4, rng, dims=(2, 2)),
    ]
    for rho in samples:
        report = validate(rho.mat)
        assert report.is_valid
        assert report.hermiticity_defect <= 1e-9
        assert report.trace_deviation <= 1e-9


def test_density_operator_rejects_invalid():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]).astype(complex), (2,))
    with pytest.raises(ValueError):
        DensityOperator(np.eye(4) / 4, (3, 2))


def test_tensor_concatenates_signatures():
    joint = tensor(maximally_mixed((2,)), bell_phi_plus(2))
    assert joint.dims == (2, 2, 2)
    assert abs(float(joint.mat.trace().real) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "entry",
    [
        validate,
        linalg.min_eigenvalue,
        linalg.hermitian_eig,
        lambda mat: DensityOperator(mat, (2,)),
    ],
    ids=["validate", "min_eigenvalue", "hermitian_eig", "DensityOperator"],
)
def test_empty_matrix_is_rejected_with_its_shape(entry):
    with pytest.raises(ValueError, match=r"^expected a non-empty matrix, got shape \(0, 0\)$"):
        entry(np.zeros((0, 0)))


def test_huge_entries_are_rejected_without_numpy_warnings(recwarn):
    with pytest.raises(ValueError, match="invalid density operator: hermiticity defect inf"):
        DensityOperator([[1e308, 1e308], [-1e308, 0]], (2,))
    assert not validate(np.full((2, 2), 1.7976931348623157e308)).is_valid
    assert len(recwarn) == 0, [str(w.message) for w in recwarn]
