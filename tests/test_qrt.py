import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qcensor import linalg, qrt
from qcensor.channels import apply, dephasing_channel, imaginarity_rd_map
from qcensor.qrt import (
    DiscordOptions,
    chsh_parameter,
    discord,
    get_theory,
    is_classical_quantum,
    is_free_coherence,
    is_free_entanglement,
    is_free_imaginarity,
    isotropic_local_range,
    ppt_all_cuts,
)
from qcensor.states import (
    DensityOperator,
    bell_phi_plus,
    from_pure,
    isotropic,
    make_rng,
    random_density,
    random_pure_vector,
    random_real_density,
    tensor,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
Z0 = np.array([1.0, 0.0])
Z1 = np.array([0.0, 1.0])


def _mixture_state():
    return DensityOperator(
        0.5 * tensor(from_pure(Z0), from_pure(Z0)).mat
        + 0.5 * tensor(from_pure(PLUS), from_pure(Z1)).mat,
        (2, 2),
    )


# ---------------------------------------------------------------- registry


def test_unknown_theory_rejected():
    with pytest.raises(ValueError, match="unknown theory 'athermality'"):
        get_theory("athermality")


def _theory_name_comparisons(source: str) -> list[int]:
    """Lines of ``source`` that compare a value against a theory name, as an
    operand or as an item of a literal tuple, list or set operand."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for operand in (node.left, *node.comparators):
            items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
            if any(isinstance(x, ast.Constant) and x.value in qrt.THEORIES for x in items):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", ["censorship", "suites", "cli"])
def test_engine_modules_never_compare_against_a_theory_name(module):
    """What a theory decides lives in its registry entry and in its
    descriptions (an eigen-dephasing branch dephases in ``Description.basis``),
    so the engine, the suites and the command line never compare a value
    against a theory name. ``serialize`` is not scanned: ``report_pretty``
    prints the discord witness in bits too, which is presentation only."""
    path = Path(qrt.__file__).with_name(f"{module}.py")
    assert _theory_name_comparisons(path.read_text()) == []


# --------------------------------------------------------------- coherence


def test_coherence_diagonal_free():
    rho = DensityOperator(np.diag([0.4, 0.6]).astype(complex), (2,))
    assert is_free_coherence(rho).is_free


def test_coherence_plus_state_witness():
    verdict = is_free_coherence(from_pure(PLUS))
    assert not verdict.is_free
    assert abs(verdict.witness_value - 0.5) < 1e-12


def test_coherence_dephasing_output_free():
    rng = make_rng(0)
    deph = dephasing_channel(np.eye(3))
    for _ in range(10):
        out = apply(deph, random_density(3, 3, rng))
        assert is_free_coherence(out).is_free


# ------------------------------------------------------------- imaginarity


def test_imaginarity_real_state_free():
    assert is_free_imaginarity(random_real_density(3, 3, make_rng(1))).is_free


def test_imaginarity_y_eigenstate_witness():
    rho = DensityOperator(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]]), (2,))
    verdict = is_free_imaginarity(rho)
    assert not verdict.is_free
    assert abs(verdict.witness_value - 0.5) < 1e-12


def test_imaginarity_rd_map_output_free():
    rng = make_rng(2)
    for _ in range(10):
        out = apply(imaginarity_rd_map(2), random_density(2, 2, rng))
        assert is_free_imaginarity(DensityOperator(out, (2,))).is_free


def test_affine_combinations_of_real_states_stay_free():
    rng = make_rng(3)
    for _ in range(20):
        a = random_real_density(2, 2, rng).mat
        b = random_real_density(2, 2, rng).mat
        t = 1.0 + rng.random()  # affine weight beyond [0, 1]
        cand = t * a + (1 - t) * b
        if linalg.min_eigenvalue(cand) < 1e-10:
            continue  # not a state; affine hull intersects the state set only
        assert is_free_imaginarity(DensityOperator(cand, (2,))).is_free


# ------------------------------------------------------------ entanglement


def test_isotropic_separability_boundary():
    assert is_free_entanglement(isotropic(2, 0.3)).is_free
    assert is_free_entanglement(isotropic(2, 0.3)).decisive
    assert not is_free_entanglement(isotropic(2, 0.5)).is_free


def test_bell_state_ppt_witness():
    verdict = is_free_entanglement(bell_phi_plus(2))
    assert not verdict.is_free
    assert abs(verdict.witness_value - (-0.5)) < 1e-12


def test_ppt_cut_validation():
    with pytest.raises(ValueError):
        is_free_entanglement(bell_phi_plus(2), cut=(0, 1))


def test_ppt_decisive_flag_by_dims():
    rho23 = random_density(6, 6, make_rng(4), dims=(2, 3))
    assert is_free_entanglement(rho23).decisive or not is_free_entanglement(rho23).is_free
    rho33 = random_density(9, 9, make_rng(5), dims=(3, 3))
    verdict = is_free_entanglement(rho33)
    if verdict.is_free:
        assert not verdict.decisive


def test_convex_mixtures_of_separable_states_stay_ppt():
    rng = make_rng(6)
    for _ in range(10):
        a = tensor(random_density(2, 2, rng), random_density(2, 2, rng)).mat
        b = tensor(random_density(2, 2, rng), random_density(2, 2, rng)).mat
        t = rng.random()
        mix = DensityOperator(t * a + (1 - t) * b, (2, 2))
        assert is_free_entanglement(mix).is_free


def test_ppt_agrees_with_schmidt_rank_oracle():
    # random two-qubit pure states: PPT <=> Schmidt rank 1 (reshaped SVD)
    rng = make_rng(7)
    for _ in range(40):
        vec = random_pure_vector(4, rng)
        if rng.random() < 0.5:
            vec = np.kron(random_pure_vector(2, rng), random_pure_vector(2, rng))
        s = np.linalg.svd(vec.reshape(2, 2), compute_uv=False)
        schmidt_rank_one = s[1] < 1e-8
        assert is_free_entanglement(from_pure(vec, dims=(2, 2))).is_free == schmidt_rank_one


def test_ppt_all_cuts_multipartite():
    product = tensor(
        random_density(2, 2, make_rng(8)),
        random_density(2, 2, make_rng(9)),
        random_density(2, 2, make_rng(10)),
    )
    assert ppt_all_cuts(product).is_free
    entangled = tensor(bell_phi_plus(2), random_density(2, 2, make_rng(11)))
    verdict = ppt_all_cuts(entangled)
    assert not verdict.is_free and verdict.decisive


# ----------------------------------------------------------------- discord


def _brute_force_discord_measured_first(mat: np.ndarray, n_theta=181, n_phi=360) -> float:
    """Independent oracle: dense-grid minimization written from scratch."""

    def ent(m):
        w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        nz = w[w > 0]
        return float(-(nz * np.log(nz)).sum()) if nz.size else 0.0

    t = mat.reshape(2, 2, 2, 2)
    marg_x = np.einsum("ikjk->ij", t)
    best = np.inf
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False):
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            kets = (
                np.array([c, np.exp(1j * phi) * s]),
                np.array([-np.exp(-1j * phi) * s, c]),
            )
            total = 0.0
            for v in kets:
                block = np.einsum("i,ikjl,j->kl", v.conj(), t, v)
                p = float(block.trace().real)
                if p > 1e-12:
                    total += p * ent(block / p)
            best = min(best, total)
    return max(ent(marg_x) - ent(mat) + best, 0.0)


def test_discord_classical_quantum_is_zero():
    rng = make_rng(12)
    blocks = [random_density(2, 2, rng).mat for _ in range(2)]
    q = np.array([0.3, 0.7])
    mat = sum(
        q[a] * np.kron(np.outer(Z0 if a == 0 else Z1, Z0 if a == 0 else Z1), blocks[a])
        for a in range(2)
    )
    rho = DensityOperator(mat, (2, 2))
    assert discord(rho, "X") < 1e-6


def test_discord_bell_state_log2():
    # analytic value log 2; cross-checked against the dense-grid oracle
    value = discord(bell_phi_plus(2))
    assert abs(value - math.log(2)) < 1e-4
    oracle = _brute_force_discord_measured_first(bell_phi_plus(2).mat, n_theta=61, n_phi=120)
    assert abs(value - oracle) < 1e-4


def test_discord_mixture_strictly_positive():
    value = discord(_mixture_state(), "X")
    assert value > 1e-3
    oracle = _brute_force_discord_measured_first(_mixture_state().mat)
    assert abs(value - oracle) < 1e-4


def test_discord_side_convention():
    # the mixture is classical on the second factor, so measuring there is free
    assert discord(_mixture_state(), "Y") < 1e-6
    assert discord(_mixture_state(), "X") > 1e-3


def test_discord_product_states_zero():
    rng = make_rng(13)
    for _ in range(5):
        rho = tensor(random_density(2, 2, rng), random_density(2, 2, rng))
        assert discord(rho) < 1e-6
        assert discord(rho, "Y") < 1e-6


def test_discord_clamped_nonnegative_and_grid_monotone():
    # nested grids: the maximized classical term grows, so discord shrinks
    rho = _mixture_state()
    coarse = discord(rho, "X", DiscordOptions(grid_points=8, refine_iters=0))
    finer = discord(rho, "X", DiscordOptions(grid_points=16, refine_iters=0))
    assert coarse >= 0.0 and finer >= 0.0
    assert finer <= coarse + 1e-12


def test_discord_rejects_unsupported_dims():
    with pytest.raises(ValueError):
        discord(random_density(6, 6, make_rng(14), dims=(2, 3)))
    with pytest.raises(ValueError):
        discord(bell_phi_plus(2), "Z")


# ------------------------------------------------------- classical-quantum


def test_cq_diagonal_mixture_free():
    omega = [random_density(2, 2, make_rng(15)).mat, random_density(2, 2, make_rng(16)).mat]
    mat = 0.25 * np.kron(np.diag([1.0, 0.0]), omega[0]) + 0.75 * np.kron(
        np.diag([0.0, 1.0]), omega[1]
    )
    assert is_classical_quantum(DensityOperator(mat, (2, 2)), 0).is_free


def test_cq_rotated_basis_free():
    # classical in the Hadamard basis on the first factor
    mat = 0.5 * np.kron(np.outer(PLUS, PLUS), np.diag([0.2, 0.8])) + 0.5 * np.kron(
        np.outer([1, -1] / np.sqrt(2), [1, -1] / np.sqrt(2)), np.diag([0.9, 0.1])
    )
    assert is_classical_quantum(DensityOperator(mat.astype(complex), (2, 2)), 0).is_free


def test_cq_mixture_not_free_matches_discord():
    verdict = is_classical_quantum(_mixture_state(), 0)
    assert not verdict.is_free
    assert discord(_mixture_state(), "X") > 1e-3


def test_cq_product_state_free_both_sides():
    rho = tensor(from_pure(PLUS), random_density(2, 2, make_rng(17)))
    assert is_classical_quantum(rho, 0).is_free
    assert is_classical_quantum(rho, 1).is_free


def test_cq_rejects_large_dims():
    with pytest.raises(ValueError):
        is_classical_quantum(random_density(10, 10, make_rng(18), dims=(5, 2)))


# -------------------------------------------------------------------- chsh


def test_chsh_bell_state():
    # oracle: T = diag(1, -1, 1), so both top eigenvalues of T^T T are 1
    assert abs(chsh_parameter(bell_phi_plus(2)) - 2.0) < 1e-12


def test_chsh_isotropic_scaling():
    # oracle: correlation matrix scales linearly with p, so M = 2 p^2
    for p in (0.1, 0.4, 5 / 12, 0.9):
        assert abs(chsh_parameter(isotropic(2, p)) - 2 * p * p) < 1e-12


def test_chsh_window_state_below_violation():
    m = chsh_parameter(isotropic(2, 5 / 12))
    assert abs(m - 25 / 72) < 1e-9
    assert m < 1.0


def test_chsh_local_unitary_invariance():
    rng = make_rng(19)
    rho = random_density(4, 4, rng, dims=(2, 2))
    base = chsh_parameter(rho)
    for _ in range(5):
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        lifted = np.kron(u, v)
        rotated = DensityOperator(lifted @ rho.mat @ lifted.conj().T, (2, 2))
        assert abs(chsh_parameter(rotated) - base) < 1e-9


def test_chsh_rejects_wrong_dims():
    with pytest.raises(ValueError):
        chsh_parameter(random_density(6, 6, make_rng(20), dims=(2, 3)))


# ---------------------------------------------------------- locality window


def test_local_range_qubit_exact():
    lower, upper = isotropic_local_range(2)
    assert lower == Fraction(1, 3)
    assert upper == Fraction(5, 12)


def test_local_range_qutrit_arithmetic():
    lower, upper = isotropic_local_range(3)
    assert lower == Fraction(1, 4)
    assert upper == Fraction(8, 27)


def test_local_range_ordering_sweep():
    for d in range(2, 11):
        lower, upper = isotropic_local_range(d)
        assert lower < upper


def test_local_range_rejects_small_d():
    with pytest.raises(ValueError):
        isotropic_local_range(1)


def test_isotropic_weight_reads_one_phi_plus_per_dimension():
    phi = qrt._phi_plus(2)
    assert phi is qrt._phi_plus(2) and not phi.flags.writeable
    assert np.array_equal(phi, bell_phi_plus(2).mat)
    assert abs(qrt._isotropic_weight(isotropic(2, 5 / 12)) - 5 / 12) < 1e-12
