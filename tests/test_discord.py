"""The batched discord and CHSH, read from the state's Pauli coordinates,
against the point-by-point and stepwise discords of ``dense_reference`` and
closed forms.

The discord scores each refinement's whole halving ladder in one evaluation;
it must return exactly what the stepwise search, one rung per evaluation,
returns, with at most half its evaluations. Each evaluation must give, bit
for bit, what Luo's formula of ``dense_reference`` gives on the same batch.

Closed forms: Luo's discord of Bell-diagonal states (PRA 77, 042303, 2008),
which local unitaries leave unchanged; the entanglement entropy S(rho_A) for
pure states; zero on classical-quantum and product states. On X states the
sigma_z and sigma_x measurements bound the discord from above (Ali, Rau and
Alber, PRA 81, 042105, 2010); their closed form, the smaller of the two, is
not always the discord (Lu et al., PRA 83, 012327, 2011), so only the bound
is tested.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference
from dense_reference import (
    _entropy_psd,
    _measured_conditional_entropy,
    dense_discord,
    luo_conditional_entropies,
    stepwise_discord,
)
from qcensor import linalg, qrt
from qcensor.qrt import DiscordOptions, chsh_parameter, discord
from qcensor.states import DensityOperator, random_density, random_pure_vector

SIDES = st.sampled_from(["X", "Y"])
SEEDS = st.integers(0, 2**32 - 1)
PAULI_XYZ = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _unitary(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _local(rng: np.random.Generator, mat: np.ndarray) -> DensityOperator:
    u = np.kron(_unitary(rng), _unitary(rng))
    return DensityOperator(u @ mat @ u.conj().T, (2, 2))


def _binary_entropy(p: float) -> float:
    return -sum(x * np.log(x) for x in (p, 1 - p) if x > 0)


def _luo(c: np.ndarray) -> float:
    # I(rho) - J(rho) with maximally mixed marginals: 2 ln 2 - S(rho) minus
    # ln 2 - h((1 + max |c_k|)/2)
    s, (c1, c2, c3) = 0.0, c
    for lam in (1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3):
        s -= lam / 4 * np.log(lam / 4) if lam > 0 else 0.0
    return np.log(2) - s + _binary_entropy((1 + np.abs(c).max()) / 2)


@given(SEEDS, st.integers(1, 4), SIDES)
@settings(max_examples=12)
def test_discord_at_most_dense_discord(seed, rank, side):
    rho = random_density(4, rank, seed, dims=(2, 2))
    value = discord(rho, side)
    assert value <= dense_discord(rho, side) + 1e-12
    # the same angles give the same grid minimum, so nothing is underestimated
    grid_only = discord(rho, side, DiscordOptions(grid_points=8, refine_iters=0))
    assert abs(grid_only - dense_discord(rho, side, grid_points=8, refine_iters=0)) < 1e-12
    # the step-size rule, not the iteration cap, ends the refinement
    assert discord(rho, side, DiscordOptions(refine_iters=10**6)) == value


GRID_SIZES = st.sampled_from([1, 8, 60])
FAMILIES = st.sampled_from(["ginibre", "breach"])


def _state(family: str, seed: int, rank: int) -> DensityOperator:
    """A Ginibre state of the given rank, or a breach mixture
    w (II + a ZZ)/4 + (1 - w) (II + b XX)/4 under a random local unitary,
    drawn as the discord_breach suite draws them."""
    if family == "ginibre":
        return random_density(4, rank, seed, dims=(2, 2))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.25, 0.75)
    a, b = (rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.9) for _ in range(2))
    zz, xx = np.kron(PAULI_XYZ[2], PAULI_XYZ[2]), np.kron(PAULI_XYZ[0], PAULI_XYZ[0])
    return _local(rng, (w * (np.eye(4) + a * zz) + (1 - w) * (np.eye(4) + b * xx)) / 4)


@given(
    SEEDS,
    st.integers(1, 4),
    SIDES,
    GRID_SIZES,
    GRID_SIZES,
    st.one_of(st.none(), st.integers(0, 80)),
    FAMILIES,
)
@settings(max_examples=160)
def test_discord_equals_the_stepwise_search(seed, rank, side, g, other_g, k, family):
    rho = _state(family, seed, rank)
    opt = DiscordOptions(grid_points=g) if k is None else DiscordOptions(g, k)
    # a grid of another size is cached first, so one size cannot serve another
    discord(rho, side, DiscordOptions(grid_points=other_g))
    assert discord(rho, side, opt) == stepwise_discord(rho, side, opt)


# the discord's batches: a ladder of any width up to 160 columns at random
# angles, or the 64- or 3600-column grid
BATCHES = st.one_of(
    st.integers(1, 160).map(lambda width: ("angles", width)),
    st.sampled_from([("grid", 8), ("grid", 60)]),
)


@given(SEEDS, st.integers(1, 4), SIDES, FAMILIES, BATCHES)
@settings(max_examples=200)
def test_conditional_entropies_equal_luos_formula_bit_for_bit(seed, rank, side, family, batch):
    coords = qrt._pauli_coordinates(_state(family, seed, rank).mat)
    coords = coords.T if side == "Y" else coords
    kind, size = batch
    if kind == "grid":
        n = qrt._grid(size)[1]
    else:
        angles = np.random.default_rng(seed).uniform(0.0, [np.pi, 2 * np.pi], (size, 2))
        n = qrt._directions(angles)
    values, reference = qrt._conditional_entropies(coords, n), luo_conditional_entropies(coords, n)
    assert values.shape == reference.shape == (n.shape[1],)
    assert np.array_equal(values.view(np.uint64), reference.view(np.uint64))


def _counted(monkeypatch, module, name: str) -> list[int]:
    calls, fn = [0], getattr(module, name)

    def spy(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_discord_scores_at_most_half_the_stepwise_evaluations(seed, monkeypatch):
    batched = _counted(monkeypatch, qrt, "_conditional_entropies")
    stepwise = _counted(monkeypatch, dense_reference, "_stepwise_conditional_entropies")
    rho = random_density(4, 1 + seed % 4, seed, dims=(2, 2))
    assert discord(rho) == stepwise_discord(rho)
    assert 2 * batched[0] <= stepwise[0]


@pytest.mark.parametrize(
    "field, value",
    [("grid_points", 0), ("grid_points", -3), ("grid_points", 2.5), ("grid_points", True)]
    + [("refine_iters", -5), ("refine_iters", 2.5), ("refine_iters", "10")],
)
def test_discord_options_reject_values_that_break_the_search(field, value):
    with pytest.raises(ValueError, match=field):
        DiscordOptions(**{field: value})


def test_discord_options_take_numpy_integers_and_a_one_point_grid():
    rho = random_density(4, 2, 7, dims=(2, 2))
    opt = DiscordOptions(grid_points=np.int64(1), refine_iters=np.int32(0))
    assert discord(rho, "X", opt) == stepwise_discord(rho, "X", DiscordOptions(1, 0))


def test_cached_grid_arrays_are_read_only():
    angles, dirs = qrt._grid(8)
    assert angles.shape == (64, 2) and dirs.shape == (3, 64)
    assert qrt._grid(8)[1] is dirs
    for arr in (angles, dirs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3), SEEDS, SIDES)
@settings(max_examples=60)
def test_discord_matches_luo_on_bell_diagonal_states(c, seed, side):
    c = np.array(c)
    mat = np.eye(4, dtype=complex)
    for ck, p in zip(c, PAULI_XYZ):
        mat = mat + ck * np.kron(p, p)
    assume(np.linalg.eigvalsh(mat).min() >= 0)
    rho = _local(np.random.default_rng(seed), mat / 4)
    assert abs(discord(rho, side) - _luo(c)) < 1e-9


@given(SEEDS, SIDES)
@settings(max_examples=40)
def test_discord_of_pure_state_is_entanglement_entropy(seed, side):
    vec = random_pure_vector(4, seed)
    mat = np.outer(vec, vec.conj())
    s_a = linalg.von_neumann_entropy(linalg.partial_trace(mat, (2, 2), [0]))
    assert abs(discord(DensityOperator(mat, (2, 2)), side) - s_a) < 1e-9


@given(SEEDS, st.floats(0, 1), SIDES)
@settings(max_examples=60)
def test_discord_vanishes_on_classical_quantum_and_product_states(seed, q, side):
    rng = np.random.default_rng(seed)
    basis = _unitary(rng)
    omegas = [random_density(2, 2, rng).mat for _ in range(2)]
    # classical on the measured side, in a random basis
    cq = sum(
        w * np.kron(np.outer(basis[:, k], basis[:, k].conj()), omegas[k])
        for k, w in enumerate((q, 1 - q))
    )
    if side == "Y":
        cq = cq.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    product = np.kron(random_density(2, 2, rng).mat, random_density(2, 2, rng).mat)
    for mat in (cq, product):
        assert discord(DensityOperator(mat, (2, 2)), side) <= 1e-12


@st.composite
def x_states(draw):
    # a, b, c, d on the diagonal; w = <00|rho|11> with |w|^2 <= ad and
    # z = <01|rho|10> with |z|^2 <= bc, real or complex
    diag = np.array(draw(st.lists(st.floats(0, 1), min_size=4, max_size=4)))
    assume(diag.sum() > 1e-3)
    a, b, c, d = diag / diag.sum()
    phases = st.sampled_from([0.0, np.pi]) if draw(st.booleans()) else st.floats(0, 2 * np.pi)
    w, z = (
        draw(st.floats(0, 1)) * np.sqrt(p) * np.exp(1j * draw(phases)) for p in (a * d, b * c)
    )
    mat = np.diag([a, b, c, d]).astype(complex)
    mat[0, 3], mat[3, 0] = w, np.conj(w)
    mat[1, 2], mat[2, 1] = z, np.conj(z)
    return mat


@given(x_states(), SIDES)
@settings(max_examples=60)
def test_discord_at_most_sigma_z_and_sigma_x_values_on_x_states(mat, side):
    rho = DensityOperator(mat, (2, 2))
    if side == "Y":
        mat = mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    base = _entropy_psd(linalg.partial_trace(mat, (2, 2), [0])) - _entropy_psd(mat)
    # theta = 0 measures sigma_z on the measured side, theta = pi/2 sigma_x
    measured = [
        base + _measured_conditional_entropy(mat.reshape(2, 2, 2, 2), theta, 0.0)
        for theta in (0.0, np.pi / 2)
    ]
    assert discord(rho, side) <= min(measured) + 1e-12


@given(SEEDS, st.integers(1, 4))
@settings(max_examples=40)
def test_chsh_parameter_matches_pauli_traces(seed, rank):
    rho = random_density(4, rank, seed, dims=(2, 2))
    t = np.array(
        [[np.trace(rho.mat @ np.kron(a, b)).real for b in PAULI_XYZ] for a in PAULI_XYZ]
    )
    w = np.linalg.eigvalsh(t.T @ t)
    assert abs(chsh_parameter(rho) - (w[-1] + w[-2])) < 1e-12
