"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest -q bench/test_oracles.py

They use numpy alone and never import qcensor.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import oracles as ref
import workloads


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _bell_diagonal_correlations(rng, n: int):
    out = []
    while len(out) < n:
        c = rng.uniform(-1, 1, 3)
        if np.linalg.eigvalsh(ref.bell_diagonal_state(c)).min() > 1e-3:
            out.append(c)
    return out


# ------------------------------------------------------------------ discord


def _entropy(mat: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh((mat + mat.conj().T) / 2), 0.0, None)
    w = w[w > 1e-300]
    return float(-(w * np.log(w)).sum())


def discord_by_directions(rho: np.ndarray, n_theta: int, n_phi: int) -> float:
    """Discord measured on the first qubit, by brute force over a grid of
    projective measurement directions; an upper bound that tightens with
    the grid."""
    t = rho.reshape(2, 2, 2, 2)
    s_a = _entropy(np.einsum("ikjk->ij", t))
    s_ab = _entropy(rho)
    pauli = ref.PAULI
    best = np.inf
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False):
            n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
            ns = n[0] * pauli["X"] + n[1] * pauli["Y"] + n[2] * pauli["Z"]
            cond = 0.0
            for sign in (1.0, -1.0):
                proj = (pauli["I"] + sign * ns) / 2
                block = np.einsum("ji,ikjl->kl", proj, t)
                p = float(np.trace(block).real)
                if p > 1e-12:
                    cond += p * _entropy(block / p)
            best = min(best, cond)
    # D = I(A:B) - J(B|A) = S(A) - S(AB) + min over measurements of S(B|{Pi_A})
    return max(s_a - s_ab + best, 0.0)


@pytest.mark.parametrize("index", range(6))
def test_luo_matches_brute_force_on_axis_aligned_states(index):
    # the optimal measurement lies on a coordinate axis, which the grid holds
    c = _bell_diagonal_correlations(_rng(1), 6)[index]
    brute = discord_by_directions(ref.bell_diagonal_state(c), n_theta=19, n_phi=36)
    assert abs(brute - ref.luo_discord(c)) < 1e-9


def test_luo_is_invariant_under_local_unitaries():
    rng = _rng(2)
    for c in _bell_diagonal_correlations(rng, 3):
        u = np.kron(workloads.random_unitary(rng, 2), workloads.random_unitary(rng, 2))
        turned = u @ ref.bell_diagonal_state(c) @ u.conj().T
        brute = discord_by_directions(turned, n_theta=61, n_phi=120)
        exact = ref.luo_discord(c)
        # the grid gives an upper bound that is tight to the square of its step
        assert exact - 1e-12 <= brute <= exact + 5e-3


def test_luo_known_values():
    assert ref.luo_discord((1, -1, 1)) == pytest.approx(math.log(2), abs=1e-12)
    for a in (0.3, -0.7, 0.9):
        assert ref.luo_discord((0, 0, a)) == pytest.approx(0.0, abs=1e-12)
        assert ref.luo_discord((a, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert ref.luo_discord((0.5, 0.0, 0.4)) > 1e-3
    with pytest.raises(ValueError):
        ref.luo_discord((1, 1, 1))


def test_breach_mixture_is_bell_diagonal():
    w, a, b = 0.3, 0.8, -0.6
    mix = w * ref.bell_diagonal_state((0, 0, a)) + (1 - w) * ref.bell_diagonal_state((b, 0, 0))
    assert np.allclose(mix, ref.bell_diagonal_state(((1 - w) * b, 0, w * a)), atol=1e-15)


# ------------------------------------------------------- product reference


def test_noise_references_are_channels():
    rng = _rng(3)
    rho = workloads.random_density(rng, 2)
    for noise in (("amplitude_damping", 0.3), ("depolarizing", 0.2), ("dephasing", None)):
        out = ref.apply_noise(rho, noise)
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12
    k0 = np.array([[1, 0], [0, math.sqrt(0.7)]])
    k1 = np.array([[0, math.sqrt(0.3)], [0, 0]])
    kraus = k0 @ rho @ k0.T + k1 @ rho @ k1.T
    assert np.allclose(ref.amplitude_damping(rho, 0.3), kraus, atol=1e-15)


def test_eigen_dephasing_fixes_the_described_state_and_kills_imaginarity():
    rng = _rng(4)
    sigma = workloads.random_real_density(rng, 2)
    assert np.allclose(ref.eigen_dephase(sigma, sigma), sigma, atol=1e-14)
    tau = workloads.random_density(rng, 2)
    out = ref.eigen_dephase(tau, sigma)
    assert np.abs(out.imag).max() < 1e-14
    assert abs(np.trace(out) - 1) < 1e-14


def test_product_receiver_is_a_kronecker_product():
    rng = _rng(5)
    senders = []
    for _ in range(3):
        sigma = workloads.random_real_density(rng, 2)
        senders.append({"sent": workloads.random_density(rng, 2), "described": sigma})
    out = ref.product_receiver(senders, "replacement", ("depolarizing", 0.5))
    assert np.allclose(out, ref.kron_all([s["described"] for s in senders]))
    assert ref.product_receiver(senders, "eigen_dephasing", None).shape == (8, 8)


def test_ensemble_state_and_chsh():
    ens = workloads.random_product_ensemble(_rng(6))
    sigma = ref.ensemble_state(ens)
    assert abs(np.trace(sigma) - 1) < 1e-12
    assert np.linalg.eigvalsh(sigma).min() > -1e-12
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    for p in (1.0, 5 / 12, 0.0):
        iso = p * np.outer(phi, phi) + (1 - p) * np.eye(4) / 4
        assert ref.chsh_parameter(iso) == pytest.approx(2 * p * p, abs=1e-12)


# ---------------------------------------------------------------- checks


def _report(matrix: np.ndarray, dims, theory: str, seed: int, distances=None) -> dict:
    return {
        "breach": False,
        "seed": seed,
        "verdicts": {theory: {"is_free": True, "witness_value": 0.0, "decisive": True}},
        "receiver_state": {"dims": dims, "re": matrix.real.tolist(), "im": matrix.imag.tolist()},
        "distances": distances,
        "notes": [],
        "extras": {},
    }


def test_network_check_accepts_the_reference_and_rejects_a_perturbation():
    fam = workloads.Family("imaginarity", "eigen_dephasing", (0, 1))
    entries, senders = workloads._make_senders(fam, _rng(7))
    assert [e["kind"] for e in entries] == ["honest", "honest"]
    check = workloads._network_check(fam, senders, seed=11)
    expected = ref.product_receiver(senders, fam.kind, None)
    check(json.dumps(_report(expected, [2, 2], "imaginarity", 11)))
    bad = expected.copy()
    bad[0, 1] += 1e-6
    bad[1, 0] += 1e-6
    with pytest.raises(ref.CheckFailed):
        check(json.dumps(_report(bad, [2, 2], "imaginarity", 11)))
    with pytest.raises(ref.CheckFailed):
        check(json.dumps(_report(expected, [2, 2], "imaginarity", 12)))


def test_decks_keep_their_shape_across_seeds(tmp_path):
    for name in workloads.WORKLOADS:
        shapes = []
        for seed in (1, 2):
            items = workloads.build_items(name, seed, tmp_path / f"{name}-{seed}")
            shapes.append([(it.name, it.exit_code) for it in items])
            for warm in workloads.WORKLOADS[name].warmup:
                assert any(it.name == warm for it in items)
        assert shapes[0] == shapes[1]
        a = workloads.build_items(name, 3, tmp_path / f"{name}-a")
        b = workloads.build_items(name, 3, tmp_path / f"{name}-b")
        assert [it.argv[:1] + it.argv[3:] for it in a] == [it.argv[:1] + it.argv[3:] for it in b]
        files_a = sorted((tmp_path / f"{name}-a").iterdir())
        files_b = sorted((tmp_path / f"{name}-b").iterdir())
        assert [f.read_text() for f in files_a] == [f.read_text() for f in files_b]


def test_network_decks_stay_small():
    for fam in workloads.NETWORK_FAMILIES:
        assert fam.joint_width <= 512
        if fam.n == 4:
            assert fam.joint_width <= 256


def test_suite_check_rejects_a_loose_defect():
    check = workloads._suite_check("affine_unbreakable", 16, 5)
    good = {
        "suite": "affine_unbreakable",
        "passed": True,
        "samples": 16,
        "seed": 5,
        "max_defects": {"receiver_max_imag": 1e-17, "trace_defect": 2e-16},
        "failures": [],
    }
    check(json.dumps(good))
    good["max_defects"]["receiver_max_imag"] = 2e-9
    with pytest.raises(ref.CheckFailed):
        check(json.dumps(good))
