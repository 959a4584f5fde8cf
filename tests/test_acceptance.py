"""Acceptance suite: one test per contract criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criterion 8 certifies that the realness projection
rho -> (rho + rho^T)/2 is positive and trace preserving but not completely
positive. Under the repo-wide Choi convention C = sum_ij L(|i><j|) (x) |i><j|
the identity maps to 2 phi+ (spectrum {2, 0, 0, 0}) and the transpose to SWAP
(spectrum {1, 1, 1, -1}), so by linearity the projection's Choi matrix is
(2 phi+ + SWAP)/2 with spectrum {3/2, 1/2, 1/2, -1/2}. Weyl's inequality
bounds its minimum eigenvalue below by -1/2 and the singlet attains it, so
the criterion pins -1/2; the value -1 belongs to the bare transpose map and
is pinned there. See test_channels.py::test_imaginarity_choi_spectrum for the
full-spectrum assertion.
"""

import json
from fractions import Fraction

import numpy as np

from qcensor import linalg, qrt
from qcensor.censorship import (
    NetworkScenario,
    SenderStrategy,
    apply_censorship,
    build_conditional_channel,
    encode_description,
    noise_comparison,
    run_protocol,
)
from qcensor.channels import (
    amplitude_damping,
    apply,
    choi,
    identity_channel,
    imaginarity_rd_map,
    transpose_map,
)
from qcensor.cli import EXIT_BREACH, main
from qcensor.demos import (
    bell_filter_demo,
    discord_breach_demo,
    nonlocal_activation_demo,
    smuggle_eigenstate_demo,
)
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
from qcensor.suites import run_suite

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)
Z0 = np.array([1.0, 0.0])
Z1 = np.array([0.0, 1.0])


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


def test_criterion_01_bell_filter():
    report = bell_filter_demo()
    claimed = tensor(from_pure(PLUS), from_pure(MINUS))
    filtered = report.extras["filtered_distance_to_claimed"]
    entrywise = float(np.abs(report.render_receiver()[0] - claimed.mat).max())
    roundtrip = report.extras["honest_roundtrip_distance"]
    ok = entrywise <= 1e-12 and roundtrip <= 1e-12
    _report(1, "bell-filter", ok, f"filter defect {entrywise:.2e}, roundtrip {roundtrip:.2e}")
    assert entrywise <= 1e-12
    assert filtered <= 1e-12
    assert roundtrip <= 1e-12


def test_criterion_02_isotropic_separability_boundary():
    below = qrt.is_free_entanglement(isotropic(2, 1 / 3 - 1e-6))
    above = qrt.is_free_entanglement(isotropic(2, 1 / 3 + 1e-6))
    at = qrt.is_free_entanglement(isotropic(2, 1 / 3))
    ok = below.is_free and not above.is_free and abs(at.witness_value) <= 1e-9
    _report(
        2,
        "isotropic-separability-boundary",
        ok,
        f"witness at threshold {at.witness_value:.2e}",
    )
    assert below.is_free and below.decisive
    assert not above.is_free
    assert abs(at.witness_value) <= 1e-9


def test_criterion_03_eigenbasis_smuggle():
    report = smuggle_eigenstate_demo()
    phi = bell_phi_plus(2)
    passthrough = float(np.abs(report.render_receiver()[0] - phi.mat).max())
    witness = report.verdicts["entanglement"].witness_value
    ok = passthrough <= 1e-10 and abs(witness + 0.5) <= 1e-9 and report.breach
    _report(3, "eigenbasis-smuggle", ok, f"passthrough {passthrough:.2e}, witness {witness:.6f}")
    assert passthrough <= 1e-10
    assert abs(witness - (-0.5)) <= 1e-9
    assert report.breach


def test_criterion_04_affine_unbreakable_suite():
    result = run_suite("affine_unbreakable", samples=200, seed=7)
    worst = result.max_defects["receiver_max_imag"]
    ok = result.passed and worst <= 1e-9
    _report(4, "affine-unbreakable-200", ok, f"max imaginary entry {worst:.2e}")
    assert result.passed
    assert worst <= 1e-9


def test_criterion_05_convex_unbreakable_suite():
    result = run_suite("convex_unbreakable", samples=200, seed=11)
    rec = result.max_defects["mixture_reconstruction"]
    neg = result.max_defects["ppt_negativity"]
    ok = result.passed and rec <= 1e-9 and neg <= 1e-9
    _report(5, "convex-unbreakable-200", ok, f"reconstruction {rec:.2e}, PT negativity {neg:.2e}")
    assert result.passed
    assert rec <= 1e-9
    assert neg <= 1e-9


def test_criterion_06_discord_breach(tmp_path):
    report = discord_breach_demo()
    mixture = DensityOperator(
        0.5 * tensor(from_pure(Z0), from_pure(Z0)).mat
        + 0.5 * tensor(from_pure(PLUS), from_pure(Z1)).mat,
        (2, 2),
    )
    intact = float(np.abs(report.render_receiver()[0] - mixture.mat).max())
    witness = report.verdicts["discord"].witness_value
    comp0 = report.extras["component_discord_0"]
    comp1 = report.extras["component_discord_1"]

    # machine-checkable exit code through the CLI on the same construction
    joint = np.zeros((12, 12), dtype=complex)
    for idx, comp in ((0, tensor(from_pure(Z0), from_pure(Z0))), (1, tensor(from_pure(PLUS), from_pure(Z1)))):
        proj = np.zeros((3, 3))
        proj[idx, idx] = 1.0
        joint += 0.5 * np.kron(proj, comp.mat)
    scenario = {
        "theory": "discord",
        "channel_kind": "replacement",
        "senders": [
            {
                "kind": "correlated",
                "state": {"dims": [3, 2, 2], "re": joint.real.tolist(), "im": joint.imag.tolist()},
                "claimed": [
                    {
                        "state": {
                            "dims": [2, 2],
                            "re": tensor(from_pure(Z0), from_pure(Z0)).mat.real.tolist(),
                            "im": tensor(from_pure(Z0), from_pure(Z0)).mat.imag.tolist(),
                        }
                    },
                    {
                        "state": {
                            "dims": [2, 2],
                            "re": tensor(from_pure(PLUS), from_pure(Z1)).mat.real.tolist(),
                            "im": tensor(from_pure(PLUS), from_pure(Z1)).mat.imag.tolist(),
                        }
                    },
                ],
                "spans": 1,
            }
        ],
        "noise": None,
        "seed": 1,
    }
    path = tmp_path / "discord_breach.json"
    path.write_text(json.dumps(scenario))
    exit_code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.json")])

    ok = (
        intact <= 1e-10
        and witness > 1e-3
        and comp0 <= 1e-6
        and comp1 <= 1e-6
        and report.breach
        and exit_code == EXIT_BREACH
    )
    _report(
        6,
        "discord-breach",
        ok,
        f"witness {witness:.4f} nats, components {max(comp0, comp1):.2e}, exit {exit_code}",
    )
    assert intact <= 1e-10
    assert witness > 1e-3
    assert comp0 <= 1e-6 and comp1 <= 1e-6
    assert report.breach
    assert exit_code == EXIT_BREACH


def test_criterion_07_locality_window_and_activation():
    lower, upper = qrt.isotropic_local_range(2)
    window_exact = lower == Fraction(1, 3) and upper == Fraction(5, 12)
    sigma = isotropic(2, 5 / 12)
    npt = not qrt.is_free_entanglement(sigma).is_free
    m = qrt.chsh_parameter(sigma)
    chsh_ok = abs(m - 25 / 72) <= 1e-9 and m < 1.0
    report = nonlocal_activation_demo(n_senders=2)
    marginal_defect = report.extras["max_marginal_distance"]
    ok = window_exact and npt and chsh_ok and marginal_defect <= 1e-10 and not report.breach
    _report(
        7,
        "locality-window",
        ok,
        f"M {m:.9f}, marginal defect {marginal_defect:.2e}",
    )
    assert window_exact
    assert npt
    assert chsh_ok
    assert marginal_defect <= 1e-10
    assert not report.breach


def test_criterion_08_noncp_certificate():
    rd_map = imaginarity_rd_map(2)
    rng = make_rng(23)
    sample_ok = True
    for _ in range(50):
        out = apply(rd_map, random_density(2, 2, rng))
        sample_ok = sample_ok and float(np.abs(out.imag).max()) <= 1e-12
        sample_ok = sample_ok and linalg.min_eigenvalue(out) >= -1e-10
        sample_ok = sample_ok and abs(float(out.trace().real) - 1.0) <= 1e-10
    c = choi(rd_map).mat
    c_identity = choi(identity_channel(2)).mat
    c_transpose = choi(transpose_map(2)).mat

    # (id + T)/2 is linear in the map, so its Choi matrix is (2 phi+ + SWAP)/2.
    linearity = float(np.abs(c - (c_identity + c_transpose) / 2).max())
    # The singlet is killed by 2 phi+ and flipped by SWAP, so it reaches the
    # Weyl lower bound (0 + (-1))/2 = -1/2: the exact minimum eigenvalue.
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    certificate = float(np.real(singlet.conj() @ c @ singlet))
    min_eig = linalg.min_eigenvalue(c)
    transpose_min = linalg.min_eigenvalue(c_transpose)
    pinned = abs(min_eig - (-0.5)) <= 1e-9
    ok = (
        sample_ok
        and linearity <= 1e-12
        and abs(certificate - (-0.5)) <= 1e-9
        and pinned
        and abs(transpose_min - (-1.0)) <= 1e-9
    )
    _report(
        8,
        "non-cp-certificate",
        ok,
        f"Choi minimum {min_eig:.6f} (pinned -1/2), singlet <C> {certificate:.6f}, "
        f"linearity defect {linearity:.2e}, bare transpose minimum {transpose_min:.6f}",
    )
    assert sample_ok
    assert linalg.min_eigenvalue(c) < -1e-9
    assert linearity <= 1e-12
    assert abs(certificate - (-0.5)) <= 1e-9
    assert pinned, f"Choi minimum eigenvalue {min_eig:.6f} != -1/2"
    assert abs(transpose_min - (-1.0)) <= 1e-9


def test_criterion_09_noise_comparison_direction():
    rng = make_rng(31)
    worst_gap = -np.inf
    ok = True
    for _ in range(100):
        sigma = random_real_density(2, 2, rng)
        for gamma in (0.1, 0.5, 0.9):
            result = noise_comparison(sigma, amplitude_damping(gamma))
            gap = result.d_censored - result.d_noisy
            worst_gap = max(worst_gap, gap)
            ok = ok and gap <= 1e-12
    _report(9, "noise-comparison-direction", ok, f"max d_censored - d_noisy = {worst_gap:.2e}")
    assert ok


def test_criterion_10_channel_axioms_suite():
    result = run_suite("channel_axioms", samples=100, seed=3)
    ok = result.passed
    detail = ", ".join(
        f"{k} {result.max_defects[k]:.1e}"
        for k in ("trace_preservation", "dephasing_idempotence", "replacement_input_independence")
    )
    _report(10, "channel-axioms", ok, detail)
    assert result.passed
    assert result.max_defects["trace_preservation"] <= 1e-10
    assert result.max_defects["dephasing_idempotence"] <= 1e-10
    assert result.max_defects["replacement_input_independence"] <= 1e-10
    for theory in ("coherence", "imaginarity", "entanglement", "discord", "locality"):
        bound_v = 1e-9 if theory == "locality" else 1e-8
        assert result.max_defects[f"condition_v_{theory}"] <= bound_v
        assert result.max_defects[f"condition_vi_{theory}"] <= 1e-9
