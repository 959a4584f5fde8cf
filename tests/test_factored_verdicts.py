"""The block-wise judges against the dense judges.

``run_protocol`` hands the judges the censored blocks the receiver is a
Kronecker product of. ``dense_reference`` keeps the judges that read the
dense receiver: one partial transpose and one diagonalization per cut, and
one partial trace per register marginal. Random receivers at most 256 wide,
in product, correlated and mixed block layouts with PPT and NPT blocks, must
get the same verdicts, witnesses and notes from both.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_judge
from qcensor import linalg, qrt
from qcensor.censorship import NetworkScenario, SenderStrategy, run_protocol
from qcensor.states import (
    DensityOperator,
    from_pure,
    isotropic,
    make_rng,
    maximally_mixed,
    random_density,
)

TOL = 1e-12
MAX_WIDTH = 256


def _hermitized(mat: np.ndarray, dims) -> DensityOperator:
    return DensityOperator((mat + mat.conj().T) / 2, dims)


def _classical_quantum(rng: np.random.Generator) -> np.ndarray:
    # sum_i p_i |i><i| (x) rho_i on two qubits, classical on the first
    p = rng.random()
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return p * np.kron(zero, random_density(2, 2, rng).mat) + (1 - p) * np.kron(
        one, random_density(2, 2, rng).mat
    )


def _block(kind: str, width: int, two_qubit: bool, rng: np.random.Generator) -> np.ndarray:
    if kind == "isotropic" and two_qubit:
        return isotropic(2, float(rng.random())).mat  # PPT exactly when p <= 1/3
    if kind == "classical_quantum" and two_qubit:
        return _classical_quantum(rng)
    if kind == "pure":
        return random_density(width, 1, rng).mat  # entangled across any cut, almost surely
    if kind == "mixed":
        return maximally_mixed((width,)).mat
    return random_density(width, width, rng).mat


@st.composite
def receivers(draw, theory: str):
    """(receiver, blocks) with at most MAX_WIDTH wide receivers."""
    if theory == "entanglement":
        sys_dims = draw(st.sampled_from(((2,), (3,), (2, 2))))
    else:
        sys_dims = (2, 2)
    reg = int(np.prod(sys_dims))
    max_regs = int(np.floor(np.log(MAX_WIDTH) / np.log(reg) + 1e-9))
    n_regs = draw(st.integers(2, max_regs))
    layout = draw(st.sampled_from(("product", "correlated", "mixed")))
    spans: list[int] = []
    while sum(spans) < n_regs:
        room = n_regs - sum(spans)
        if layout == "product" or room == 1:
            spans.append(1)
        elif layout == "correlated":
            spans.append(2)
        else:
            spans.append(draw(st.sampled_from((1, 2))))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ("isotropic", "classical_quantum", "pure", "mixed", "random")
    blocks = []
    for s in spans:
        kind = draw(st.sampled_from(kinds))
        mat = _block(kind, reg**s, sys_dims == (2, 2) and s == 1, rng)
        blocks.append((_hermitized(mat, sys_dims * s), s))
    product = linalg.kron_all([b.mat for b, _ in blocks])
    return _hermitized(product, sys_dims * n_regs), blocks, n_regs


def _assert_same_judgement(theory: str, receiver, blocks, n_regs: int) -> None:
    verdicts, notes = qrt.THEORIES[theory].judge(receiver, blocks)
    want_verdicts, want_notes = dense_judge(theory, receiver, n_regs)
    assert notes == want_notes
    assert verdicts.keys() == want_verdicts.keys()
    for name, v in verdicts.items():
        w = want_verdicts[name]
        assert (v.is_free, v.decisive) == (w.is_free, w.decisive), name
        assert abs(v.witness_value - w.witness_value) <= TOL, name


@given(receivers("entanglement"))
@settings(max_examples=40, deadline=None)
def test_factored_entanglement_matches_the_dense_judge(case):
    _assert_same_judgement("entanglement", *case)


@given(receivers("locality"))
@settings(max_examples=25, deadline=None)
def test_factored_locality_matches_the_dense_judge(case):
    _assert_same_judgement("locality", *case)


@given(receivers("discord"))
@settings(max_examples=25, deadline=None)
def test_factored_multi_sender_discord_matches_the_dense_judge(case):
    _assert_same_judgement("discord", *case)


def test_one_factor_ppt_is_the_dense_per_cut_loop():
    rng = make_rng(7)
    for dims in ((2, 2), (2, 3), (2, 2, 2), (3, 2, 2)):
        width = int(np.prod(dims))
        for rank in (1, width):
            rho = random_density(width, rank, rng, dims=dims)
            got = qrt.ppt_all_cuts(rho)
            want = dense_judge("entanglement", rho, 1)[0]["entanglement"]
            assert got == want  # bit-identical witness


def test_npt_block_decides_at_the_first_failing_cut():
    # qubit 0 is a product factor; the Bell pair sits on qubits 1 and 2
    bell = from_pure(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), dims=(2, 2))
    blocks = [(maximally_mixed((2,)), 1), (bell, 2)]
    receiver = DensityOperator(np.kron(blocks[0][0].mat, bell.mat), (2, 2, 2))
    verdict = qrt.ppt_all_cuts([b for b, _ in blocks])
    assert not verdict.is_free and verdict.decisive
    # cut {0} leaves the pair whole; cut {1} splits it: (1/2) * (-1/2)
    assert verdict.witness_value == pytest.approx(-0.25, abs=TOL)
    dense = dense_judge("entanglement", receiver, 3)[0]["entanglement"]
    assert (dense.is_free, dense.decisive) == (False, True)
    assert abs(dense.witness_value - verdict.witness_value) <= TOL


def _spy(monkeypatch, owner, name: str, record) -> None:
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        record(name, np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_five_sender_locality_run_never_builds_a_wide_cut(monkeypatch):
    p = 0.3
    scenario = NetworkScenario(
        theory="locality",
        channel_kind="replacement",
        strategies=[SenderStrategy("honest", state=isotropic(2, p)) for _ in range(5)],
    )
    widths: dict[str, list[int]] = {}
    wide_eigen: list[str] = []

    def record(name: str, shape) -> None:
        widths.setdefault(name, []).append(shape[0])
        if name.startswith("eig") and shape[0] == 1024:
            wide_eigen.append(sys._getframe(2).f_code.co_name)

    with monkeypatch.context() as m:
        for name in ("partial_transpose", "partial_trace", "min_eigenvalue", "extreme_eigenvalues"):
            _spy(m, linalg, name, record)
        for name in ("eigvalsh", "eigh", "eig", "eigvals"):
            _spy(m, np.linalg, name, record)
        report = run_protocol(scenario)

    assert max(widths["partial_transpose"]) <= 4
    assert max(widths["extreme_eigenvalues"]) <= 4
    assert max(widths.get("partial_trace", [0]) + widths.get("min_eigenvalue", [0])) <= 4
    assert wide_eigen == ["validate"]  # the receiver's own DensityOperator check

    receiver = report.receiver_state
    assert receiver.dim == 1024
    locality, entanglement = report.verdicts["locality"], report.verdicts["entanglement"]
    assert locality.is_free and not locality.decisive
    assert entanglement.is_free and not entanglement.decisive
    # dense values: register 0's marginal, and the cut splitting every pair
    marginal = np.einsum("ajbj->ab", receiver.mat.reshape(4, 256, 4, 256))
    dense_m = qrt.chsh_parameter(DensityOperator(marginal, (2, 2)))
    assert abs(locality.witness_value - dense_m) <= TOL
    split = linalg.partial_transpose(receiver.mat, receiver.dims, (0, 2, 4, 6, 8))
    dense_ppt = float(np.linalg.eigvalsh(split)[0])
    assert abs(entanglement.witness_value - dense_ppt) <= TOL
    assert abs(entanglement.witness_value - ((1 - 3 * p) / 4) ** 5) <= TOL
