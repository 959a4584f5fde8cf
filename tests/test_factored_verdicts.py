"""The block-by-block judges against the dense judges.

``run_protocol`` hands the judges the censored blocks the receiver is a
Kronecker product of. Each theory runs its own test on every block, or on
every register marginal, at its own tolerance, and the receiver is free
exactly when every block is. ``dense_reference`` keeps the judges that read
the dense receiver: the affine tests on all of its entries, one partial
transpose and one diagonalization per cut, and one partial trace per
register marginal. A dense witness shrinks with the other blocks, so random
receivers at most 256 wide, in product, correlated and mixed block layouts
with free, faint and resource blocks, must get the same freeness from both
wherever the dense witness lies away from the tolerance, and the same
marginal verdicts and notes. Appending maximally mixed blocks must leave
every verdict as it was.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import dense_judge, dense_ppt_all_cuts
from qcensor import linalg, qrt
from qcensor.censorship import NetworkScenario, SenderStrategy, run_protocol
from qcensor.states import (
    DensityOperator,
    from_pure,
    isotropic,
    make_rng,
    maximally_mixed,
    random_density,
    random_real_density,
)

TOL = 1e-12
MAX_WIDTH = 256
EDGE_MARGIN = 1e-6
FAINT = 1e-7
# the tolerance each theory's dense witness is compared with
EDGES = {"coherence": qrt.TOL_DIAG, "imaginarity": qrt.TOL_DIAG, "entanglement": -qrt.TOL_PPT}


def _hermitized(mat: np.ndarray, dims) -> DensityOperator:
    return DensityOperator((mat + mat.conj().T) / 2, dims)


def _classical_quantum(rng: np.random.Generator) -> np.ndarray:
    # sum_i p_i |i><i| (x) rho_i on two qubits, classical on the first
    p = rng.random()
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return p * np.kron(zero, random_density(2, 2, rng).mat) + (1 - p) * np.kron(
        one, random_density(2, 2, rng).mat
    )


def _faint(width: int, two_qubit: bool) -> np.ndarray:
    # Non-free on its own by a witness of about 1e-7: entangled when two_qubit,
    # else a coherent and imaginary perturbation of the maximally mixed state.
    if two_qubit:
        return isotropic(2, 1 / 3 + 2 * FAINT).mat
    mat = maximally_mixed((width,)).mat.copy()
    mat[0, 1], mat[1, 0] = -1j * FAINT, 1j * FAINT
    return mat


def _block(kind: str, width: int, two_qubit: bool, rng: np.random.Generator) -> np.ndarray:
    if kind == "isotropic" and two_qubit:
        return isotropic(2, float(rng.random())).mat  # PPT exactly when p <= 1/3
    if kind == "classical_quantum" and two_qubit:
        return _classical_quantum(rng)
    if kind == "pure":
        return random_density(width, 1, rng).mat  # entangled across any cut, almost surely
    if kind == "mixed":
        return maximally_mixed((width,)).mat
    if kind == "diagonal":
        probs = rng.random(width)
        return np.diag(probs / probs.sum()).astype(complex)
    if kind == "real":
        return random_real_density(width, width, rng).mat
    if kind == "faint":
        return _faint(width, two_qubit)
    return random_density(width, width, rng).mat


@st.composite
def receivers(draw, theory: str):
    """(receiver, blocks, number of registers) with at most MAX_WIDTH wide receivers."""
    if theory in ("discord", "locality"):
        sys_dims = (2, 2)
    else:
        sys_dims = draw(st.sampled_from(((2,), (3,), (2, 2))))
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
    kinds = (
        "isotropic", "classical_quantum", "pure", "mixed", "diagonal", "real", "faint", "random"
    )
    blocks = []
    for s in spans:
        kind = draw(st.sampled_from(kinds))
        mat = _block(kind, reg**s, sys_dims == (2, 2) and s == 1, rng)
        blocks.append((_hermitized(mat, sys_dims * s), s))
    product = linalg.kron_all([b.mat for b, _ in blocks])
    return _hermitized(product, sys_dims * n_regs), blocks, n_regs


def _assert_same_freeness(theory: str, receiver, blocks, n_regs: int) -> None:
    verdict = qrt.THEORIES[theory].judge(blocks)[0][theory]
    want = dense_judge(theory, receiver, n_regs)[0][theory]
    assume(abs(want.witness_value - EDGES[theory]) > EDGE_MARGIN)
    assert verdict.is_free == want.is_free


@given(receivers("entanglement"))
@settings(max_examples=40, deadline=None)
def test_factored_entanglement_matches_the_dense_judge(case):
    receiver, blocks, n_regs = case
    _assert_same_freeness("entanglement", receiver, blocks, n_regs)
    # each block with a cut is judged by the dense per-cut loop, bit for bit
    for block, _ in blocks:
        if len(block.dims) > 1:
            assert qrt.ppt_all_cuts(block) == dense_ppt_all_cuts(block)


@pytest.mark.parametrize("theory", ["coherence", "imaginarity"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_factored_affine_verdict_matches_the_dense_judge(theory, data):
    _assert_same_freeness(theory, *data.draw(receivers(theory)))


def _assert_same_marginal_judgement(theory: str, receiver, blocks, n_regs: int) -> None:
    verdicts, notes = qrt.THEORIES[theory].judge(blocks)
    want_verdicts, want_notes = dense_judge(theory, receiver, n_regs)
    assert notes == want_notes
    v, w = verdicts[theory], want_verdicts[theory]
    assert (v.is_free, v.decisive) == (w.is_free, w.decisive)
    assert abs(v.witness_value - w.witness_value) <= TOL


@given(receivers("locality"))
@settings(max_examples=25, deadline=None)
def test_factored_locality_matches_the_dense_judge(case):
    _assert_same_marginal_judgement("locality", *case)


@given(receivers("discord"))
@settings(max_examples=25, deadline=None)
def test_factored_multi_sender_discord_matches_the_dense_judge(case):
    _assert_same_marginal_judgement("discord", *case)


@pytest.mark.parametrize("theory", sorted(qrt.THEORIES))
@given(data=st.data(), extra=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_appending_maximally_mixed_blocks_keeps_the_verdict(theory, data, extra):
    _, blocks, _ = data.draw(receivers(theory))
    sys_dims = blocks[0][0].dims[: len(blocks[0][0].dims) // blocks[0][1]]
    padded = blocks + [(maximally_mixed(sys_dims), 1)] * extra
    before = qrt.THEORIES[theory].judge(blocks)[0]
    after = qrt.THEORIES[theory].judge(padded)[0]
    assert before.keys() == after.keys()
    for name, v in before.items():
        w = after[name]
        assert (v.is_free, v.decisive) == (w.is_free, w.decisive), name
        assert abs(v.witness_value - w.witness_value) <= 1e-15, name


@st.composite
def repeated_blocks(draw):
    """1-4 two-qubit blocks, one or two registers each, drawn with repeats
    from a pool of up to three block objects."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    # the window kind twice, so that repeated marginals often carry notes
    kinds = ("window", "window", "isotropic", "classical_quantum", "pure", "mixed", "real", "faint")
    kinds += ("random",)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        kind, spans = draw(st.sampled_from(kinds)), draw(st.sampled_from((1, 1, 2)))
        if kind == "window" and spans == 1:  # in the entangled-but-local window
            mat = isotropic(2, 0.34 + 0.07 * rng.random()).mat
        else:
            mat = _block(kind, 4**spans, spans == 1, rng)
        pool.append((_hermitized(mat, (2, 2) * spans), spans))
    # the first pick repeats the block of one of the others, when there are two
    picks = [draw(st.integers(0, len(pool) - 1)) for _ in range(draw(st.integers(1, 4)))]
    if len(picks) > 1:
        picks[0] = picks[draw(st.integers(1, len(picks) - 1))]
    return [pool[k] for k in picks]


def _bits(judged: qrt.Verdicts):
    verdicts, notes = judged
    return notes, {
        name: (v.is_free, v.decisive, np.float64(v.witness_value).tobytes())
        for name, v in verdicts.items()
    }


@pytest.mark.parametrize("theory", sorted(qrt.THEORIES))
@given(blocks=repeated_blocks())
@settings(max_examples=25, deadline=None)
def test_judges_on_repeated_blocks_match_distinct_copies(theory, blocks):
    # a judge tests each block object once; copies are tested one by one
    copies = [(DensityOperator(b.mat.copy(), b.dims), spans) for b, spans in blocks]
    judge = qrt.THEORIES[theory].judge
    assert _bits(judge(blocks)) == _bits(judge(copies))


def test_one_factor_ppt_is_the_dense_per_cut_loop():
    rng = make_rng(7)
    for dims in ((2, 2), (2, 3), (2, 2, 2), (3, 2, 2)):
        width = int(np.prod(dims))
        for rank in (1, width):
            rho = random_density(width, rank, rng, dims=dims)
            got = qrt.ppt_all_cuts(rho)
            want = dense_judge("entanglement", rho, 1)[0]["entanglement"]
            assert got == want  # bit-identical witness


def test_one_factor_blocks_have_no_cut():
    rho = DensityOperator(np.diag([0.2, 0.3, 0.5]).astype(complex), (3,))
    with pytest.raises(ValueError, match="at least two factors"):
        qrt.ppt_all_cuts(rho)
    verdicts, _ = qrt.THEORIES["entanglement"].judge([(rho, 1), (maximally_mixed((3,)), 1)])
    assert verdicts["entanglement"] == qrt.ResourceVerdict(True, linalg.min_eigenvalue(rho.mat))


def test_npt_block_decides_at_the_first_failing_cut():
    # qubit 0 is a product factor; the Bell pair sits on qubits 1 and 2
    bell = from_pure(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), dims=(2, 2))
    blocks = [(maximally_mixed((2,)), 1), (bell, 2)]
    receiver = DensityOperator(np.kron(blocks[0][0].mat, bell.mat), (2, 2, 2))
    verdict = qrt.THEORIES["entanglement"].judge(blocks)[0]["entanglement"]
    assert not verdict.is_free and verdict.decisive
    # the Bell block's own cut, not scaled by the other block's 1/2
    assert verdict.witness_value == pytest.approx(-0.5, abs=TOL)
    dense = dense_judge("entanglement", receiver, 3)[0]["entanglement"]
    assert (dense.is_free, dense.decisive) == (False, True)
    assert dense.witness_value == pytest.approx(-0.25, abs=TOL)


def test_faint_resource_blocks_stay_resources_next_to_mixed_blocks():
    edge = isotropic(2, 1 / 3 + 2 * FAINT)
    mixed = [(maximally_mixed((2, 2)), 1)] * 4
    entanglement = qrt.THEORIES["entanglement"].judge([(edge, 1), *mixed])[0]["entanglement"]
    assert not entanglement.is_free and entanglement.decisive
    assert abs(entanglement.witness_value + 1.5e-7) <= TOL

    qubit = DensityOperator(_faint(2, False), (2,))
    qubits = [(qubit, 1)] + [(maximally_mixed((2,)), 1)] * 4
    imaginarity = qrt.THEORIES["imaginarity"].judge(qubits)[0]["imaginarity"]
    assert not imaginarity.is_free and imaginarity.witness_value == FAINT

    scenario = NetworkScenario(
        theory="locality",
        channel_kind="replacement",
        strategies=[SenderStrategy("honest", state=edge)]
        + [SenderStrategy("honest", state=isotropic(2, 0.0)) for _ in range(4)],
    )
    assert not run_protocol(scenario).verdicts["entanglement"].is_free


def _spy(monkeypatch, owner, name: str, record, of_result: bool = False) -> None:
    # records the shape of the first argument, or of the result
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        record(name, np.shape(out if of_result else args[0]))
        return out

    monkeypatch.setattr(owner, name, spy)


def test_five_sender_locality_run_never_builds_a_wide_cut(monkeypatch):
    # The receiver is 1024 wide; run_protocol makes no Kronecker product (an
    # honest sender's block is censored without its message register) and
    # diagonalizes nothing wider than one censored block (4).
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
        if name.startswith("eig") and shape[0] > 4:
            wide_eigen.append(sys._getframe(2).f_code.co_name)

    with monkeypatch.context() as m:
        for name in ("partial_transpose", "partial_trace", "min_eigenvalue"):
            _spy(m, linalg, name, record)
        _spy(m, linalg, "kron_all", record, of_result=True)
        _spy(m, np, "kron", record, of_result=True)
        for name in ("eigvalsh", "eigh", "eig", "eigvals"):
            _spy(m, np.linalg, name, record)
        report = run_protocol(scenario)

    assert max(widths["partial_transpose"]) <= 4
    assert max(widths["min_eigenvalue"]) <= 4
    assert max(widths.get("partial_trace", [0])) <= 4
    assert max(widths.get("kron_all", [0])) <= 8
    assert "kron" not in widths
    assert wide_eigen == []

    receiver, dims = report.render_receiver()
    assert dims == (2, 2) * 5
    locality, entanglement = report.verdicts["locality"], report.verdicts["entanglement"]
    assert locality.is_free and not locality.decisive
    assert entanglement.is_free and entanglement.decisive
    # dense value: register 0's marginal
    marginal = np.einsum("ajbj->ab", receiver.reshape(4, 256, 4, 256))
    dense_m = qrt.chsh_parameter(DensityOperator(marginal, (2, 2)))
    assert abs(locality.witness_value - dense_m) <= TOL
    # one block's 2x2 cut
    assert abs(entanglement.witness_value - (1 - 3 * p) / 4) <= TOL
