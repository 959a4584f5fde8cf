"""Matrix validation against the coerce-at-every-step oracles.

Each public entry of ``linalg``, ``states`` and ``channels`` coerces and
checks its matrix once. These tests hold it to the oracles in
``dense_reference``: the same accept/reject outcome, the same exception type
and message, bit-identical reports, stored matrices and transfer matrices.
``validate`` also reads a stack of matrices, which it reports as the worst
of each field over the stack. The Cholesky check behind ``DensityOperator``
and ``density_stack`` is held to ``validate``: the same verdict and the same
rejection message.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    reference_density_operator,
    reference_kraus_transfer,
    reference_validate,
)
from qcensor import linalg, states
from qcensor.channels import KrausChannel
from qcensor.states import DensityOperator, validate

# defects placed on either side of the 1e-9 tolerances
STRADDLE = (0.0, 0.5e-9, 0.999e-9, 1e-9, 1.001e-9, 2e-9)
DEFECTS = (0.0,) * len(STRADDLE) + STRADDLE  # half the draws add no defect
NON_FINITE = (np.nan, np.inf, -np.inf)
SIGNATURE_ERRORS = ("dimension signature", "subsystem dimensions", "signature (")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raise", (type(exc), str(exc))


def _bits(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def matrices(draw):
    """States with a defect near a tolerance, non-finite parts, bad shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("state", "state", "state", "non_finite", "shape", "ndim")))
    if kind == "shape":
        return rng.normal(size=(draw(st.integers(0, 4)), draw(st.integers(0, 4)))).astype(complex)
    if kind == "ndim":
        return np.ones((2,) * draw(st.sampled_from((0, 1, 3))), dtype=complex) / 2
    n = draw(st.integers(1, 4))
    w = rng.dirichlet(np.ones(n))
    if n > 1:  # the smallest eigenvalue near -TOL_PSD, the trace kept
        low = draw(st.sampled_from(DEFECTS))
        w[-1] += w[0] + low
        w[0] = -low
    u = _unitary(rng, n)
    scale = 1.0 + draw(st.sampled_from(DEFECTS)) * draw(st.sampled_from((1, -1)))
    mat = (u * w) @ u.conj().T * scale
    if n > 1:  # a one-sided off-diagonal defect near TOL_HERM
        mat[0, n - 1] += draw(st.sampled_from(DEFECTS)) * draw(st.sampled_from((1, 1j)))
    if kind == "non_finite":  # only the real or only the imaginary part
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from(NON_FINITE))
        re, im = (bad, mat[i, j].imag) if draw(st.booleans()) else (mat[i, j].real, bad)
        mat[i, j] = complex(re, im)
    return mat


def _reference_worst(mat) -> tuple[float, float, float]:
    """The oracle's report of a matrix; of a stack, the worst of each field."""
    arr = np.asarray(mat)
    if arr.ndim < 3:
        return reference_validate(arr)
    defects, lows, deviations = zip(*map(reference_validate, arr.reshape(-1, *arr.shape[-2:])))
    return max(defects), min(lows), max(deviations)


@given(matrices())
@settings(max_examples=400)
def test_validate_matches_the_oracle(mat):
    got, want = _outcome(validate, mat), _outcome(_reference_worst, mat)
    assert got[0] == want[0]
    if got[0] == "raise":
        assert got[1] == want[1]
        return
    report = got[1]
    fields = (report.hermiticity_defect, report.min_eigenvalue, report.trace_deviation)
    assert _bits(fields) == _bits(want[1])
    defect, low, dev = want[1]
    assert report.is_valid == (defect <= 1e-9 and low >= -1e-9 and dev <= 1e-9)


SIGNATURES = ("rows", "rows", "rows", (2, 2), (3,), (), (1, 2))


@given(matrices(), st.sampled_from(SIGNATURES), st.booleans())
@settings(max_examples=400)
def test_density_operator_matches_the_oracle(mat, dims, fortran):
    if fortran:
        mat = np.asfortranarray(mat)
    if dims == "rows":
        dims = (mat.shape[0],) if mat.ndim else ()
    got = _outcome(DensityOperator, mat, dims)
    want = _outcome(reference_density_operator, mat, dims)
    assert got[0] == want[0]
    if got[0] == "ok":
        rho, (arr, sig) = got[1], want[1]
        assert rho.dims == sig
        assert rho.mat.dtype == arr.dtype and rho.mat.flags.c_contiguous
        assert rho.mat.tobytes() == arr.tobytes()
        assert not rho.mat.flags.writeable
        return
    if got[1] != want[1]:
        # One documented change: a matrix that fails both the signature check
        # and validation (non-square or empty) now reports the latter first.
        assert want[1][1].startswith(SIGNATURE_ERRORS)
        assert got[1] == _outcome(validate, mat)[1]


HUGE = 1.7976931348623157e308  # the Hermitian part of a pair of these overflows


@st.composite
def ginibre_stacks(draw):
    """Stacks of rank-1, rank-deficient and full-rank Ginibre states, one row
    of which may have its smallest eigenvalue, trace or Hermiticity placed
    near a tolerance, a non-finite part or a Hermitian pair of huge entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from((2, 4, 36, 144)))
    rank = draw(st.sampled_from(sorted({1, 2, n // 2, n})))
    count = draw(st.integers(1, 3))
    g = rng.normal(size=(count, n, rank)) + 1j * rng.normal(size=(count, n, rank))
    mats = g @ g.conj().swapaxes(1, 2)
    mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
    k = draw(st.integers(0, count - 1))
    low = draw(st.sampled_from(DEFECTS))
    if low:  # the smallest eigenvalue at -low, the trace kept
        w, u = np.linalg.eigh(mats[k])
        w[-1] += w[0] + low
        w[0] = -low
        mats[k] = (u * w) @ u.conj().T
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from((None, None, "trace", "herm", "non_finite", "huge")))
    if fault == "trace":
        mats[k] *= 1.0 + draw(st.sampled_from(STRADDLE)) * draw(st.sampled_from((1, -1)))
    elif fault == "herm":
        mats[k, i, j] += draw(st.sampled_from(STRADDLE)) * draw(st.sampled_from((1, 1j)))
    elif fault == "non_finite":
        mats[k, i, j] = draw(st.sampled_from(NON_FINITE))
    elif fault == "huge":
        mats[k, i, j] = mats[k, j, i] = HUGE
    return mats if count > 1 or draw(st.booleans()) else mats[0]


@given(st.one_of(matrices(), ginibre_stacks()))
@settings(max_examples=400, deadline=None)
def test_cholesky_check_matches_validate(mat):
    # The Cholesky check accepts exactly what validate accepts and rejects the
    # rest with validate's message: no band is exempt.
    got = _outcome(lambda m: states._require_valid(states._check_state(m)), mat)
    assert got == _outcome(lambda m: states._require_valid(validate(m)), mat)


def _budget_state(rng, low: float) -> np.ndarray:
    """A rank-4 Ginibre state 1024 wide, less low times a kernel projector,
    renormalized: its smallest eigenvalue is -low / (1 - low)."""
    g = rng.normal(size=(1024, 4)) + 1j * rng.normal(size=(1024, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    q = np.linalg.qr(np.column_stack([g, rng.normal(size=1024)]))[0]
    v = q[:, 4]  # orthogonal to the range of rho
    return (rho - low * np.outer(v, v.conj())) / (1.0 - low)


def test_budget_width_is_decided_by_the_factor_alone(calls):
    # At the 1024-wide budget the d^2 eps backward error of Cholesky is
    # largest; the TOL_PSD / 2 shift must still leave validate's verdict.
    rng = np.random.default_rng(1024)
    DensityOperator(_budget_state(rng, 0.0), (2,) * 10)
    assert calls["eigvalsh"] == 0 and calls["cholesky"] == 1
    bad = _budget_state(rng, 1.5e-9)
    want = _outcome(lambda m: states._require_valid(validate(m)), bad)
    assert want[0] == "raise" and "min eigenvalue -1.500e-09" in want[1][1]
    assert _outcome(DensityOperator, bad, (2,) * 10) == want


@st.composite
def kraus_lists(draw):
    """Trace-preserving stacks, some broken: scaled near the TP tolerance,
    with a non-finite part, a ragged or flat operator, or no operators."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_in, d_out = draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3)))
    m = draw(st.integers(-(-d_in // d_out), 4))  # enough operators to be trace preserving
    g = rng.normal(size=(m, d_out, d_in)) + 1j * rng.normal(size=(m, d_out, d_in))
    s_w, s_v = np.linalg.eigh(np.einsum("kai,kaj->ij", g.conj(), g))
    ops = [k for k in g @ (s_v / np.sqrt(s_w)) @ s_v.conj().T]
    ops[0] = ops[0] * np.sqrt(1.0 + draw(st.sampled_from(STRADDLE)))
    fault = draw(st.sampled_from((None, None, "non_finite", "ragged", "flat", "empty")))
    pos = draw(st.integers(0, m - 1))
    if fault == "non_finite":
        ops[pos][0, 0] = complex(draw(st.sampled_from(NON_FINITE)), 0.0)
    elif fault == "ragged":
        ops[pos] = np.ones((d_out, d_in + 1), dtype=complex)
    elif fault == "flat":
        ops[pos] = ops[pos].reshape(-1)
    elif fault == "empty":
        ops = []
    out_dims = draw(st.sampled_from(((d_out,), (1, d_out))))  # (1, d) fails the signature
    return ops, (d_in,), out_dims


@given(kraus_lists())
@settings(max_examples=300)
def test_kraus_channel_matches_the_oracle(case):
    ops, in_dims, out_dims = case
    got = _outcome(KrausChannel, ops, in_dims, out_dims)
    want = _outcome(reference_kraus_transfer, ops, in_dims, out_dims)
    assert got[0] == want[0]
    if got[0] == "raise":
        assert got[1] == want[1]
        return
    ch = got[1]
    assert ch.transfer.tobytes() == want[1].tobytes()
    assert (ch.in_dim, ch.out_dim) == (int(np.prod(in_dims)), int(np.prod(out_dims)))


@pytest.fixture
def calls(monkeypatch):
    counts: Counter = Counter()

    def counting(owner, name: str) -> None:
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counting(linalg, "as_complex_matrix")
    counting(np.linalg, "eigvalsh")
    counting(np.linalg, "cholesky")
    return counts


def test_density_operator_coerces_once_and_factors_once(calls):
    # A valid state is decided by one Cholesky factorization; eigvalsh runs
    # once, and only for a state that fails, to word the rejection from the
    # parts already computed, so a rejected state is coerced once too.
    DensityOperator(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex), (2, 2))
    assert calls == {"as_complex_matrix": 1, "cholesky": 1}
    for bad, factored in ((np.diag([1.5, -0.5]), 1), (np.eye(2), 0)):
        calls.clear()
        with pytest.raises(ValueError, match="invalid density operator"):
            DensityOperator(bad, (2,))
        assert (calls["as_complex_matrix"], calls["eigvalsh"], calls["cholesky"]) == (1, 1, factored)


@pytest.mark.parametrize(
    "entry",
    [linalg.min_eigenvalue, linalg.hermitian_eig, linalg.von_neumann_entropy],
    ids=lambda f: f.__name__,
)
def test_each_linalg_entry_coerces_once(entry, calls):
    entry(np.eye(3, dtype=complex) / 3)
    assert calls["as_complex_matrix"] == 1


def test_kraus_channel_coerces_its_stack_once(calls):
    ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    ch = KrausChannel(ops, (2,), (2,))
    assert calls["as_complex_matrix"] == 0
    ch.apply_matrix(np.eye(2) / 2)
    assert calls["as_complex_matrix"] == 1
