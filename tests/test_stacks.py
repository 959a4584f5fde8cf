"""Stacked sampling checks against their one-state-at-a-time oracles.

qcensor draws, validates, applies and judges a sampled check as one array of
shape (S, d, d). These properties hold each stacked step to the per-state
path of ``dense_reference``: draws and channel outputs bit for bit, the
stacked validation as the worst of the per-matrix reports, each theory's
stacked excess as the per-state witness, and the channel_axioms suite as
the per-probe loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    per_joint_censor,
    reference_channel_axioms,
    reference_complex_normals,
    reference_excess,
    reference_random_density,
    reference_standard_normals,
    reference_validate,
)
from qcensor import linalg, qrt
from qcensor.censorship import _censor_joint, _default_branch
from qcensor.channels import amplitude_damping, depolarizing, replacement_channel
from qcensor.states import (
    DensityOperator,
    bell_phi_plus,
    complex_normals,
    density_stack,
    from_pure,
    make_rng,
    random_densities,
    random_density,
    random_real_densities,
    standard_normals,
    tensor,
    validate,
)
from qcensor.suites import run_suite

SEEDS = st.integers(0, 2**32 - 1)


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


# ---------------------------------------------------------------- draws


@given(SEEDS, st.integers(1, 17), st.integers(1, 6))
@settings(max_examples=60)
def test_stacked_normals_are_successive_single_draws(seed, n, count):
    rng = make_rng(seed)
    want = [reference_standard_normals(rng, n) for _ in range(count)]
    assert _bits(standard_normals(make_rng(seed), n, count)) == _bits(want)
    rng = make_rng(seed)
    want = [reference_complex_normals(rng, n) for _ in range(count)]
    assert _bits(complex_normals(make_rng(seed), n, count)) == _bits(want)


@given(SEEDS, st.integers(2, 9), st.data(), st.integers(1, 5), st.booleans())
@settings(max_examples=60)
def test_stacked_densities_are_successive_single_draws(seed, dim, data, count, real):
    rank = data.draw(st.integers(1, dim))
    rng = make_rng(seed)
    want = [reference_random_density(dim, rank, rng, real).mat for _ in range(count)]
    draw = random_real_densities if real else random_densities
    got = draw(dim, rank, make_rng(seed), count)
    assert got.shape == (count, dim, dim) and not got.flags.writeable
    assert _bits(got) == _bits(want)
    if not real:  # a single draw is the stack of one
        assert _bits(random_density(dim, rank, seed).mat) == _bits(want[0])


# ----------------------------------------------------------- validation


@st.composite
def defective_stacks(draw):
    """Stacks of d x d matrices, each a state with defects near the 1e-9
    tolerances: a negative eigenvalue, a scaled trace, a one-sided entry."""
    rng = np.random.default_rng(draw(SEEDS))
    d, count = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    near = st.sampled_from((0.0, 0.0, 0.5e-9, 1e-9, 1.001e-9, 2e-9))
    mats = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(d))
        w[0] -= draw(near)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        mat = (q * w) @ q.conj().T * (1.0 + draw(near) * draw(st.sampled_from((1, -1))))
        mat[0, d - 1] += draw(near)
        mats.append(mat)
    return np.array(mats)


@given(defective_stacks())
@settings(max_examples=200)
def test_stacked_validate_is_the_worst_of_the_per_matrix_reports(stack):
    report = validate(stack)
    defects, lows, deviations = zip(*(reference_validate(m) for m in stack))
    got = (report.hermiticity_defect, report.min_eigenvalue, report.trace_deviation)
    assert _bits(got) == _bits([max(defects), min(lows), max(deviations)])
    per_matrix = [validate(m).is_valid for m in stack]
    assert report.is_valid == all(per_matrix)


def _bad_matrix(kind: str, d: int) -> np.ndarray:
    """A d x d matrix with one fault, every field of its report at least as
    bad as those of I/d."""
    mat = np.eye(d, dtype=complex) / d
    if kind == "nan":
        mat[0, 0] = np.nan
    elif kind == "non_hermitian":
        mat[0, d - 1] += 1e-6
    elif kind == "negative":
        mat[0, 0], mat[1, 1] = -0.25, mat[1, 1] + 0.25 + 1 / d
    else:  # wrong trace
        mat *= 0.9
    return mat


@given(st.sampled_from(("nan", "non_hermitian", "negative", "trace")), st.integers(2, 4), st.data())
@settings(max_examples=60)
def test_a_stack_with_one_bad_matrix_is_rejected_like_density_operator(kind, d, data):
    count = data.draw(st.integers(1, 5))
    stack = np.array([np.eye(d, dtype=complex) / d] * count)
    stack[data.draw(st.integers(0, count - 1))] = _bad_matrix(kind, d)
    with pytest.raises(ValueError) as single:
        DensityOperator(_bad_matrix(kind, d), (d,))
    with pytest.raises(ValueError) as stacked:
        density_stack(stack)
    assert str(stacked.value) == str(single.value)


def test_a_stacks_trace_deviation_is_its_worst_row_in_the_middle():
    stack = np.array([np.eye(3, dtype=complex) / 3] * 5)
    for row, scale in ((1, 1 - 4e-10), (2, 1 + 3e-9), (3, 1 + 2e-9)):
        stack[row] *= scale
    deviations = [reference_validate(m)[2] for m in stack]
    assert int(np.argmax(deviations)) == 2
    assert _bits(validate(stack).trace_deviation) == _bits(max(deviations))
    with pytest.raises(ValueError, match=f"trace deviation {max(deviations):.3e}"):
        density_stack(stack)


def test_density_stack_is_a_read_only_copy():
    stack = np.array([np.eye(2, dtype=complex) / 2] * 3)
    checked = density_stack(stack)
    assert checked is not stack and not checked.flags.writeable and stack.flags.writeable
    assert checked.tobytes() == stack.tobytes()


# --------------------------------------------------------------- channels


@given(SEEDS, st.integers(1, 6))
@settings(max_examples=30)
def test_a_channel_acts_on_a_stack_as_on_each_matrix(seed, count):
    target = random_density(3, 2, seed + 1)
    for ch in (depolarizing(3, 0.3), replacement_channel(target), amplitude_damping(0.4)):
        probes = random_densities(ch.in_dim, ch.in_dim, make_rng(seed), count)
        got = ch.apply_matrix(probes)
        assert got.shape == (count, ch.out_dim, ch.out_dim)
        assert _bits(got) == _bits([ch.apply_matrix(p) for p in probes])


# ----------------------------------------------------------------- excess


def _free_state(theory: str, dims: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    d = int(np.prod(dims))
    if theory == "coherence":
        return np.diag(rng.dirichlet(np.ones(d))).astype(complex)
    if theory == "imaginarity":
        return reference_random_density(d, d, rng, real=True).mat
    if theory == "discord":  # classical-quantum, classical on the first factor
        weights = rng.dirichlet(np.ones(dims[0]))
        parts = [reference_random_density(dims[1], dims[1], rng).mat for _ in weights]
        return sum(
            w * np.kron(np.diag(np.eye(dims[0])[i]), part)
            for i, (w, part) in enumerate(zip(weights, parts))
        )
    # a product state, separable and local
    return tensor(*(reference_random_density(k, k, rng) for k in dims)).mat


THEORY_DIMS = [
    ("coherence", (2,)),
    ("coherence", (3,)),
    ("coherence", (2, 2)),
    ("imaginarity", (2,)),
    ("imaginarity", (4,)),
    ("entanglement", (2, 2)),
    ("entanglement", (2, 3)),
    ("entanglement", (2, 2, 2)),
    ("discord", (2, 2)),
    ("discord", (2, 3)),
    ("discord", (3, 2)),
    ("locality", (2, 2)),
]


@pytest.mark.parametrize("theory,dims", THEORY_DIMS, ids=lambda x: str(x))
@given(SEEDS, st.integers(1, 5), st.booleans())
@settings(max_examples=25)
def test_stacked_excess_is_the_per_state_excess(theory, dims, seed, count, free):
    rng = make_rng(seed)
    d = int(np.prod(dims))
    if free:
        mats = np.array([_free_state(theory, dims, rng) for _ in range(count)])
    else:
        mats = np.array([reference_random_density(d, d, rng).mat for _ in range(count)])
    got = qrt.THEORIES[theory].excess(mats, dims)
    want = [reference_excess(theory, DensityOperator(m, dims)) for m in mats]
    assert got.shape == (count,)
    assert _bits(got) == _bits(want)
    if free:
        assert max(want) <= 1e-9


def test_entanglement_excess_reads_the_first_failing_cut():
    # entangled across 0|12 weakly and across 2|01 strongly: two cuts fail
    zero = from_pure(np.array([1.0, 0.0]))
    rho = DensityOperator(
        0.3 * tensor(bell_phi_plus(2), zero).mat + 0.7 * tensor(zero, bell_phi_plus(2)).mat,
        (2, 2, 2),
    )
    witnesses = [qrt.is_free_entanglement(rho, (k,)).witness_value for k in range(3)]
    assert witnesses[0] < -1e-3 and witnesses[2] < witnesses[0]
    excess = qrt.THEORIES["entanglement"].excess(np.array([rho.mat, rho.mat]), rho.dims)
    assert excess.tolist() == [-witnesses[0]] * 2 == [reference_excess("entanglement", rho)] * 2


# ------------------------------------------------------------------ suite


@pytest.mark.parametrize("samples,seed", [(7, 1), (20, 7), (33, 3)])
def test_channel_axioms_matches_the_per_probe_oracle(samples, seed):
    passed, defects, failures = reference_channel_axioms(samples, seed)
    result = run_suite("channel_axioms", samples, seed)
    assert (result.passed, result.failures) == (passed, failures)
    assert result.max_defects.keys() == defects.keys()
    for key, value in defects.items():
        assert abs(result.max_defects[key] - value) <= 1e-15, key


def test_partial_transpose_of_a_stack_is_each_partial_transpose():
    mats = random_densities(8, 8, make_rng(3), 4)
    got = linalg.partial_transpose(mats, (2, 2, 2), (0, 2))
    assert _bits(got) == _bits([linalg.partial_transpose(m, (2, 2, 2), (0, 2)) for m in mats])


# ------------------------------------------------------------- censoring


@st.composite
def censor_cases(draw):
    """A stack of joints over n_pairs message+system pairs, each with the
    stacked transfer of its own m - 1 random replacement branches and I/d."""
    rng = make_rng(draw(SEEDS))
    sys = draw(st.sampled_from([(2,), (2, 2)]))
    m, n_pairs, count = draw(st.integers(2, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    d = int(np.prod(sys))
    transfers = []
    for _ in range(count):
        states = [random_density(d, d, rng, sys) for _ in range(m - 1)]
        branches = [replacement_channel(s) for s in states] + [_default_branch(sys)]
        transfers.append(np.hstack([b.transfer for b in branches]))
    width = (m * d) ** n_pairs
    return np.stack(transfers), random_densities(width, width, rng, count), n_pairs, sys


@given(censor_cases())
@settings(max_examples=40)
def test_stacked_censor_is_each_joint_censored_alone(case):
    transfers, joints, n_pairs, sys = case
    got = _censor_joint(transfers, joints, n_pairs, sys)
    want = [per_joint_censor(t, j, n_pairs, sys) for t, j in zip(transfers, joints)]
    assert _bits(got) == _bits(want)
    # the one-joint entry is the stack of one
    assert _bits(_censor_joint(transfers[:1], joints[:1], n_pairs, sys)) == _bits(want[:1])


# ------------------------------------------------------------- eigenbases


def _description_bits(desc) -> tuple:
    return desc.label, desc.payload, _bits(desc.basis), _bits(desc.state.mat), desc.state.dims


@st.composite
def real_state_stacks(draw):
    """Stacks of real states on one register, each with a spectrum that may
    repeat eigenvalues (I/d among them), and imaginary parts that may be -0.0."""
    rng = np.random.default_rng(draw(SEEDS))
    d = draw(st.sampled_from((2, 3, 4)))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("distinct", "repeated", "flat")))
        w = rng.random(d) + 0.1
        if kind == "repeated":  # one eigenvalue repeated on a random set of columns
            w[rng.random(d) < 0.6] = w[0]
        if kind == "flat":
            mat = np.eye(d, dtype=complex) / d
        else:
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            mat = ((q * (w / w.sum())) @ q.T).astype(complex)
        if draw(st.booleans()):
            mat.imag[rng.random((d, d)) < 0.5] = -0.0
        mats.append(DensityOperator(mat, (d,)))
    return mats


@given(real_state_stacks())
@settings(max_examples=150, deadline=None)
def test_stacked_eigenbases_and_descriptions_are_each_matrix_alone(states):
    # hermitian_eig, canonical_eigenbasis and the imaginarity encoder read a
    # stack as they read each of its matrices, bit for bit
    mats = np.array([s.mat for s in states])
    w, v = linalg.hermitian_eig(mats)
    alone = [linalg.hermitian_eig(m) for m in mats]
    assert _bits(w) == _bits([a[0] for a in alone])
    assert _bits(v) == _bits([a[1] for a in alone])
    bases = qrt.canonical_eigenbasis(mats)
    assert _bits(bases) == _bits([qrt.canonical_eigenbasis(m) for m in mats])
    got = [_description_bits(d) for d in qrt._encode_imaginarities(states)]
    assert got == [_description_bits(qrt._encode_imaginarity(s, None)) for s in states]
