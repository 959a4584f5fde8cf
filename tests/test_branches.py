"""Measure-and-prepare channels built as transfers with their Holevo pairs.

Each branch or noise transfer must equal, bit for bit, the Kraus-loop
transfer of its reference Kraus form in ``dense_reference``; its Holevo pairs
must act as its transfer does; and building the branches of imaginarity
descriptions must neither diagonalize again nor build a Kraus list.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import kraus_dephasing, kraus_noise, kraus_replacement
from qcensor import qrt
from qcensor.censorship import _stacked_transfer, build_conditional_channel, encode_description
from qcensor.channels import (
    TOL_TP,
    ChannelSpec,
    EbVerdict,
    GeneralLinearMap,
    KrausChannel,
    _spectral_columns,
    _trace_preserving_map,
    apply,
    dephasing_channel,
    is_entanglement_breaking,
    mix_maps,
    replacement_channel,
)
from qcensor.states import (
    DensityOperator,
    isotropic,
    make_rng,
    maximally_mixed,
    random_density,
    random_real_density,
)
from qcensor.suites import random_separable_ensemble

REGISTERS = st.sampled_from([(2,), (2, 2)])


def _bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, so 0.0 and -0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def _unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


@given(st.integers(0, 2**32 - 1), REGISTERS, st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_replacement_transfer_is_the_kraus_transfer(seed, dims, rank, real):
    dim = int(np.prod(dims))
    rank = min(rank, dim)
    draw = random_real_density if real else random_density
    sigma = draw(dim, rank, make_rng(seed), dims=dims)
    # a Ginibre state of rank r < d has d - r eigenvalues under 1e-12, dropped
    assert _spectral_columns(sigma).shape[1] == rank
    assert _bits(replacement_channel(sigma).transfer, kraus_replacement(sigma).transfer)


def test_replacement_transfer_drops_eigenvalues_under_the_cut():
    rng = make_rng(4)
    u = _orthogonal(4, rng)
    spectrum = np.array([0.6, 0.4 - 3e-13, 3e-13, 0.0])
    sigma = DensityOperator((u * spectrum) @ u.T, (2, 2))
    assert _spectral_columns(sigma).shape[1] == 2
    assert _bits(replacement_channel(sigma).transfer, kraus_replacement(sigma).transfer)
    for state in (maximally_mixed((2, 2)), maximally_mixed((2,)), isotropic(2, 1 / 3)):
        assert _bits(replacement_channel(state).transfer, kraus_replacement(state).transfer)


def _spectrum(kind: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unnormalized eigenvalues with no repeats, one repeated pair, two repeated
    pairs (on four or more levels) or all equal."""
    return {
        "distinct": rng.random(dim) + np.arange(dim),
        "pair": np.r_[1.0, 1.0, rng.random(dim - 2) + 2.0],
        "two_pairs": np.r_[1.0, 1.0, 2.0, 2.0, rng.random(max(dim - 4, 0)) + 3.0][:dim],
        "flat": np.ones(dim),
    }[kind]


@given(
    st.integers(0, 2**32 - 1),
    REGISTERS,
    st.sampled_from(["distinct", "pair", "two_pairs", "flat"]),
)
@settings(max_examples=60, deadline=None)
def test_dephasing_transfer_is_the_kraus_transfer_on_degenerate_spectra(seed, dims, spectrum):
    dim = int(np.prod(dims))
    rng = make_rng(seed)
    weights = _spectrum(spectrum, dim, rng)
    u = _orthogonal(dim, rng)
    sigma = DensityOperator((u * (weights / weights.sum())) @ u.T, dims)
    desc = encode_description("imaginarity", sigma)
    basis = qrt.canonical_eigenbasis(desc.state.mat)
    assert _bits(desc.basis, basis)
    reference = kraus_dephasing(basis, dims=dims).transfer
    assert _bits(dephasing_channel(basis, dims=dims).transfer, reference)
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", [desc])
    assert _bits(ch.branches[0].transfer, reference)
    default = kraus_replacement(maximally_mixed(dims), in_dims=dims).transfer
    assert _bits(ch.branches[-1].transfer, default)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(2,), (3,), (2, 2), (2, 3)]),
    st.sampled_from(["distinct", "pair", "two_pairs", "flat"]),
)
@settings(max_examples=60, deadline=None)
def test_coherence_branch_is_the_eigenbasis_transfer_on_degenerate_spectra(seed, dims, spectrum):
    # a coherence branch dephases in the incoherent basis, and its transfer is,
    # bit for bit, that of the dephasing in the state's canonical eigenbasis
    dim = int(np.prod(dims))
    rng = make_rng(seed)
    weights = _spectrum(spectrum, dim, rng)
    sigma = DensityOperator(np.diag(rng.permutation(weights / weights.sum())).astype(complex), dims)
    desc = encode_description("coherence", sigma)
    assert _bits(desc.basis, np.eye(dim, dtype=complex)) and not desc.basis.flags.writeable
    ch = build_conditional_channel("coherence", "eigen_dephasing", [desc])
    basis = qrt.canonical_eigenbasis(desc.state.mat)
    assert _bits(ch.branches[0].transfer, dephasing_channel(basis, dims=dims).transfer)
    assert _bits(ch.branches[0].transfer, kraus_dephasing(basis, dims=dims).transfer)
    assert _bits(ch.branches[0].transfer, kraus_dephasing(desc.basis, dims=dims).transfer)


def _diagonal_state(dims, rng) -> DensityOperator:
    probs = rng.random(int(np.prod(dims))) + 0.05
    return DensityOperator(np.diag(probs / probs.sum()).astype(complex), dims)


@given(st.integers(0, 2**32 - 1), REGISTERS)
@settings(max_examples=30, deadline=None)
def test_replacement_branches_are_the_kraus_transfers(seed, dims):
    rng = make_rng(seed)
    descs = [encode_description("coherence", _diagonal_state(dims, rng)) for _ in range(2)]
    ch = build_conditional_channel("coherence", "replacement", descs)
    for desc, branch in zip(ch.descriptions, ch.branches):
        kraus = kraus_replacement(desc.state, in_dims=dims)
        assert _bits(branch.transfer, kraus.transfer)
        assert branch.in_dim == branch.out_dim == int(np.prod(dims))


def test_a_broken_trace_row_is_rejected():
    good = replacement_channel(maximally_mixed((2,)))
    pairs = (good.effects.copy(), good.preparations.copy())

    def certified(transfer):
        return _trace_preserving_map(GeneralLinearMap(transfer, (2,), (2,)), *pairs)

    assert certified(good.transfer).in_dim == 2
    broken = good.transfer.copy()
    broken[3, 0] += 1e-6  # row (1, 1): the trace of the image of |0><0| becomes 1 + 1e-6
    with pytest.raises(ValueError, match="not trace preserving"):
        certified(broken)
    off = good.transfer.copy()
    off[0, 1] = 0.5  # the trace of the image of |0><1| becomes 0.5
    with pytest.raises(ValueError, match="not trace preserving"):
        certified(off)
    with pytest.raises(ValueError, match="not unitary"):
        dephasing_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


@given(
    st.integers(0, 2**32 - 1),
    REGISTERS,
    st.sampled_from([(3,), (2, 2), (2, 3)]),
    st.sampled_from(["dephasing", "replacement"]),
)
@settings(max_examples=40, deadline=None)
def test_noise_transfers_are_the_kraus_transfers(seed, sys, target_dims, kind):
    rng = make_rng(seed)
    if kind == "dephasing":
        spec = ChannelSpec("dephasing", {"basis": _unitary(int(np.prod(sys)), rng)})
    else:  # the target may live on other registers than the input
        target = random_density(int(np.prod(target_dims)), 2, rng, dims=target_dims)
        spec = ChannelSpec("replacement", {"state": target})
    assert _bits(spec.build(sys).transfer, kraus_noise(spec, sys).transfer)
    default = ChannelSpec("dephasing")
    assert _bits(default.build(sys).transfer, kraus_noise(default, sys).transfer)


def _free_state(theory: str, dims, rng) -> tuple:
    """(state, ensemble) of a free state of the theory, on ``dims`` where the
    theory allows any register and on two qubits otherwise."""
    dim = int(np.prod(dims))
    if theory == "coherence":
        return _diagonal_state(dims, rng), None
    if theory == "imaginarity":
        return random_real_density(dim, dim, rng, dims=dims), None
    if theory == "entanglement":
        return None, random_separable_ensemble(rng)
    if theory == "discord":  # classical on the first qubit
        p = rng.random()
        parts = [np.kron(np.diag(np.eye(2)[a]), random_density(2, 2, rng).mat) for a in range(2)]
        return DensityOperator(p * parts[0] + (1 - p) * parts[1], (2, 2)), None
    return isotropic(2, rng.random() / 3), None


def _check_certificate(channels, rng: np.random.Generator) -> None:
    """Each channel's Holevo pairs act as its transfer, sum_k Tr(E_k X) s_k
    = L(X) on a non-Hermitian X, and its effects sum to the identity."""
    for ch in channels:
        re, im = rng.standard_normal((2, ch.in_dim, ch.in_dim))
        x = re + 1j * im
        weights = np.einsum("kij,ji->k", ch.effects, x)
        holevo = np.einsum("k,kab->ab", weights, ch.preparations)
        assert np.abs(holevo - ch.apply_matrix(x)).max() < 1e-12
        assert np.abs(ch.effects.sum(axis=0) - np.eye(ch.in_dim)).max() <= TOL_TP


# the theories whose descriptions name a basis for an eigen-dephasing branch
EIGEN_DEPHASED = ("coherence", "imaginarity")
THEORY_KINDS = [
    (theory, kind)
    for theory in sorted(qrt.THEORIES)
    for kind in ("replacement", "eigen_dephasing")
    if kind == "replacement" or theory in EIGEN_DEPHASED
]


@given(st.integers(0, 2**32 - 1), st.sampled_from(THEORY_KINDS), REGISTERS, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_every_branch_is_certified_by_its_holevo_pairs(seed, theory_kind, dims, n_descs):
    theory, kind = theory_kind
    rng = make_rng(seed)
    descs = [encode_description(theory, *_free_state(theory, dims, rng)) for _ in range(n_descs)]
    ch = build_conditional_channel(theory, kind, descs)
    _check_certificate(ch.branches, rng)


@given(st.integers(0, 2**32 - 1), REGISTERS, st.sampled_from([(3,), (2, 3)]))
@settings(max_examples=40, deadline=None)
def test_plain_channels_are_certified_by_their_holevo_pairs(seed, dims, in_dims):
    rng = make_rng(seed)
    dim = int(np.prod(dims))
    sigma = random_density(dim, int(rng.integers(1, dim + 1)), rng, dims=dims)
    channels = [
        dephasing_channel(_unitary(dim, rng), dims),
        replacement_channel(sigma),
        replacement_channel(sigma, in_dims=in_dims),  # input registers unlike sigma's
    ]
    assert channels[-1].in_dims == in_dims and channels[-1].out_dims == dims
    _check_certificate(channels, rng)


def test_a_convex_mixture_carries_the_weighted_union_of_holevo_pairs():
    rng = make_rng(5)
    parts = [dephasing_channel(np.eye(2)), replacement_channel(maximally_mixed((2,)))]
    mixed = mix_maps(parts, [0.5, 0.5])
    assert isinstance(apply(mixed, random_density(2, 2, rng)), DensityOperator)
    assert is_entanglement_breaking(mixed) == EbVerdict(True, True)
    assert mixed.effects.shape == (3, 2, 2) and mixed.preparations.shape == (3, 2, 2)
    assert _bits(mixed.effects, np.concatenate([0.5 * p.effects for p in parts]))
    sigma = random_density(4, 3, rng, dims=(2, 2))
    parts = [dephasing_channel(_unitary(4, rng), (2, 2)), replacement_channel(sigma)]
    parts.append(dephasing_channel(np.eye(4), (2, 2)))
    _check_certificate([mixed, mix_maps(parts, rng.dirichlet(np.ones(3)))], rng)


def test_an_affine_mixture_or_an_uncertified_part_leaves_the_mixture_uncertified():
    parts = [dephasing_channel(np.eye(2)), replacement_channel(maximally_mixed((2,)))]
    uncertified = GeneralLinearMap(parts[1].transfer, (2,), (2,))
    for maps, weights in (
        (parts, [1.5, -0.5]),  # trace preserving, but not a channel
        (parts, [0.5, 0.6]),
        ([parts[0], uncertified], [0.5, 0.5]),
    ):
        mixed = mix_maps(maps, weights)
        assert mixed.effects is None and mixed.preparations is None
        assert not isinstance(apply(mixed, maximally_mixed((2,))), DensityOperator)
        with pytest.raises(ValueError, match="not known to be a channel"):
            is_entanglement_breaking(mixed)


def test_branch_transfers_are_read_only():
    desc = encode_description("imaginarity", random_real_density(2, 2, make_rng(1)))
    assert not desc.basis.flags.writeable
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", [desc])
    for branch in ch.branches:
        for arr in (branch.transfer, branch.effects, branch.preparations):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0


def test_imaginarity_branches_reuse_the_description_basis(monkeypatch):
    rng = make_rng(9)
    states = [random_real_density(4, 3, rng, dims=(2, 2)) for _ in range(3)]
    descs = [encode_description("imaginarity", s) for s in states]
    build_conditional_channel("imaginarity", "eigen_dephasing", descs)  # the cached default
    calls = {"eigenbasis": 0, "kraus": 0}
    eigenbasis, post_init = qrt.canonical_eigenbasis, KrausChannel.__post_init__

    def counted_eigenbasis(mat):
        calls["eigenbasis"] += 1
        return eigenbasis(mat)

    def counted_post_init(self):
        calls["kraus"] += 1
        post_init(self)

    monkeypatch.setattr(qrt, "canonical_eigenbasis", counted_eigenbasis)
    monkeypatch.setattr(KrausChannel, "__post_init__", counted_post_init)
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", descs)
    assert ch.message_dim == 4
    assert calls == {"eigenbasis": 0, "kraus": 0}


def test_descriptions_that_share_a_basis_share_its_branch():
    # three coherence labels on (2, 2) hold the one cached incoherent basis
    rng = make_rng(4)
    descs = [encode_description("coherence", _diagonal_state((2, 2), rng)) for _ in range(3)]
    assert len({d.label for d in descs}) == 3 and descs[0].basis is descs[2].basis
    ch = build_conditional_channel("coherence", "eigen_dephasing", descs)
    assert ch.message_dim == 4
    assert ch.branches[0] is ch.branches[1] is ch.branches[2]
    per_label = [dephasing_channel(d.basis, d.state.dims) for d in descs] + [ch.branches[-1]]
    assert _bits(_stacked_transfer(ch), np.hstack([b.transfer for b in per_label]))
    # imaginarity bases, views of one stack included, stay one per description
    states = [random_real_density(4, 4, rng, dims=(2, 2)) for _ in range(3)]
    descs = qrt._encode_imaginarities(states)
    ch = build_conditional_channel("imaginarity", "eigen_dephasing", descs)
    assert len({id(b) for b in ch.branches}) == 4


def test_imaginarity_description_keeps_a_real_state_as_given():
    sigma = random_real_density(2, 2, make_rng(3))
    assert encode_description("imaginarity", sigma).state is sigma
    # a -0.0 or a sub-tolerance imaginary part is dropped from the described state
    negative_zero = sigma.mat.copy()
    negative_zero.imag[0, 1] = -0.0
    faint = sigma.mat + 1e-12j * np.array([[0, 1], [-1, 0]])
    for mat in (negative_zero, faint):
        noisy = DensityOperator(mat, (2,))
        desc = encode_description("imaginarity", noisy)
        assert desc.state is not noisy
        assert not np.signbit(desc.state.mat.imag).any() and not desc.state.mat.imag.any()
        assert desc.label == encode_description("imaginarity", sigma).label
