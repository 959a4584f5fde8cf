"""The transfer-matrix channel core against the Kraus and matrix-unit oracles.

Every channel acts as ``transfer @ vec(X)`` and its Choi matrix is a
reshuffle of the transfer matrix. ``dense_reference`` keeps the paths those
replaced: the Kraus sum, the Choi matrix from the Kraus operators, and the
Choi matrix from the action on the matrix units.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import kraus_apply, kraus_choi, map_choi
from qcensor.channels import (
    GeneralLinearMap,
    KrausChannel,
    choi,
    imaginarity_rd_map,
    mix_maps,
    transpose_map,
)

TOL = 1e-12


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@st.composite
def kraus_channels(draw):
    """1-6 Kraus operators cut from a random isometry C^d_in -> C^(n d_out)."""
    d_in, d_out = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n = draw(st.integers(-(-d_in // d_out), 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iso, _ = np.linalg.qr(_random_matrix(rng, n * d_out, d_in))
    ops = tuple(iso[k * d_out : (k + 1) * d_out] for k in range(n))
    return KrausChannel(ops, (d_in,), (d_out,)), rng


@given(kraus_channels())
@settings(max_examples=60)
def test_kraus_channel_matches_kraus_sum_and_kraus_choi(drawn):
    ch, rng = drawn
    x = _random_matrix(rng, ch.in_dim, ch.in_dim)
    assert np.abs(ch.apply_matrix(x) - kraus_apply(ch.kraus, x)).max() < TOL
    assert np.abs(choi(ch).mat - kraus_choi(ch.kraus)).max() < TOL
    lifted = GeneralLinearMap(ch.transfer, ch.in_dims, ch.out_dims)
    assert np.abs(lifted.transfer - ch.transfer).max() == 0.0
    assert (lifted.in_dim, lifted.out_dim) == (ch.in_dim, ch.out_dim)


def _transpose(m):
    return m.T


def _realness(m):
    return (m + m.T) / 2


@given(
    st.integers(2, 4),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40)
def test_linear_maps_match_their_action_on_matrix_units(d, free_weights, seed):
    # affine mixtures: the weights sum to one, so every map is trace preserving
    bases = [(transpose_map(d), _transpose), (imaginarity_rd_map(d), _realness)]
    picks = [bases[k % 2] for k in range(len(free_weights) + 1)]
    weights = free_weights + [1.0 - sum(free_weights)]
    mixed = mix_maps([m for m, _ in picks], weights)

    def mixed_fn(x):
        return sum(w * fn(x) for w, (_, fn) in zip(weights, picks))

    rng = np.random.default_rng(seed)
    x = _random_matrix(rng, d, d)
    for linear_map, fn in bases + [(mixed, mixed_fn)]:
        assert np.abs(linear_map.apply_matrix(x) - fn(x)).max() < TOL
        assert np.abs(choi(linear_map).mat - map_choi(fn, d, d)).max() < TOL


def test_kraus_operators_are_read_only_copies():
    ops = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    ch = KrausChannel(ops, (2,), (2,))
    for k in ch.kraus:
        with pytest.raises(ValueError, match="read-only"):
            k[0, 0] = 0.5
    ops[0][0, 0] = 0.5  # the caller's operators stay writable, and apart
    assert ch.kraus[0][0, 0] == 1.0
