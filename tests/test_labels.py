"""Description labels and payloads are canonical functions of a free state's
encoding class, for every registered theory.

Each draw describes one free state and lists variants that describe the same
state: a phase on every factor vector and any order of ensemble terms, a sign
flip of an eigenvector column the state is built from, and entry
perturbations of at most 1e-12. A number that sits on a 9-decimal rounding
edge can round either way, so a draw is skipped unless every number the
payload quantizes stays 1e-11 away from an edge after the largest move a
variant can give it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcensor import linalg, qrt
from qcensor.censorship import encode_description
from qcensor.states import DensityOperator

PERTURBATION = 1e-12
MARGIN = 1e-11


@dataclass
class Draw:
    base: dict  # keyword arguments of encode_description
    variants: list[dict]  # descriptions of the same state
    quantities: np.ndarray  # the unrounded numbers the payload quantizes
    shift: float  # the largest move a variant gives one of them


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _orthogonal(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


def _signs(rng, d):
    return rng.choice([-1.0, 1.0], size=d)


def _noise(rng, shape, real=False):
    e = rng.uniform(-PERTURBATION, PERTURBATION, shape)
    if not real:
        e = e + 1j * rng.uniform(-PERTURBATION, PERTURBATION, shape)
    return e


def _hermitian_noise(rng, d, real=False):
    e = _noise(rng, (d, d), real)
    return (e + e.conj().T) / 2


def _parts(z):
    z = np.asarray(z)
    return np.concatenate((z.real.ravel(), z.imag.ravel()))


def _state(mat, dims):
    return {"sigma": DensityOperator(np.asarray(mat, dtype=complex), dims)}


def _draw_coherence(rng):
    d = int(rng.integers(2, 5))
    p = rng.random(d) + 0.05
    p /= p.sum()
    flipped = np.diag(_signs(rng, d))  # the eigenvectors are the basis vectors
    return Draw(
        _state(np.diag(p), (d,)),
        [
            _state(flipped @ np.diag(p) @ flipped.T, (d,)),
            _state(np.diag(p) + _hermitian_noise(rng, d), (d,)),
        ],
        p[:-1],
        (d + 1) * PERTURBATION,  # a diagonal move and the renormalization
    )


def _draw_imaginarity(rng):
    d = int(rng.integers(2, 4))
    p = np.arange(1, d + 1) + 0.5 * rng.random(d)
    p /= p.sum()
    o = _orthogonal(rng, d)
    flipped = o * _signs(rng, d)
    noise = _hermitian_noise(rng, d, real=True)
    gap = float(np.diff(np.sort(p)).min())
    return Draw(
        _state(o @ np.diag(p) @ o.T, (d,)),
        [
            _state(flipped @ np.diag(p) @ flipped.T, (d,)),
            _state(o @ np.diag(p) @ o.T + noise, (d,)),
        ],
        o,  # the eigenvector entries, up to sign
        float(np.linalg.norm(noise, 2)) / gap,  # first-order eigenvector move
    )


def _draw_entanglement(rng):
    dims = [(2, 2), (2, 3), (3, 2), (2, 2, 2)][int(rng.integers(4))]
    k = int(rng.integers(1, 4))
    w = rng.random(k) + 0.05
    w /= w.sum()
    vecs = [
        [v / np.linalg.norm(v) for v in (rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims)]
        for _ in range(k)
    ]
    order = rng.permutation(k)
    phased = [
        (w[t], tuple(v * np.exp(2j * np.pi * rng.random()) for v in vecs[t])) for t in order
    ]
    noisy = [
        (w[t] + _noise(rng, (), real=True), tuple(v + _noise(rng, v.shape) for v in vecs[t]))
        for t in range(k)
    ]
    canonical = [_parts(linalg._canonicalize_column(v)) for term in vecs for v in term]
    return Draw(
        {"ensemble": [(w[t], tuple(vecs[t])) for t in range(k)]},
        [{"ensemble": phased}, {"ensemble": noisy}],
        np.concatenate([w] + canonical),
        MARGIN,  # the entry moves, the renormalization and the phase pivot's move
    )


def _draw_discord(rng):
    a = _unitary(rng, 2)
    p = rng.random(2)
    p /= p.sum()
    blocks = []
    for _ in range(2):
        q = rng.random(2)
        blocks.append((_unitary(rng, 2), q / q.sum()))

    def build(a, blocks):
        return sum(
            p[i] * np.kron(np.outer(a[:, i], a[:, i].conj()), (b * q) @ b.conj().T)
            for i, (b, q) in enumerate(blocks)
        )

    flipped = build(a * _signs(rng, 2), [(b * _signs(rng, 2), q) for b, q in blocks])
    mat = build(a, blocks)
    return Draw(
        _state(mat, (2, 2)),
        [_state(flipped, (2, 2)), _state(mat + _hermitian_noise(rng, 4), (2, 2))],
        _parts(mat),
        PERTURBATION,
    )


def _draw_locality(rng):
    # Mixed half and half with I/4, so the CHSH parameter is at most 1/2.
    u = _unitary(rng, 4)
    p = rng.random(4)
    p = 0.5 * p / p.sum() + 0.125
    mat = (u * p) @ u.conj().T
    flipped = u * _signs(rng, 4)
    return Draw(
        _state(mat, (2, 2)),
        [
            _state((flipped * p) @ flipped.conj().T, (2, 2)),
            _state(mat + _hermitian_noise(rng, 4), (2, 2)),
        ],
        _parts(mat),
        PERTURBATION,
    )


DRAWS = {
    "coherence": _draw_coherence,
    "imaginarity": _draw_imaginarity,
    "entanglement": _draw_entanglement,
    "discord": _draw_discord,
    "locality": _draw_locality,
}


def _clear_of_edges(values, margin: float) -> bool:
    scaled = np.abs(np.asarray(values, dtype=float)) * 10**qrt.LABEL_DECIMALS
    return bool(np.all(np.abs(scaled % 1.0 - 0.5) >= margin * 10**qrt.LABEL_DECIMALS))


def test_every_theory_has_a_draw():
    assert set(DRAWS) == set(qrt.THEORIES)


@pytest.mark.parametrize("theory", sorted(qrt.THEORIES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_label_and_payload_are_invariant(theory, seed):
    rng = np.random.default_rng(seed)
    draw = DRAWS[theory](rng)
    assume(_clear_of_edges(draw.quantities, MARGIN + draw.shift))
    base = encode_description(theory, **draw.base)
    for variant in draw.variants:
        desc = encode_description(theory, **variant)
        assert desc.label == base.label
        assert desc.payload == base.payload


@pytest.mark.parametrize("theory", sorted(qrt.THEORIES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_labels_equal_exactly_when_payloads_equal(theory, seed):
    rng = np.random.default_rng(seed)
    draws = [DRAWS[theory](rng) for _ in range(2)]
    descs = [
        encode_description(theory, **kwargs)
        for draw in draws
        for kwargs in [draw.base, *draw.variants]
    ]
    for a, b in combinations(descs, 2):
        assert (a.label == b.label) == (a.payload == b.payload)
