"""Resource theories: free-state membership, discord, CHSH, free-state
descriptions, receiver judges, and the registry of theories.

Five concrete theories are registered in ``THEORIES``, and each entry, with
the descriptions its encoder makes, holds everything the censorship engine
knows about its theory. Coherence and imaginarity (realness) are affine,
entanglement is convex, discord is nonconvex, and locality can be activated
by combining free states. The discord measurement side is an explicit
parameter: measuring side "X" (the first factor, the default) means the free
set is the classical-quantum states, classical on X.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import DimSignature
from .states import DensityOperator, bell_phi_plus

TOL_DIAG = 1e-8
TOL_PPT = 1e-9
TOL_CQ = 1e-8
TOL_CHSH = 1e-9
TOL_CLAIM_MATCH = 1e-8
LABEL_DECIMALS = 9

DISCORD_MIN_STEP = 1e-12  # radians; the discord refinement stops below this step
# sigma_0 = I, then the Pauli matrices X, Y, Z
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class ResourceVerdict:
    """Free/resource verdict with a theory-specific witness value.

    decisive=False marks necessary-but-not-sufficient tests (PPT beyond
    2x2 / 2x3, CHSH non-violation for locality).
    """

    is_free: bool
    witness_value: float
    decisive: bool = True


def _worst(verdicts: Sequence[ResourceVerdict], witness=max) -> ResourceVerdict:
    """One verdict from the verdicts of a product's blocks (or of a state's
    cuts): free exactly when every one is free, decisive when every one is or
    when one is not free, and the worst witness, the largest unless ``witness``
    is ``min``."""
    is_free = all(v.is_free for v in verdicts)
    decisive = not is_free or all(v.decisive for v in verdicts)
    return ResourceVerdict(is_free, witness(v.witness_value for v in verdicts), decisive)


# The witnesses below read a matrix or a stack of them (..., d, d) and give
# one value per matrix; the theories' excess reads them on stacks.


def _off_diagonal(mats: np.ndarray) -> np.ndarray:
    """Largest off-diagonal magnitude of each matrix."""
    diagonal = np.eye(mats.shape[-1], dtype=bool)
    return np.abs(np.where(diagonal, 0.0, mats)).max(axis=(-2, -1))


def _max_imaginary(mats: np.ndarray) -> np.ndarray:
    """Largest imaginary-part magnitude of each matrix."""
    return np.abs(mats.imag).max(axis=(-2, -1))


def is_free_coherence(rho: DensityOperator) -> ResourceVerdict:
    """Free iff diagonal in the fixed incoherent (computational) basis."""
    witness = float(_off_diagonal(rho.mat))
    return ResourceVerdict(witness <= TOL_DIAG, witness)


def is_free_imaginarity(rho: DensityOperator) -> ResourceVerdict:
    """Free iff all entries are real in the fixed reference basis."""
    witness = float(_max_imaginary(rho.mat))
    return ResourceVerdict(witness <= TOL_DIAG, witness)


def is_free_entanglement(rho: DensityOperator, cut: Sequence[int] = (0,)) -> ResourceVerdict:
    """PPT test across a bipartition given as the factor indices of one side.

    The witness is the minimum eigenvalue of the partial transpose. The
    verdict is decisive only on 2x2 and 2x3 splits, where PPT is both
    necessary and sufficient for separability; a negative witness is
    decisive in any dimension.
    """
    side = sorted(set(int(k) for k in cut))
    n = len(rho.dims)
    if not side or len(side) >= n or any(k < 0 or k >= n for k in side):
        raise ValueError(f"cut {cut} is not a nontrivial bipartition of {n} factors")
    pt = linalg.partial_transpose(rho.mat, rho.dims, side)
    witness = linalg.min_eigenvalue(pt)
    d_side = math.prod(rho.dims[k] for k in side)
    ppt = witness >= -TOL_PPT
    decisive = (not ppt) or sorted((d_side, rho.dim // d_side)) in ([2, 2], [2, 3])
    return ResourceVerdict(ppt, witness, decisive)


def _cuts(n: int) -> list[tuple[int, ...]]:
    """One side of every nontrivial bipartition of n factors, in the order
    ``ppt_all_cuts`` runs them. A cut and its complement give transposes with
    one spectrum, so only one of them is listed."""
    if n < 2:
        raise ValueError("need at least two factors")
    return [
        side
        for r in range(1, n // 2 + 1)
        for side in combinations(range(n), r)
        if r < n / 2 or side[0] == 0
    ]


def ppt_all_cuts(rho: DensityOperator) -> ResourceVerdict:
    """PPT across every nontrivial bipartition of a state's factors.

    The first cut that fails decides; otherwise the state is free, decisive
    when every cut is, with the smallest witness of its cuts.
    """
    verdicts = []
    for side in _cuts(len(rho.dims)):
        verdicts.append(is_free_entanglement(rho, side))
        if not verdicts[-1].is_free:
            return verdicts[-1]
    return _worst(verdicts, min)


def _ppt_excess(mats: np.ndarray, dims: DimSignature) -> np.ndarray:
    """-min(0, w) for the ``ppt_all_cuts`` witness w of each matrix of a
    stack: the first failing cut's witness, else the smallest of all cuts."""
    witnesses = []
    for side in _cuts(len(dims)):
        pt = linalg.partial_transpose(mats, dims, side)
        witnesses.append(np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2)[..., 0])
    w = np.stack(witnesses)
    fails = w < -TOL_PPT
    first = np.take_along_axis(w, fails.argmax(axis=0)[None], axis=0)[0]
    return -np.minimum(0.0, np.where(fails.any(axis=0), first, w.min(axis=0)))


@dataclass(frozen=True)
class DiscordOptions:
    """Measurement-optimization controls for the two-qubit discord.

    ``grid_points`` is a positive integer and ``refine_iters`` a nonnegative
    one. The refinement stops once its step falls below ``DISCORD_MIN_STEP``;
    ``refine_iters`` only caps it, and 0 keeps the grid minimum.
    """

    grid_points: int = 60
    refine_iters: int = 1000

    def __post_init__(self) -> None:
        for name, low in (("grid_points", 1), ("refine_iters", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"DiscordOptions.{name} must be an integer >= {low}: {value!r}")


def _pauli_coordinates(mats: np.ndarray) -> np.ndarray:
    """R[i, j] = Tr(rho sigma_i (x) sigma_j) of a two-qubit state, real 4x4,
    or of each state of a stack."""
    tensor = mats.reshape(mats.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikjl,aji,blk->...ab", tensor, PAULIS, PAULIS).real


def _shannon(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of the distributions along axis 0; clips rounding noise."""
    p = np.clip(p, 0.0, None)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=0)


def _directions(angles: np.ndarray) -> np.ndarray:
    """Unit vectors, shape (3, n), of the Bloch angles (theta, phi), shape (n, 2)."""
    s, c = np.sin(angles.T), np.cos(angles.T)
    return np.array((s[0] * c[1], s[0] * s[1], c[0]))


@functools.cache
def _grid(grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The g x g grid's angles, shape (g*g, 2), and directions, (3, g*g), read-only."""
    g = grid_points
    thetas = np.repeat(np.linspace(0.0, np.pi, g), g)
    phis = np.tile(np.linspace(0.0, 2 * np.pi, g, endpoint=False), g)
    angles = np.stack((thetas, phis), axis=1)
    dirs = _directions(angles)
    angles.flags.writeable = dirs.flags.writeable = False
    return angles, dirs


# the four neighbours of a direction, theta +- step and then phi +- step, for
# the grid step times 2^-e, e = 0..63 (no step floor allows e > 42)
_LADDER = 2.0 ** -np.arange(64.0)[:, None, None] * [(1, 0), (-1, 0), (0, 1), (0, -1)]


def _conditional_entropies(coords: np.ndarray, n: np.ndarray) -> np.ndarray:
    # Luo (PRA 77, 042303): measuring the first qubit along the unit vector n
    # gives outcomes with probability (1 +- a.n)/2 and second-qubit Bloch
    # vectors (b +- T^T n)/(1 +- a.n), so each outcome's unnormalized block
    # has eigenvalues (1 +- a.n +- |b +- T^T n|)/4. Sum_+- p S(block/p) is the
    # entropy of those four eigenvalues minus that of the two outcomes.
    # The products keep their batches (the grid, then each ladder): BLAS
    # output bits can change with a batch's width or position.
    an = coords[1:, 0] @ n
    tn = coords[1:, 1:].T @ n
    b = coords[0, 1:, None]
    outcome = np.array((1 + an, 1 - an))
    bloch = np.array((b + tn, b - tn))
    bloch = np.sqrt(np.add.reduce(bloch * bloch, axis=1))
    p = np.concatenate((outcome + bloch, outcome - bloch, 2 * outcome)) / 4
    np.maximum(p, 0.0, out=p)
    p *= np.log(p, out=np.zeros(p.shape), where=p > 0)
    return np.add.reduce(p[4:]) - np.add.reduce(p[:4])


def discord(
    rho: DensityOperator,
    measured_side: str = "X",
    opt: DiscordOptions | None = None,
) -> float:
    """Quantum discord of a two-qubit state in nats, clamped to >= 0.

    Mutual information minus the best classical correlations extractable by
    a projective measurement on ``measured_side`` ("X" = first factor,
    "Y" = second). A cached grid of directions is scored in one evaluation
    from the state's Pauli coordinates; the refinement then moves to the
    best of the four neighbouring angles, or halves its step when none
    improves. Each evaluation scores a whole halving ladder, as far as the
    step floor and the remaining iterations allow, and replays its rungs in
    order, so the result is that of one rung per evaluation.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"discord optimizer supports 2x2 systems only, got {rho.dims}")
    if measured_side not in ("X", "Y"):
        raise ValueError(f"measured_side must be 'X' or 'Y', got {measured_side!r}")
    opt = opt or DiscordOptions()
    coords = _pauli_coordinates(rho.mat)
    if measured_side == "Y":
        coords = coords.T

    a = float(np.linalg.norm(coords[1:, 0]))
    s_measured = _shannon(np.array([1 + a, 1 - a]) / 2)
    s_joint = _shannon(np.linalg.eigvalsh(rho.mat))

    grid_angles, grid_dirs = _grid(opt.grid_points)
    grid = _conditional_entropies(coords, grid_dirs)
    k = int(np.argmin(grid))
    best, angles = float(grid[k]), grid_angles[k]

    # the step after e halvings is base * 2^-e, exactly; the floor allows e < stop
    base = np.array([np.pi, 2 * np.pi]) / opt.grid_points
    e, stop = 0, int(np.count_nonzero(base[0] * _LADDER[:, 0, 0] >= DISCORD_MIN_STEP))
    remaining = opt.refine_iters
    while remaining > 0 and e < stop:
        rungs = min(remaining, stop - e)
        trial = (angles + base * _LADDER[e : e + rungs]).reshape(-1, 2)
        vals = _conditional_entropies(coords, _directions(trial)).tolist()
        # replay: halve at each rung that does not improve, move at the first that does
        for r in range(rungs):
            row = vals[4 * r : 4 * r + 4]
            if min(row) < best - 1e-15:
                best, angles = min(row), trial[4 * r + row.index(min(row))]
                break
            e += 1
        remaining -= r + 1

    # delta = S(measured marginal) - S(joint) + min conditional entropy
    return max(float(s_measured - s_joint + best), 0.0)


def is_classical_quantum(rho: DensityOperator, classical_side: int = 0) -> ResourceVerdict:
    """Zero-discord membership: is there a basis on ``classical_side`` that
    block-diagonalizes the state?

    Implemented through the conditional operators on the classical side,
    indexed by a basis of the other side: the state is classical-quantum
    iff that (conjugation-closed) family commutes pairwise, in which case
    it is simultaneously unitarily diagonalizable.
    """
    if len(rho.dims) != 2:
        raise ValueError("classical-quantum test needs a bipartite signature")
    if classical_side not in (0, 1):
        raise ValueError("classical_side must be 0 or 1")
    if max(rho.dims) > 4:
        raise ValueError(f"unsupported dims {rho.dims}: at most 4 per side")
    witness = float(_commutator_witness(rho.mat, rho.dims, classical_side))
    return ResourceVerdict(witness <= TOL_CQ, witness)


def _commutator_witness(
    mats: np.ndarray, dims: DimSignature, classical_side: int = 0
) -> np.ndarray:
    """Largest commutator entry among the conditional operators on the
    classical side of each bipartite matrix."""
    d0, d1 = dims
    tensor = mats.reshape(mats.shape[:-2] + (d0, d1, d0, d1))
    lead = tuple(range(mats.ndim - 2))
    # the conditional operators indexed by a basis pair (i, j) of the other side
    if classical_side == 0:
        blocks = tensor.transpose(*lead, *(len(lead) + a for a in (1, 3, 0, 2)))
        blocks = blocks.reshape(mats.shape[:-2] + (d1 * d1, d0, d0))
    else:
        blocks = tensor.transpose(*lead, *(len(lead) + a for a in (0, 2, 1, 3)))
        blocks = blocks.reshape(mats.shape[:-2] + (d0 * d0, d1, d1))
    products = blocks[..., :, None, :, :] @ blocks[..., None, :, :, :]
    return np.abs(products - products.swapaxes(-3, -4)).max(axis=(-4, -3, -2, -1))


def chsh_parameter(rho: DensityOperator) -> float:
    """Horodecki CHSH parameter M: sum of the two largest eigenvalues of T^T T.

    T is the 3x3 Pauli correlation matrix; the state admits a CHSH
    violation iff M > 1.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"CHSH parameter needs a two-qubit state, got dims {rho.dims}")
    return float(_chsh(rho.mat))


def _chsh(mats: np.ndarray) -> np.ndarray:
    """The Horodecki M of each two-qubit matrix."""
    t = _pauli_coordinates(mats)[..., 1:, 1:]
    w = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)
    return w[..., -1] + w[..., -2]


def is_free_locality(rho: DensityOperator) -> ResourceVerdict:
    """CHSH test of a two-qubit state: a violation (M > 1) is decisive, while
    no violation is only necessary for a local model."""
    m = chsh_parameter(rho)
    violated = m > 1.0 + TOL_CHSH
    return ResourceVerdict(not violated, m, decisive=violated)


def isotropic_local_range(d: int) -> tuple[Fraction, Fraction]:
    """Exact mixing-parameter window where the isotropic state is entangled
    but admits a local model: (1/(1+d), (3d-1)(d-1)^(d-1) / ((d+1) d^d))."""
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    lower = Fraction(1, 1 + d)
    upper = Fraction((3 * d - 1) * (d - 1) ** (d - 1), (d + 1) * d**d)
    return lower, upper


# ------------------------------------------------------------ descriptions


def _quantize(x):
    """``x`` rounded to LABEL_DECIMALS places, with -0.0 as 0.0; an array
    becomes nested tuples, and a complex number its (real, imag) pair."""
    if isinstance(x, np.ndarray):
        return _quantize(x.tolist())
    if isinstance(x, list):
        return tuple(map(_quantize, x))
    if isinstance(x, complex):
        return (_quantize(x.real), _quantize(x.imag))
    q = round(float(x), LABEL_DECIMALS)
    return 0.0 if q == 0 else q


def _render(payload, seps: str) -> str:
    """Label text of a quantized payload: each number with LABEL_DECIMALS
    places, the items at nesting level k joined by ``seps[k]``."""
    if isinstance(payload, tuple):
        return seps[0].join(_render(x, seps[1:]) for x in payload)
    return format(payload, f".{LABEL_DECIMALS}f")


def _prime_roots(n: int) -> np.ndarray:
    # Roots of distinct primes are linearly independent over the rationals,
    # so a structured eigenspace rarely compresses them to a degenerate operator.
    primes = (k for k in count(2) if all(k % p for p in range(2, math.isqrt(k) + 1)))
    return np.sqrt(list(islice(primes, n)))


def canonical_eigenbasis(mat: np.ndarray) -> np.ndarray:
    """``linalg.hermitian_eig``'s eigenvectors, of a matrix or of each matrix
    of a stack (..., d, d), with each degenerate eigenspace (eigenvalues
    within TOL_DIAG) in the phase-fixed eigenbasis of diag(sqrt 2, sqrt 3,
    sqrt 5, ...) compressed onto it. An imaginarity label is computed from
    it, and the description keeps it for its branch."""
    w, vecs = linalg.hermitian_eig(mat)
    d = w.shape[-1]
    split = np.diff(w) < -TOL_DIAG
    if split.all():
        return vecs
    # the matrices with a degenerate eigenspace, one at a time
    bases = vecs.reshape(-1, d, d)
    for k, gaps in enumerate(split.reshape(-1, d - 1).tolist()):
        bounds = [0, *(i + 1 for i, gap in enumerate(gaps) if gap), d]
        for start, stop in zip(bounds, bounds[1:]):
            if stop - start > 1:
                block = bases[k, :, start:stop]
                probe = block.conj().T @ (_prime_roots(d)[:, None] * block)
                rotated = block @ np.linalg.eigh(probe)[1]
                bases[k, :, start:stop] = linalg._canonicalize_column(rotated)
    return bases.reshape(vecs.shape)


@dataclass(frozen=True, eq=False)
class Description:
    """Classical message identifying a free state up to its encoding class.

    A description is a canonical, quantized classical encoding of a free
    state. Its label is the projective-measurement outcome carried by a
    message register; states sharing an encoding equivalence class share a
    label.
    """

    theory: str
    payload: tuple
    label: bytes
    state: DensityOperator
    # the read-only basis an eigen-dephasing branch dephases in, one in which
    # every eigenvector of ``state`` is free; None where the theory has none
    # (a separable state can have an entangled eigenvector)
    basis: np.ndarray | None = None


def _require_state(theory: str, sigma: DensityOperator | None) -> DensityOperator:
    if sigma is None:
        raise ValueError(f"theory {theory!r} requires the state to describe")
    return sigma


@functools.cache
def _incoherent_basis(dim: int) -> np.ndarray:
    """The read-only computational basis of width ``dim``."""
    basis = np.eye(dim, dtype=complex)
    basis.flags.writeable = False
    return basis


def _encode_coherence(sigma: DensityOperator | None, ensemble: Sequence | None) -> Description:
    verdict = is_free_coherence(_require_state("coherence", sigma))
    if not verdict.is_free:
        raise ValueError(
            f"state is not incoherent (max off-diagonal {verdict.witness_value:.3e})"
        )
    probs = np.clip(np.diag(sigma.mat).real, 0.0, None)
    probs = probs / probs.sum()
    payload = _quantize(probs[:-1])
    label = f"coherence|probs|{_render(payload, ';')}".encode()
    canonical = DensityOperator(np.diag(probs).astype(complex), sigma.dims)
    return Description("coherence", payload, label, canonical, _incoherent_basis(sigma.dim))


def _encode_imaginarity(sigma: DensityOperator | None, ensemble: Sequence | None) -> Description:
    return _encode_imaginarities([_require_state("imaginarity", sigma)])[0]


def _encode_imaginarities(states: Sequence[DensityOperator]) -> list[Description]:
    """The imaginarity descriptions of states on one register signature, their
    eigenbases found as one stack; each is what the state alone gives, bit
    for bit. The first state that is not real raises."""
    mats = np.array([sigma.mat for sigma in states])
    for witness in _max_imaginary(mats).tolist():
        if not witness <= TOL_DIAG:
            raise ValueError(f"state is not real (max imaginary entry {witness:.3e})")
    # a validated state is its own real part when every imaginary entry is +0.0
    if mats.imag.any() or np.signbit(mats.imag).any():
        signed = (mats.imag != 0) | np.signbit(mats.imag)
        states = [
            DensityOperator(sigma.mat.real.astype(complex), sigma.dims) if flags.any() else sigma
            for sigma, flags in zip(states, signed)
        ]
        mats = mats.real.astype(complex)
    # one state takes the single-matrix path, whose fixed cost is lower
    vecs = canonical_eigenbasis(mats if len(mats) > 1 else mats[0]).reshape(mats.shape)
    if float(np.abs(vecs.imag).max()) > 1e-8:
        raise ValueError("eigenbasis of a real state failed to canonicalize to real vectors")
    vecs.setflags(write=False)
    descriptions = []
    # Order columns by the quantized vectors themselves, not by eigenvalue,
    # so that commuting states (same eigenvectors, any spectra) share a label
    # and sub-label noise cannot reorder columns the label cannot tell apart.
    for sigma, basis, columns in zip(states, vecs, _quantize(vecs.real.swapaxes(1, 2))):
        payload = tuple(sorted(columns))
        label = f"imaginarity|eigenbasis|{_render(payload, ';,')}".encode()
        descriptions.append(Description("imaginarity", payload, label, sigma, basis))
    return descriptions


def _normalize_ensemble(
    ensemble: Sequence, dims: DimSignature | None
) -> list[tuple[float, tuple[np.ndarray, ...]]]:
    terms: list[tuple[float, tuple[np.ndarray, ...]]] = []
    total = 0.0
    for entry in ensemble:
        weight, factors = entry
        w = float(weight)
        if w < -1e-12:
            raise ValueError(f"ensemble weight {w} is negative")
        if not factors:
            raise ValueError("ensemble term has no factors")
        vecs = []
        for f in factors:
            vec = np.asarray(f, dtype=complex).reshape(-1)
            with np.errstate(over="ignore"):  # an infinite norm is rejected below
                norm = float(np.linalg.norm(vec))
            if not abs(norm - 1.0) <= 1e-6:  # a NaN norm fails too
                raise ValueError("ensemble amplitudes are not normalized")
            vecs.append(linalg._canonicalize_column(vec / norm))
        terms.append((max(w, 0.0), tuple(vecs)))
        total += max(w, 0.0)
    if not terms:
        raise ValueError("ensemble must contain at least one term")
    if not abs(total - 1.0) <= 1e-8:  # a NaN total fails too
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    expected = tuple(v.size for v in terms[0][1]) if dims is None else tuple(dims)
    for _, vecs in terms:
        shape = tuple(v.size for v in vecs)
        if shape != expected:
            raise ValueError(f"ensemble factor dimensions {shape} do not match {expected}")
    return [(w / total, vecs) for w, vecs in terms]


def _encode_entanglement(
    sigma: DensityOperator | None, ensemble: Sequence | None
) -> Description:
    if ensemble is None:
        raise ValueError(
            "describing a separable state requires an explicit product ensemble; "
            "extraction from a density matrix is not implemented"
        )
    dims = sigma.dims if sigma is not None else None
    terms = _normalize_ensemble(ensemble, dims)
    dims = tuple(v.size for v in terms[0][1])
    mat = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for w, vecs in terms:
        prod_vec = vecs[0]
        for v in vecs[1:]:
            prod_vec = np.kron(prod_vec, v)
        mat += w * np.outer(prod_vec, prod_vec.conj())
    state = DensityOperator(mat, dims)
    if sigma is not None and linalg.hs_distance(sigma.mat, mat) > TOL_CLAIM_MATCH:
        raise ValueError("provided state does not match the separable ensemble")
    sanity = ppt_all_cuts(state)
    if not sanity.is_free:
        raise ValueError("ensemble reconstruction failed the PPT sanity check")
    # Terms in the order of their text, so that payload and label agree on it.
    rendered = sorted(
        (_render(term, ":|,,"), term)
        for term in ((_quantize(w), tuple(map(_quantize, vecs))) for w, vecs in terms)
    )
    payload = tuple(term for _, term in rendered)
    label = f"entanglement|ensemble|{';'.join(text for text, _ in rendered)}".encode()
    return Description("entanglement", payload, label, state)


def _encode_matrix(theory: str, sigma: DensityOperator) -> Description:
    payload = _quantize(sigma.mat)
    label = f"{theory}|matrix|{_render(payload, ';,,')}".encode()
    return Description(theory, payload, label, sigma)


def _encode_discord(sigma: DensityOperator | None, ensemble: Sequence | None) -> Description:
    verdict = is_classical_quantum(_require_state("discord", sigma))
    if not verdict.is_free:
        raise ValueError(
            f"state is not classical-quantum (commutator defect {verdict.witness_value:.3e})"
        )
    return _encode_matrix("discord", sigma)


def _encode_locality(sigma: DensityOperator | None, ensemble: Sequence | None) -> Description:
    verdict = is_free_locality(_require_state("locality", sigma))
    if not verdict.is_free:
        raise ValueError(f"state violates the CHSH bound (M = {verdict.witness_value:.6f} > 1)")
    return _encode_matrix("locality", sigma)


# --------------------------------------------------------- receiver judges

Verdicts = tuple[dict[str, ResourceVerdict], tuple[str, ...]]
# One censored block of the receiver and the number of registers it spans.
Block = tuple[DensityOperator, int]


def _each_once(test: Callable, items: Sequence, key: Callable = id) -> list:
    """``test`` of each item in order, run once per distinct key: repeated
    senders share one block object, and a test gives one object one result."""
    done: dict = {}
    out = []
    for item in items:
        k = key(item)
        if k not in done:
            done[k] = test(item)
        out.append(done[k])
    return out


def _marginals(block: Block) -> list[DensityOperator]:
    # A one-register block is its own marginal; a block over several
    # registers is traced over its own factors only.
    state, spans = block
    if spans == 1:
        return [state]
    group = len(state.dims) // spans
    return [state.marginal(range(k * group, (k + 1) * group)) for k in range(spans)]


def _block_marginals(blocks: Sequence[Block]) -> list[DensityOperator]:
    per_block = _each_once(_marginals, blocks, key=lambda b: (id(b[0]), b[1]))
    return [m for marginals in per_block for m in marginals]


def _judge_affine(name: str) -> Callable[[Sequence[Block]], Verdicts]:
    # Every block has a positive diagonal entry, so a product is diagonal,
    # or real, exactly when every block is.
    return lambda blocks: (
        {name: _worst(_each_once(THEORIES[name].free, [b for b, _ in blocks]))},
        (),
    )


def _ppt_block(block: DensityOperator) -> ResourceVerdict:
    if len(block.dims) == 1:  # no cut: free, with the smallest eigenvalue as witness
        return ResourceVerdict(True, linalg.min_eigenvalue(block.mat))
    return ppt_all_cuts(block)


def _ppt_blocks(blocks: Sequence[Block]) -> ResourceVerdict:
    # A product is PPT across every cut exactly when each block is PPT across
    # every cut of its own factors (Peres, PRL 77, 1413, 1996); tracing out the
    # other blocks, a local operation, gives the converse.
    return _worst(_each_once(_ppt_block, [b for b, _ in blocks]), min)


def _discord_verdict(marginal: DensityOperator) -> ResourceVerdict:
    # Free when classical-quantum; a two-qubit witness is the discord in nats.
    cq = is_classical_quantum(marginal)
    witness = discord(marginal) if marginal.dims == (2, 2) else cq.witness_value
    return ResourceVerdict(cq.is_free, witness, cq.decisive)


def _judge_discord(blocks: Sequence[Block]) -> Verdicts:
    marginals = _block_marginals(blocks)
    verdict = _worst(_each_once(_discord_verdict, marginals))
    if len(marginals) == 1:
        return {"discord": verdict}, ()
    return {"discord": verdict}, ("multi-sender discord verdict checks each receiver marginal",)


@functools.cache
def _phi_plus(d: int) -> np.ndarray:
    """The read-only matrix of ``bell_phi_plus(d)``, built once per d."""
    return bell_phi_plus(d).mat


def _isotropic_weight(marginal: DensityOperator) -> float:
    # Twirl parameter estimated from the overlap with the maximally entangled state.
    d = marginal.dims[0]
    overlap = float(np.trace(marginal.mat @ _phi_plus(d)).real)
    return (d * d * overlap - 1.0) / (d * d - 1.0)


def _judge_locality(blocks: Sequence[Block]) -> Verdicts:
    notes: list[str] = []
    marginals = _block_marginals(blocks)
    lower, upper = (float(x) for x in isotropic_local_range(2))
    if any(marg.dims != (2, 2) for marg in marginals):
        raise ValueError("locality verdicts support two-qubit registers only")
    for k, weight in enumerate(_each_once(_isotropic_weight, marginals)):
        if lower - 1e-9 <= weight <= upper + 1e-9:
            notes.append(
                f"activation risk: receiver marginal {k} sits in the entangled-but-"
                f"local window ({lower:.6f}, {upper:.6f}]; "
                "copies of it can exhibit nonlocality jointly"
            )
    verdicts = {
        "locality": _worst(_each_once(is_free_locality, marginals)),
        "entanglement": _ppt_blocks(blocks),
    }
    notes.append("locality breach determination is limited to per-pair CHSH")
    return verdicts, tuple(notes)


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class ResourceTheory:
    """Everything the censorship engine knows about one resource theory.

    free    free-state test on a state
    excess  (stack (..., d, d), register dims) -> how far each matrix lies
            outside the free set, the excess of its ``free`` witness; 0 on
            free states
    encode  (state, ensemble) -> Description of a free state; raises
            ValueError on resource states. The description's ``basis`` decides
            whether an eigen-dephasing branch can censor it.
    judge   blocks -> (verdicts, notes) of the receiver, the Kronecker
            product of the censored blocks, each given with the number of
            registers it spans; each block, or each register marginal, is
            judged on its own
    """

    free: Callable[[DensityOperator], ResourceVerdict]
    excess: Callable[[np.ndarray, DimSignature], np.ndarray]
    encode: Callable[[DensityOperator | None, Sequence | None], Description]
    judge: Callable[[Sequence[Block]], Verdicts]


# The lambdas look functions up by their module names at call time, so a
# wrapper bound to a name such as ``qrt.ppt_all_cuts`` also sees the calls
# made through the registry.
THEORIES = {
    "coherence": ResourceTheory(
        free=is_free_coherence,
        excess=lambda mats, dims: _off_diagonal(mats),
        encode=_encode_coherence,
        judge=_judge_affine("coherence"),
    ),
    "imaginarity": ResourceTheory(
        free=is_free_imaginarity,
        excess=lambda mats, dims: _max_imaginary(mats),
        encode=_encode_imaginarity,
        judge=_judge_affine("imaginarity"),
    ),
    "entanglement": ResourceTheory(
        free=lambda rho: ppt_all_cuts(rho),
        excess=_ppt_excess,
        encode=_encode_entanglement,
        judge=lambda blocks: ({"entanglement": _ppt_blocks(blocks)}, ()),
    ),
    "discord": ResourceTheory(
        free=lambda rho: is_classical_quantum(rho),
        excess=_commutator_witness,
        encode=_encode_discord,
        judge=_judge_discord,
    ),
    "locality": ResourceTheory(
        free=is_free_locality,
        excess=lambda mats, dims: np.maximum(0.0, _chsh(mats) - 1.0),
        encode=_encode_locality,
        judge=_judge_locality,
    ),
}


def get_theory(name: str) -> ResourceTheory:
    try:
        return THEORIES[name]
    except KeyError:
        raise ValueError(f"unknown theory {name!r}; known: {sorted(THEORIES)}") from None
