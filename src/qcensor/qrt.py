"""Resource theories: free-state membership, discord, CHSH, Born statistics,
free-state descriptions, and the registry of theories.

Five concrete theories are registered in ``THEORIES``, and each entry holds
everything the censorship engine knows about its theory. Coherence and
imaginarity (realness) are affine, entanglement is convex, discord is
nonconvex, and locality can be activated by combining free states. The
discord measurement side is an explicit parameter: measuring side "X" (the
first factor, the default) means the free set is the classical-quantum
states, classical on X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import DimSignature
from .states import DensityOperator, bell_phi_plus, random_real_density

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


def is_free_coherence(rho: DensityOperator, tol: float = TOL_DIAG) -> ResourceVerdict:
    """Free iff diagonal in the fixed incoherent (computational) basis."""
    off = rho.mat - np.diag(np.diag(rho.mat))
    witness = float(np.abs(off).max())
    return ResourceVerdict(witness <= tol, witness)


def is_free_imaginarity(rho: DensityOperator, tol: float = TOL_DIAG) -> ResourceVerdict:
    """Free iff all entries are real in the fixed reference basis."""
    witness = float(np.abs(rho.mat.imag).max())
    return ResourceVerdict(witness <= tol, witness)


def is_free_entanglement(
    rho: DensityOperator, cut: Sequence[int] = (0,), tol: float = TOL_PPT
) -> ResourceVerdict:
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
    d_side = int(np.prod([rho.dims[k] for k in side]))
    d_rest = rho.dim // d_side
    ppt = witness >= -tol
    decisive = (not ppt) or sorted((d_side, d_rest)) in ([2, 2], [2, 3])
    return ResourceVerdict(ppt, witness, decisive)


def ppt_all_cuts(rho: DensityOperator, tol: float = TOL_PPT) -> ResourceVerdict:
    """PPT across every nontrivial bipartition; the worst cut sets the verdict."""
    n = len(rho.dims)
    if n < 2:
        raise ValueError("need at least two factors")
    worst: ResourceVerdict | None = None
    all_decisive = True
    for r in range(1, n // 2 + 1):
        for side in combinations(range(n), r):
            if r == n / 2 and side[0] != 0:
                continue  # complements give the same transpose spectrum
            v = is_free_entanglement(rho, side, tol)
            if not v.is_free:
                return ResourceVerdict(False, v.witness_value, True)
            all_decisive = all_decisive and v.decisive
            if worst is None or v.witness_value < worst.witness_value:
                worst = v
    assert worst is not None
    return ResourceVerdict(True, worst.witness_value, all_decisive)


@dataclass(frozen=True)
class DiscordOptions:
    """Measurement-optimization controls for the two-qubit discord.

    The refinement stops once its step falls below ``DISCORD_MIN_STEP``;
    ``refine_iters`` only caps it, and 0 keeps the grid minimum.
    """

    grid_points: int = 60
    refine_iters: int = 1000


def _pauli_coordinates(rho: DensityOperator) -> np.ndarray:
    """R[i, j] = Tr(rho sigma_i (x) sigma_j) of a two-qubit state, real 4x4."""
    return np.einsum("ikjl,aji,blk->ab", rho.mat.reshape(2, 2, 2, 2), PAULIS, PAULIS).real


def _shannon(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of the distributions along axis 0; clips rounding noise."""
    p = np.clip(p, 0.0, None)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=0)


def _conditional_entropies(coords: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    # Luo (PRA 77, 042303): measuring the first qubit along n gives outcomes
    # with probability (1 +- a.n)/2 and second-qubit Bloch vectors
    # (b +- T^T n)/(1 +- a.n), so each outcome's unnormalized block has
    # eigenvalues (1 +- a.n +- |b +- T^T n|)/4. Sum_+- p S(block/p) is the
    # entropy of those four eigenvalues minus that of the two outcomes.
    n = np.stack((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)))
    an = coords[1:, 0] @ n
    tn = coords[1:, 1:].T @ n
    b = coords[0, 1:, None]
    outcome = np.stack((1 + an, 1 - an))
    bloch = np.sqrt(np.stack((((b + tn) ** 2).sum(0), ((b - tn) ** 2).sum(0))))
    eigs = np.concatenate((outcome + bloch, outcome - bloch)) / 4
    return _shannon(eigs) - _shannon(outcome / 2)


def discord(
    rho: DensityOperator,
    measured_side: str = "X",
    opt: DiscordOptions | None = None,
) -> float:
    """Quantum discord of a two-qubit state in nats, clamped to >= 0.

    Mutual information minus the best classical correlations extractable by
    a projective measurement on ``measured_side`` ("X" = first factor,
    "Y" = second). The whole Bloch-angle grid is scored at once from the
    state's Pauli coordinates; a refinement then moves to the best of the
    four neighbouring angles, or halves its step when none improves.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"discord optimizer supports 2x2 systems only, got {rho.dims}")
    if measured_side not in ("X", "Y"):
        raise ValueError(f"measured_side must be 'X' or 'Y', got {measured_side!r}")
    opt = opt or DiscordOptions()
    coords = _pauli_coordinates(rho)
    if measured_side == "Y":
        coords = coords.T

    a = float(np.linalg.norm(coords[1:, 0]))
    s_measured = _shannon(np.array([1 + a, 1 - a]) / 2)
    s_joint = _shannon(np.linalg.eigvalsh(rho.mat))

    g = opt.grid_points
    thetas = np.repeat(np.linspace(0.0, np.pi, g), g)
    phis = np.tile(np.linspace(0.0, 2 * np.pi, g, endpoint=False), g)
    grid = _conditional_entropies(coords, thetas, phis)
    k = int(np.argmin(grid))
    best, angles = grid[k], np.array([thetas[k], phis[k]])

    step = np.array([np.pi, 2 * np.pi]) / max(g, 1)
    moves = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    for _ in range(opt.refine_iters):
        if step[0] < DISCORD_MIN_STEP:
            break
        trial = angles + moves * step
        vals = _conditional_entropies(coords, trial[:, 0], trial[:, 1])
        j = int(np.argmin(vals))
        if vals[j] < best - 1e-15:
            best, angles = vals[j], trial[j]
        else:
            step = step / 2

    # delta = S(measured marginal) - S(joint) + min conditional entropy
    return max(float(s_measured - s_joint + best), 0.0)


def is_classical_quantum(
    rho: DensityOperator, classical_side: int = 0, tol: float = TOL_CQ
) -> ResourceVerdict:
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
    d0, d1 = rho.dims
    tensor = rho.mat.reshape(d0, d1, d0, d1)
    if classical_side == 0:
        blocks = [tensor[:, i, :, j] for i in range(d1) for j in range(d1)]
    else:
        blocks = [tensor[i, :, j, :] for i in range(d0) for j in range(d0)]
    witness = 0.0
    for a in range(len(blocks)):
        for b in range(a, len(blocks)):
            comm = blocks[a] @ blocks[b] - blocks[b] @ blocks[a]
            witness = max(witness, float(np.abs(comm).max()))
    return ResourceVerdict(witness <= tol, witness)


def chsh_parameter(rho: DensityOperator) -> float:
    """Horodecki CHSH parameter M: sum of the two largest eigenvalues of T^T T.

    T is the 3x3 Pauli correlation matrix; the state admits a CHSH
    violation iff M > 1.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"CHSH parameter needs a two-qubit state, got dims {rho.dims}")
    t = _pauli_coordinates(rho)[1:, 1:]
    w = np.linalg.eigvalsh(t.T @ t)
    return float(w[-1] + w[-2])


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


def _check_povm(povm: Sequence[np.ndarray], dim: int, tol: float = 1e-9) -> list[np.ndarray]:
    ops = [linalg.as_complex_matrix(m) for m in povm]
    if not ops or any(m.shape != (dim, dim) for m in ops):
        raise ValueError(f"POVM elements must be {dim}x{dim} matrices")
    total = np.zeros((dim, dim), dtype=complex)
    for m in ops:
        if linalg.hermiticity_defect(m) > tol:
            raise ValueError("POVM element is not Hermitian")
        if linalg.min_eigenvalue(m) < -tol:
            raise ValueError("POVM element is not positive semidefinite")
        total += m
    if float(np.abs(total - np.eye(dim)).max()) > tol:
        raise ValueError("POVM elements do not sum to the identity")
    return ops


def born_probabilities(
    rho: DensityOperator, povm_x: Sequence[np.ndarray], povm_y: Sequence[np.ndarray]
) -> np.ndarray:
    """Outcome table p(a, b) = Tr(rho (M_a (x) N_b)) for local POVMs."""
    if len(rho.dims) != 2:
        raise ValueError("need a bipartite state")
    mx = _check_povm(povm_x, rho.dims[0])
    ny = _check_povm(povm_y, rho.dims[1])
    table = np.empty((len(mx), len(ny)))
    for a, m in enumerate(mx):
        for b, n in enumerate(ny):
            table[a, b] = float(np.trace(rho.mat @ np.kron(m, n)).real)
    return np.clip(table, 0.0, None)


# ------------------------------------------------------------ descriptions


def _quantize(x: float) -> float:
    q = round(float(x), LABEL_DECIMALS)
    return 0.0 if q == 0 else q


def _fmt(x: float) -> str:
    return format(_quantize(x), f".{LABEL_DECIMALS}f")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


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


def _require_state(theory: str, sigma: DensityOperator | None) -> DensityOperator:
    if sigma is None:
        raise ValueError(f"theory {theory!r} requires the state to describe")
    return sigma


def _encode_coherence(sigma: DensityOperator | None, ensemble: Sequence | None) -> Description:
    verdict = is_free_coherence(_require_state("coherence", sigma))
    if not verdict.is_free:
        raise ValueError(
            f"state is not incoherent (max off-diagonal {verdict.witness_value:.3e})"
        )
    probs = np.clip(np.diag(sigma.mat).real, 0.0, None)
    probs = probs / probs.sum()
    payload = tuple(_quantize(p) for p in probs[:-1])
    label = f"coherence|probs|{';'.join(_fmt(p) for p in probs[:-1])}".encode()
    canonical = DensityOperator(np.diag(probs).astype(complex), sigma.dims)
    return Description("coherence", payload, label, canonical)


def _encode_imaginarity(sigma: DensityOperator | None, ensemble: Sequence | None) -> Description:
    verdict = is_free_imaginarity(_require_state("imaginarity", sigma))
    if not verdict.is_free:
        raise ValueError(f"state is not real (max imaginary entry {verdict.witness_value:.3e})")
    real_mat = sigma.mat.real.astype(complex)
    _, vecs = linalg.hermitian_eig(real_mat)
    if float(np.abs(vecs.imag).max()) > 1e-8:
        raise ValueError("eigenbasis of a real state failed to canonicalize to real vectors")
    basis = vecs.real
    # Order columns by the quantized vectors themselves, not by eigenvalue,
    # so that commuting states (same eigenvectors, any spectra) share a label
    # and sub-label noise cannot reorder columns the label cannot tell apart.
    columns = [tuple(_quantize(x) for x in basis[:, j]) for j in range(basis.shape[1])]
    order = sorted(range(basis.shape[1]), key=lambda j: columns[j])
    basis = basis[:, order]
    payload = tuple(columns[j] for j in order)
    body = ";".join(",".join(_fmt(x) for x in basis[:, j]) for j in range(basis.shape[1]))
    label = f"imaginarity|eigenbasis|{body}".encode()
    canonical = DensityOperator(real_mat, sigma.dims)
    return Description("imaginarity", payload, label, canonical)


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
            norm = float(np.linalg.norm(vec))
            if not abs(norm - 1.0) <= 1e-6:  # a NaN norm fails too
                raise ValueError("ensemble amplitudes are not normalized")
            vecs.append(linalg._canonicalize_column(vec / norm))
        terms.append((max(w, 0.0), tuple(vecs)))
        total += max(w, 0.0)
    if not terms:
        raise ValueError("ensemble must contain at least one term")
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    if dims is not None:
        for _, vecs in terms:
            if tuple(v.size for v in vecs) != tuple(dims):
                raise ValueError("ensemble factor dimensions do not match the register")
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
    term_strs = sorted(
        f"{_fmt(w)}:{'|'.join(','.join(_fmt_complex(z) for z in v) for v in vecs)}"
        for w, vecs in terms
    )
    payload = tuple(
        (
            _quantize(w),
            tuple(tuple((_quantize(z.real), _quantize(z.imag)) for z in v) for v in vecs),
        )
        for w, vecs in terms
    )
    label = f"entanglement|ensemble|{';'.join(term_strs)}".encode()
    return Description("entanglement", payload, label, state)


def _encode_matrix(theory: str, sigma: DensityOperator) -> Description:
    body = ";".join(
        ",".join(_fmt_complex(z) for z in sigma.mat[i]) for i in range(sigma.dim)
    )
    payload = tuple(
        tuple((_quantize(z.real), _quantize(z.imag)) for z in sigma.mat[i])
        for i in range(sigma.dim)
    )
    label = f"{theory}|matrix|{body}".encode()
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


def _register_marginals(receiver: DensityOperator, n_registers: int) -> list[DensityOperator]:
    group = len(receiver.dims) // n_registers
    return [receiver.marginal(range(k * group, (k + 1) * group)) for k in range(n_registers)]


def _judge_discord(receiver: DensityOperator, n_registers: int) -> Verdicts:
    if len(receiver.dims) == 2:
        cq = is_classical_quantum(receiver)
        witness = discord(receiver) if receiver.dims == (2, 2) else cq.witness_value
        return {"discord": ResourceVerdict(cq.is_free, witness, cq.decisive)}, ()
    checks = [is_classical_quantum(m) for m in _register_marginals(receiver, n_registers)]
    verdict = ResourceVerdict(all(c.is_free for c in checks), max(c.witness_value for c in checks))
    return {"discord": verdict}, ("multi-sender discord verdict checks each receiver marginal",)


def _isotropic_weight(marginal: DensityOperator) -> float:
    # Twirl parameter estimated from the overlap with the maximally entangled state.
    d = marginal.dims[0]
    overlap = float(np.trace(marginal.mat @ bell_phi_plus(d).mat).real)
    return (d * d * overlap - 1.0) / (d * d - 1.0)


def _judge_locality(receiver: DensityOperator, n_registers: int) -> Verdicts:
    notes: list[str] = []
    worst_m = 0.0
    lower, upper = (float(x) for x in isotropic_local_range(2))
    for k, marg in enumerate(_register_marginals(receiver, n_registers)):
        if marg.dims != (2, 2):
            raise ValueError("locality verdicts support two-qubit registers only")
        worst_m = max(worst_m, chsh_parameter(marg))
        if lower - 1e-9 <= _isotropic_weight(marg) <= upper + 1e-9:
            notes.append(
                f"activation risk: receiver marginal {k} sits in the entangled-but-"
                f"local window ({lower:.6f}, {upper:.6f}]; "
                "copies of it can exhibit nonlocality jointly"
            )
    violated = worst_m > 1.0 + TOL_CHSH
    verdicts = {
        "locality": ResourceVerdict(not violated, worst_m, decisive=violated),
        "entanglement": ppt_all_cuts(receiver),
    }
    notes.append("locality breach determination is limited to per-pair CHSH")
    return verdicts, tuple(notes)


def _sample_diagonal(dim: int, rng: np.random.Generator) -> DensityOperator:
    probs = rng.random(dim)
    probs /= probs.sum()
    return DensityOperator(np.diag(probs).astype(complex), (dim,))


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class ResourceTheory:
    """Everything the censorship engine knows about one resource theory.

    free         free-state test on a state
    excess       how far a state lies outside the free set; 0 on free states
    encode       (state, ensemble) -> Description of a free state; raises
                 ValueError on resource states
    judge        (receiver, n_registers) -> (verdicts, notes); None judges
                 the whole receiver with ``free``
    sample_free  (dim, rng) -> random free state; present exactly for the
                 theories that eigenbasis dephasing censors
    """

    name: str
    structure: str  # affine | convex | nonconvex | activatable
    free: Callable[[DensityOperator], ResourceVerdict]
    excess: Callable[[DensityOperator], float]
    encode: Callable[[DensityOperator | None, Sequence | None], Description]
    judge: Callable[[DensityOperator, int], Verdicts] | None = None
    sample_free: Callable[[int, np.random.Generator], DensityOperator] | None = None


# The lambdas look functions up by their module names at call time, so a
# wrapper bound to a name such as ``qrt.ppt_all_cuts`` also sees the calls
# made through the registry.
THEORIES = {
    "coherence": ResourceTheory(
        "coherence",
        "affine",
        free=is_free_coherence,
        excess=lambda rho: is_free_coherence(rho).witness_value,
        encode=_encode_coherence,
        sample_free=_sample_diagonal,
    ),
    "imaginarity": ResourceTheory(
        "imaginarity",
        "affine",
        free=is_free_imaginarity,
        excess=lambda rho: is_free_imaginarity(rho).witness_value,
        encode=_encode_imaginarity,
        sample_free=lambda dim, rng: random_real_density(dim, dim, rng),
    ),
    "entanglement": ResourceTheory(
        "entanglement",
        "convex",
        free=lambda rho: ppt_all_cuts(rho),
        excess=lambda rho: -min(0.0, ppt_all_cuts(rho).witness_value),
        encode=_encode_entanglement,
    ),
    "discord": ResourceTheory(
        "discord",
        "nonconvex",
        free=lambda rho: is_classical_quantum(rho),
        excess=lambda rho: is_classical_quantum(rho).witness_value,
        encode=_encode_discord,
        judge=_judge_discord,
    ),
    "locality": ResourceTheory(
        "locality",
        "activatable",
        free=is_free_locality,
        excess=lambda rho: max(0.0, chsh_parameter(rho) - 1.0),
        encode=_encode_locality,
        judge=_judge_locality,
    ),
}


def get_theory(name: str) -> ResourceTheory:
    try:
        return THEORIES[name]
    except KeyError:
        raise ValueError(f"unknown theory {name!r}; known: {sorted(THEORIES)}") from None
