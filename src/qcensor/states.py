"""Density-operator construction, validation, and seeded random states."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import DimSignature

TOL_TRACE = 1e-9
FROM_PURE_NORM_TOL = 1e-6


def make_rng(seed: int | None) -> np.random.Generator:
    """The seeded PCG64 generator behind every random draw."""
    return np.random.Generator(np.random.PCG64(seed))


def _coerce_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(rng)


def _uniforms(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The generator uniforms behind count rows of n standard normals, drawn
    in stream order; shape (count, 2, ceil(n / 2))."""
    return rng.random((count, 2, (n + 1) // 2))


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """Rows of n standard normals from uniforms (count, 2, m), shape (count,
    n); row k depends on row k of the uniforms alone, entry by entry."""
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1-u in (0,1], no log(0)
    angle = 2 * np.pi * u[:, 1]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :n]


def standard_normals(rng: np.random.Generator, n: int, count: int = 1) -> np.ndarray:
    """count rows of n standard normals via Box-Muller on generator uniforms,
    shape (count, n); row k is what the k-th of count successive one-row
    draws gives."""
    return _box_muller(_uniforms(rng, n, count), n)


def complex_normals(rng: np.random.Generator, n: int, count: int = 1) -> np.ndarray:
    """count rows of n complex normals, each row's real parts drawn before
    its imaginary parts; shape (count, n)."""
    z = standard_normals(rng, n, 2 * count).reshape(count, 2, n)
    return z[:, 0] + 1j * z[:, 1]


@dataclass(frozen=True)
class StateReport:
    """Validation report: defect magnitudes plus the resulting verdict."""

    hermiticity_defect: float
    min_eigenvalue: float
    trace_deviation: float

    @property
    def is_valid(self) -> bool:
        return (
            self.hermiticity_defect <= linalg.TOL_HERM
            and self.min_eigenvalue >= -linalg.TOL_PSD
            and self.trace_deviation <= TOL_TRACE
        )


def _parts(mat: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """The coerced square matrix or stack, its Hermiticity defect and trace
    deviation (of a stack, the worst of each) and its Hermitian part as a new
    C-ordered array."""
    arr = linalg.as_complex_matrix(mat, stacked=True)
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {arr.shape}")
    adj = arr.conj().swapaxes(-1, -2)
    # Entries near the float limit overflow into an infinite defect or NaN
    # eigenvalues, which is_valid rejects; numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.abs(arr - adj).max())
        herm = np.add(arr, adj, order="C")
        herm /= 2
        shifts = (arr.trace(0, -2, -1) - 1.0).ravel().tolist()
    return arr, defect, max(map(abs, shifts)), herm


def _report(defect: float, deviation: float, herm: np.ndarray) -> StateReport:
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.linalg.eigvalsh(herm)  # each row ascends
    return StateReport(defect, float(w.min()), deviation)


def validate(mat: np.ndarray) -> StateReport:
    """Report Hermiticity defect, minimum eigenvalue and trace deviation of a
    matrix; of a stack of matrices (..., d, d), the worst of each."""
    return _report(*_parts(mat)[1:])


def _check_state(mat: np.ndarray) -> StateReport | None:
    """None when a matrix or stack (..., d, d) is a valid state by one Cholesky
    factorization of its shifted Hermitian part; otherwise ``validate``'s
    report from the same parts, whose eigvalsh settles and words a rejection.

    Cholesky succeeds on H + sI only if H + sI + E is positive definite, with
    |E| <~ d^2 eps |H| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.5). With s = TOL_PSD / 2 an accepted
    unit-trace H has lambda_min >= -7.3e-10 up to d = 1024, which validate
    accepts too; a full TOL_PSD shift would accept states that it rejects.
    """
    arr, defect, deviation, herm = _parts(mat)
    if defect <= linalg.TOL_HERM and deviation <= TOL_TRACE:
        d = arr.shape[-1]
        # herm is C-ordered, so this reshape is a view and its diagonal shifts
        diag = herm.reshape(*herm.shape[:-2], d * d)[..., :: d + 1]
        unshifted = diag.copy()
        diag += linalg.TOL_PSD / 2
        try:
            if np.isfinite(np.linalg.cholesky(herm)).all():
                return None
        except np.linalg.LinAlgError:
            pass
        diag[...] = unshifted
    return _report(defect, deviation, herm)


def _require_valid(report: StateReport | None) -> None:
    if report is not None and not report.is_valid:
        raise ValueError(
            "invalid density operator: "
            f"hermiticity defect {report.hermiticity_defect:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e}, "
            f"trace deviation {report.trace_deviation:.3e}"
        )


def density_stack(mats: np.ndarray) -> np.ndarray:
    """A read-only copy of a stack of density matrices (..., d, d), checked
    as ``DensityOperator`` checks one matrix and rejected as it rejects one."""
    report = _check_state(mats)
    arr = np.array(mats, dtype=complex, order="C")
    _require_valid(report)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace operator with a subsystem-dimension signature."""

    mat: np.ndarray
    dims: DimSignature

    def __post_init__(self) -> None:
        arr = np.array(self.mat, dtype=complex, order="C")
        if arr.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
        report = _check_state(arr)  # the one checked coercion
        sig = linalg.check_signature(self.dims, arr.shape[0])
        _require_valid(report)
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)
        object.__setattr__(self, "dims", sig)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def marginal(self, keep: Sequence[int]) -> "DensityOperator":
        kept = sorted(set(int(k) for k in keep))
        reduced = linalg.partial_trace(self.mat, self.dims, kept)
        return DensityOperator(reduced, tuple(self.dims[k] for k in kept))


def from_pure(psi: np.ndarray, dims: Sequence[int] | None = None) -> DensityOperator:
    """Rank-one density operator |psi><psi| from an amplitude vector."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    sig = tuple(dims) if dims is not None else (vec.size,)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > FROM_PURE_NORM_TOL:
        raise ValueError(f"amplitudes not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    mat = np.outer(vec, vec.conj()) / norm**2
    return DensityOperator(mat, sig)


def maximally_mixed(dims: Sequence[int]) -> DensityOperator:
    sig = tuple(int(d) for d in dims)
    d = int(np.prod(sig))
    return DensityOperator(np.eye(d, dtype=complex) / d, sig)


def bell_phi_plus(d: int) -> DensityOperator:
    """Maximally entangled state sum_a |aa> / sqrt(d) on a d x d system."""
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    vec = np.zeros(d * d, dtype=complex)
    for a in range(d):
        vec[a * d + a] = 1.0 / np.sqrt(d)
    return from_pure(vec, dims=(d, d))


def isotropic(d: int, p: float) -> DensityOperator:
    """Mixture p * phi_plus + (1-p) * I / d^2 on a d x d system."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must be in [0, 1], got {p}")
    phi = bell_phi_plus(d).mat
    mat = p * phi + (1.0 - p) * np.eye(d * d, dtype=complex) / (d * d)
    return DensityOperator(mat, (d, d))


def _ginibre_draw(dim: int, rank: int, rng, count: int, real: bool) -> np.ndarray:
    """The uniforms of count Ginibre matrices G of shape (dim, rank) in stream
    order: per G one row of normals when ``real``, else a row of real parts
    and then a row of imaginary parts."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    return _uniforms(_coerce_rng(rng), dim * rank, count if real else 2 * count)


def _ginibre_states(u: np.ndarray, dim: int, rank: int, real: bool) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for each G drawn by ``_ginibre_draw``, from its
    uniforms, unvalidated; shape (count, dim, dim). Each state depends on its
    own uniforms alone, so a stack of successive draws gives each draw's
    state bit for bit."""
    z = _box_muller(u, dim * rank)
    g = (z if real else z[0::2] + 1j * z[1::2]).reshape(-1, dim, rank)
    # G G^T of a real G reads one buffer twice, which numpy computes as such
    mats = (g @ (g if real else g.conj()).swapaxes(1, 2)).astype(complex, copy=False)
    mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
    return mats


def _ginibre(dim: int, rank: int, rng, count: int, real: bool) -> np.ndarray:
    """count Ginibre states drawn and built at once, unvalidated."""
    return _ginibre_states(_ginibre_draw(dim, rank, rng, count, real), dim, rank, real)


def random_densities(
    dim: int, rank: int, rng: np.random.Generator | int | None, count: int
) -> np.ndarray:
    """Validated read-only stack (count, dim, dim) of Ginibre states; row k is
    the state of the k-th of count successive ``random_density`` draws."""
    return density_stack(_ginibre(dim, rank, rng, count, real=False))


def random_real_densities(
    dim: int, rank: int, rng: np.random.Generator | int | None, count: int
) -> np.ndarray:
    """The real-entry counterpart of ``random_densities``."""
    return density_stack(_ginibre(dim, rank, rng, count, real=True))


def random_density(
    dim: int,
    rank: int,
    rng: np.random.Generator | int | None,
    dims: Sequence[int] | None = None,
) -> DensityOperator:
    """Ginibre state G G^dag / Tr(G G^dag) with G of shape (dim, rank)."""
    mat = _ginibre(dim, rank, rng, 1, real=False)[0]
    return DensityOperator(mat, tuple(dims) if dims is not None else (dim,))


def random_real_density(
    dim: int,
    rank: int,
    rng: np.random.Generator | int | None,
    dims: Sequence[int] | None = None,
) -> DensityOperator:
    """Real-entry Ginibre state; free for the realness resource theory."""
    mat = _ginibre(dim, rank, rng, 1, real=True)[0]
    return DensityOperator(mat, tuple(dims) if dims is not None else (dim,))


def random_pure_vector(dim: int, rng: np.random.Generator | int | None) -> np.ndarray:
    vec = complex_normals(_coerce_rng(rng), dim)[0]
    return vec / np.linalg.norm(vec)


def tensor(*states: DensityOperator) -> DensityOperator:
    """Tensor product of density operators, concatenating signatures."""
    if not states:
        raise ValueError("empty tensor product")
    mat = linalg.kron_all([s.mat for s in states])
    dims: tuple[int, ...] = ()
    for s in states:
        dims = dims + s.dims
    return DensityOperator(mat, dims)
