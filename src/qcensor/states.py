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


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on generator uniforms."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], no log(0)
    z = np.concatenate([radius * np.cos(2 * np.pi * u2), radius * np.sin(2 * np.pi * u2)])
    return z[:n]


def complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    re = standard_normals(rng, n)
    im = standard_normals(rng, n)
    return re + 1j * im


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


def validate(mat: np.ndarray) -> StateReport:
    """Report Hermiticity defect, minimum eigenvalue and trace deviation."""
    arr = linalg.as_complex_matrix(mat)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {arr.shape}")
    adj = arr.conj().T
    # Entries near the float limit overflow into an infinite defect or NaN
    # eigenvalues, which is_valid rejects; numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.abs(arr - adj).max())
        w = np.linalg.eigvalsh((arr + adj) / 2)  # ascending
        trace = complex(arr.trace())
    return StateReport(
        hermiticity_defect=defect,
        min_eigenvalue=float(w[0]),
        trace_deviation=abs(trace - 1.0),
    )


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace operator with a subsystem-dimension signature."""

    mat: np.ndarray
    dims: DimSignature

    def __post_init__(self) -> None:
        report = validate(self.mat)  # the one checked coercion
        arr = np.array(self.mat, dtype=complex, order="C")
        sig = linalg.check_signature(self.dims, arr.shape[0])
        if not report.is_valid:
            raise ValueError(
                "invalid density operator: "
                f"hermiticity defect {report.hermiticity_defect:.3e}, "
                f"min eigenvalue {report.min_eigenvalue:.3e}, "
                f"trace deviation {report.trace_deviation:.3e}"
            )
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


def random_density(
    dim: int,
    rank: int,
    rng: np.random.Generator | int | None,
    dims: Sequence[int] | None = None,
) -> DensityOperator:
    """Ginibre state G G^dag / Tr(G G^dag) with G of shape (dim, rank)."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    gen = _coerce_rng(rng)
    g = complex_normals(gen, dim * rank).reshape(dim, rank)
    mat = g @ g.conj().T
    mat /= mat.trace().real
    return DensityOperator(mat, tuple(dims) if dims is not None else (dim,))


def random_real_density(
    dim: int,
    rank: int,
    rng: np.random.Generator | int | None,
    dims: Sequence[int] | None = None,
) -> DensityOperator:
    """Real-entry Ginibre state; free for the realness resource theory."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    gen = _coerce_rng(rng)
    g = standard_normals(gen, dim * rank).reshape(dim, rank)
    mat = (g @ g.T).astype(complex)
    mat /= mat.trace().real
    return DensityOperator(mat, tuple(dims) if dims is not None else (dim,))


def random_pure_vector(dim: int, rng: np.random.Generator | int | None) -> np.ndarray:
    gen = _coerce_rng(rng)
    vec = complex_normals(gen, dim)
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
