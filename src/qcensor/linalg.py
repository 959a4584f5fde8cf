"""Dense complex linear algebra on small multipartite Hilbert spaces.

All operations are pure functions on immutable inputs; none of them keeps
shared mutable state, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Absolute eigenvalue tolerances. Matrices up to the 1024-wide receiver budget
# are validated; for a unit-trace one there, eigensolver error (about d eps)
# is below 3e-13, and the Cholesky backward error (about d^2 eps, below
# 2.3e-10) fits inside the TOL_PSD / 2 shift of states._check_state.
TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_ORTH = 1e-9

_TIE_TOL = 1e-10

DimSignature = tuple[int, ...]


def as_complex_matrix(mat: np.ndarray, stacked: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex array, or with ``stacked`` to a stack of
    matrices of shape (..., a, b), rejecting NaN/Inf entries."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 and not (stacked and arr.ndim > 2):
        raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    return arr


def check_signature(dims: Sequence[int], matrix_dim: int) -> DimSignature:
    """Validate a subsystem-dimension signature against a matrix dimension."""
    sig = tuple(map(int, dims))
    if not sig:
        raise ValueError("dimension signature must not be empty")
    if min(sig) < 2:
        raise ValueError(f"subsystem dimensions must be >= 2, got {sig}")
    if math.prod(sig) != matrix_dim:
        raise ValueError(f"signature {sig} does not match matrix dimension {matrix_dim}")
    return sig


def _square(mat: np.ndarray, stacked: bool = False) -> np.ndarray:
    arr = as_complex_matrix(mat, stacked)
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {arr.shape}")
    return arr


def _defect(arr: np.ndarray) -> float:
    return float(np.abs(arr - arr.conj().T).max())


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out: np.ndarray | None = None
    for m in mats:
        out = as_complex_matrix(m) if out is None else np.kron(out, as_complex_matrix(m))
    if out is None:
        raise ValueError("empty product")
    return out


def _check_indices(indices: Iterable[int], n: int) -> tuple[int, ...]:
    idx = tuple(int(k) for k in indices)
    for k in idx:
        if k < 0 or k >= n:
            raise IndexError(f"subsystem index {k} out of range for {n} factors")
    return idx


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors except those listed in ``keep``.

    The kept factors stay in their original order; trace is preserved.
    """
    arr = _square(rho)
    sig = check_signature(dims, arr.shape[0])
    n = len(sig)
    kept = sorted(set(_check_indices(keep, n)))
    tensor = arr.reshape(sig + sig)
    row_ids = list(range(n))
    col_ids = [k + n if k in kept else k for k in range(n)]
    out_ids = kept + [k + n for k in kept]
    reduced = np.einsum(tensor, row_ids + col_ids, out_ids)
    d_keep = math.prod(sig[k] for k in kept)
    return reduced.reshape(d_keep, d_keep)


def partial_transpose(
    rho: np.ndarray, dims: Sequence[int], subsystem: int | Iterable[int]
) -> np.ndarray:
    """Transpose the chosen tensor factor(s) of a matrix, or of each matrix of
    a stack (..., d, d); applying twice restores the input."""
    arr = _square(rho, stacked=True)
    sig = check_signature(dims, arr.shape[-1])
    n, lead = len(sig), arr.ndim - 2
    subs = _check_indices([subsystem] if isinstance(subsystem, (int, np.integer)) else subsystem, n)
    axes = list(range(lead, lead + 2 * n))
    for k in set(subs):
        axes[k], axes[k + n] = axes[k + n], axes[k]
    tensor = arr.reshape(arr.shape[:-2] + sig + sig)
    return tensor.transpose(*range(lead), *axes).reshape(arr.shape)


def _canonicalize_column(vecs: np.ndarray) -> np.ndarray:
    """Phase-fix each column of a matrix or of each matrix of a stack
    (..., n, k), or a single vector, at once.

    The first entry within _TIE_TOL of a column's largest magnitude becomes
    real positive, so float noise cannot move the pivot between near-ties.
    Columns must be nonzero.
    """
    mags = np.abs(vecs)
    if vecs.ndim == 1:
        pivot = (mags >= mags.max() - _TIE_TOL).argmax()
        return vecs * (vecs[pivot].conjugate() / mags[pivot])
    pivot = (mags >= mags.max(-2, keepdims=True) - _TIE_TOL).argmax(-2)
    # each column's pivot row, with its column and, in a stack, its matrix
    grid = np.indices(pivot.shape, sparse=True) if vecs.ndim > 2 else (np.arange(len(pivot)),)
    at = (*grid[:-1], pivot, grid[-1])
    return vecs * (vecs[at].conjugate() / mags[at])[..., None, :]


def hermitian_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (..., d, d), with a deterministic basis.

    Returns eigenvalues sorted descending and orthonormal eigenvector columns,
    each phase-fixed by ``_canonicalize_column``. Inside a degenerate group
    the columns keep ``eigh``'s order, so repeated calls on equal inputs give
    identical output, and a stack gives each matrix's output bit for bit.
    """
    arr = _square(mat, stacked=True)
    adj = arr.conj().swapaxes(-1, -2)
    defect = float(np.abs(arr - adj).max())
    if defect > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian within {TOL_HERM} (defect {defect:.3e})")
    w, v = np.linalg.eigh((arr + adj) / 2)
    order = np.argsort(-w, kind="stable")
    if w.ndim == 1:
        return w[order], _canonicalize_column(v[:, order])
    # each matrix of the stack in its own order, laid out as v[:, order] is
    at = (*(i[..., None] for i in np.indices(order.shape[:-1], sparse=True)), order)
    return w[at], _canonicalize_column(v.swapaxes(-1, -2)[at].swapaxes(-1, -2))


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    arr = _square(mat)
    if _defect(arr) > TOL_HERM:
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh((arr + arr.conj().T) / 2)[0])


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in nats, with the 0*log(0) = 0 convention.

    The input must be a valid density operator (Hermitian, PSD and unit
    trace within tolerance); anything else raises ValueError.
    """
    arr = _square(rho)
    if _defect(arr) > TOL_HERM:
        raise ValueError("not a density operator: not Hermitian")
    w = np.linalg.eigvalsh((arr + arr.conj().T) / 2)
    if w.min() < -TOL_PSD:
        raise ValueError(f"not a density operator: minimum eigenvalue {w.min():.3e}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"not a density operator: trace {w.sum():.12f}")
    w = np.clip(w, 0.0, None)
    nz = w[w > 0]
    return max(float(-(nz * np.log(nz)).sum()), 0.0)


def entropy_bits(nats: float) -> float:
    """Convert an entropy-like quantity from nats to bits."""
    return nats / np.log(2.0)


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two equal-shape matrices."""
    xa = as_complex_matrix(a)
    xb = as_complex_matrix(b)
    if xa.shape != xb.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {xb.shape}")
    return float(np.linalg.norm(xa - xb))
