"""Dense complex linear algebra on small multipartite Hilbert spaces.

All operations are pure functions on immutable inputs; none of them keeps
shared mutable state, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Absolute eigenvalue tolerances; double precision keeps eigensolver error
# well below 1e-10 for the dimensions handled here (<= 64).
TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_ORTH = 1e-9

_TIE_TOL = 1e-10

DimSignature = tuple[int, ...]


def as_complex_matrix(mat: np.ndarray) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
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


def _square(mat: np.ndarray) -> np.ndarray:
    arr = as_complex_matrix(mat)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _defect(arr: np.ndarray) -> float:
    return float(np.abs(arr - arr.conj().T).max())


def hermiticity_defect(mat: np.ndarray) -> float:
    """Max-entry distance between a matrix and its conjugate transpose."""
    return _defect(_square(mat))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


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


def apply_transfer(
    mat: np.ndarray,
    dims: Sequence[int],
    transfer: np.ndarray,
    start: int,
    stop: int,
    out_dims: Sequence[int],
) -> tuple[np.ndarray, DimSignature]:
    """Apply a transfer matrix to the contiguous factors ``start:stop``.

    ``transfer`` acts on the row-major vectorized operator of those factors,
    shape (d_out^2, d_in^2); the chosen factors are replaced by factors of
    dimensions ``out_dims`` and every other factor is left as it is. Returns
    the new matrix and its signature.
    """
    arr = _square(mat)
    sig = check_signature(dims, arr.shape[0])
    if not 0 <= start < stop <= len(sig):
        raise IndexError(f"factor range {start}:{stop} out of range for {len(sig)} factors")
    out_sig = tuple(int(d) for d in out_dims)
    left = math.prod(sig[:start])
    d_in = math.prod(sig[start:stop])
    right = math.prod(sig[stop:])
    d_out = math.prod(out_sig)
    t = np.asarray(transfer, dtype=complex)
    if t.shape != (d_out * d_out, d_in * d_in):
        raise ValueError(f"transfer shape {t.shape} != ({d_out * d_out}, {d_in * d_in})")
    blocks = arr.reshape(left, d_in, right, left, d_in, right)
    out = np.tensordot(t.reshape(d_out, d_out, d_in, d_in), blocks, axes=([2, 3], [1, 4]))
    width = left * d_out * right
    new_sig = sig[:start] + out_sig + sig[stop:]
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(width, width), new_sig


def partial_transpose(
    rho: np.ndarray, dims: Sequence[int], subsystem: int | Iterable[int]
) -> np.ndarray:
    """Transpose the chosen tensor factor(s); applying twice restores the input."""
    arr = _square(rho)
    sig = check_signature(dims, arr.shape[0])
    n = len(sig)
    subs = _check_indices([subsystem] if isinstance(subsystem, (int, np.integer)) else subsystem, n)
    axes = list(range(2 * n))
    for k in set(subs):
        axes[k], axes[k + n] = axes[k + n], axes[k]
    return arr.reshape(sig + sig).transpose(axes).reshape(arr.shape)


def _canonicalize_column(col: np.ndarray) -> np.ndarray:
    # Phase fixed so the first entry within _TIE_TOL of the largest magnitude
    # is real positive; float noise cannot move the pivot between near-ties.
    mags = np.abs(col)
    pivot = int(np.argmax(mags >= mags.max() - _TIE_TOL))
    if mags[pivot] == 0.0:
        return col
    return col * (col[pivot].conjugate() / mags[pivot])


def _lex_key(col: np.ndarray) -> tuple:
    return tuple((round(float(x.real), 12), round(float(x.imag), 12)) for x in col)


def hermitian_eig(mat: np.ndarray, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a deterministic basis.

    Returns eigenvalues sorted descending and orthonormal eigenvector columns.
    Each column is phase-fixed (first entry within a tie tolerance of the
    largest magnitude real positive) and columns inside a degenerate group
    are ordered lexicographically, so repeated calls on equal inputs give
    identical output.
    """
    arr = _square(mat)
    defect = _defect(arr)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (defect {defect:.3e})")
    w, v = np.linalg.eigh((arr + arr.conj().T) / 2)
    order = np.argsort(-w, kind="stable")
    w = w[order].real
    v = v[:, order]
    for j in range(v.shape[1]):
        v[:, j] = _canonicalize_column(v[:, j])
    tie = _TIE_TOL * max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and w[start] - w[stop] <= tie:
            stop += 1
        if stop - start > 1:
            cols = sorted(range(start, stop), key=lambda j: _lex_key(v[:, j]))
            v[:, start:stop] = v[:, cols]
        start = stop
    return w, v


def min_eigenvalue(mat: np.ndarray, tol: float = TOL_HERM) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    arr = _square(mat)
    if _defect(arr) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh((arr + arr.conj().T) / 2).min())


def is_positive_semidefinite(mat: np.ndarray, tol: float = TOL_PSD) -> bool:
    """True iff the (Hermitian) matrix has minimum eigenvalue >= -tol."""
    return min_eigenvalue(mat) >= -tol


def von_neumann_entropy(rho: np.ndarray, tol: float = TOL_PSD) -> float:
    """Von Neumann entropy in nats, with the 0*log(0) = 0 convention.

    The input must be a valid density operator (Hermitian, PSD and unit
    trace within tolerance); anything else raises ValueError.
    """
    arr = _square(rho)
    if _defect(arr) > TOL_HERM:
        raise ValueError("not a density operator: not Hermitian")
    w = np.linalg.eigvalsh((arr + arr.conj().T) / 2)
    if w.min() < -tol:
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
