"""Quantum channels in Kraus form, general linear maps, and Choi analysis.

Every map acts through its transfer matrix T on row-major vectorized
operators; a Kraus channel builds T = sum_k K (x) conj(K) once and keeps its
Kraus operators only to certify that it is CPTP. Conventions fixed repo-wide:
the Choi matrix is the unnormalized ``C = sum_ij L(|i><j|) (x) |i><j|`` with
ordering output (x) input, the reshuffle C[(a,i),(b,j)] = T[(a,b),(i,j)], so
the identity qubit channel has Choi ``2 * phi_plus`` and the transpose map
has Choi SWAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import DimSignature
from .states import DensityOperator

TOL_TP = 1e-9
_RANK_ONE_TOL = 1e-9


def _act(transfer: np.ndarray, in_dim: int, out_dim: int, mat: np.ndarray) -> np.ndarray:
    arr = linalg.as_complex_matrix(mat)
    if arr.shape != (in_dim, in_dim):
        raise ValueError(f"operator shape {arr.shape} does not match input dim {in_dim}")
    return (transfer @ arr.reshape(-1)).reshape(out_dim, out_dim)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map in operator-sum form; its read-only ``transfer`` is what acts."""

    kraus: tuple[np.ndarray, ...]
    in_dims: DimSignature
    out_dims: DimSignature
    transfer: np.ndarray = field(init=False, repr=False)
    in_dim: int = field(init=False, repr=False)
    out_dim: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:  # equal-shape operators: one coercion and one finiteness check
            stack = np.asarray(self.kraus, dtype=complex)
            ops = tuple(stack) if stack.ndim == 3 and np.isfinite(stack).all() else None
        except (TypeError, ValueError):
            ops = None
        if ops is None:  # one by one, so that the error names the fault
            ops = tuple(linalg.as_complex_matrix(k) for k in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d_in = int(np.prod(self.in_dims))
        d_out = int(np.prod(self.out_dims))
        for k in ops:
            if k.shape != (d_out, d_in):
                raise ValueError(f"Kraus operator shape {k.shape} != ({d_out}, {d_in})")
        total = sum(k.conj().T @ k for k in ops)
        defect = float(np.abs(total - np.eye(d_in)).max())
        if defect > TOL_TP:
            raise ValueError(f"Kraus operators are not trace preserving (defect {defect:.3e})")
        # row-major vec(K X K^dag) = (K (x) conj(K)) vec(X), summed over K
        transfer = np.zeros((d_out, d_out, d_in, d_in), dtype=complex)
        for k in ops:
            transfer += k[:, None, :, None] * k.conj()[None, :, None, :]
        transfer = transfer.reshape(d_out * d_out, d_in * d_in)
        transfer.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "in_dims", linalg.check_signature(self.in_dims, d_in))
        object.__setattr__(self, "out_dims", linalg.check_signature(self.out_dims, d_out))
        object.__setattr__(self, "transfer", transfer)
        object.__setattr__(self, "in_dim", d_in)
        object.__setattr__(self, "out_dim", d_out)

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Linear action on an arbitrary (not necessarily normalized) operator."""
        return _act(self.transfer, self.in_dim, self.out_dim, mat)


@dataclass(frozen=True, eq=False)
class GeneralLinearMap:
    """Linear operator on matrix space, carried as its transfer matrix.

    Covers maps with no Kraus form (non-CP maps); ``transfer`` has shape
    (out_dim^2, in_dim^2) and acts on row-major vectorized operators.
    """

    transfer: np.ndarray
    in_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        arr = linalg.as_complex_matrix(self.transfer)
        if arr.shape != (self.out_dim**2, self.in_dim**2):
            raise ValueError(
                f"transfer shape {arr.shape} != ({self.out_dim**2}, {self.in_dim**2})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "transfer", arr)

    @classmethod
    def from_function(cls, fn, in_dim: int, out_dim: int | None = None) -> "GeneralLinearMap":
        """Build the transfer matrix by acting on the matrix-unit basis."""
        d_out = in_dim if out_dim is None else out_dim
        cols = []
        for i in range(in_dim):
            for j in range(in_dim):
                unit = np.zeros((in_dim, in_dim), dtype=complex)
                unit[i, j] = 1.0
                cols.append(np.asarray(fn(unit), dtype=complex).reshape(-1))
        return cls(np.column_stack(cols), in_dim, d_out)

    @classmethod
    def from_kraus(cls, ch: KrausChannel) -> "GeneralLinearMap":
        return cls(ch.transfer, ch.in_dim, ch.out_dim)

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        return _act(self.transfer, self.in_dim, self.out_dim, mat)


def apply(ch: KrausChannel | GeneralLinearMap, rho: DensityOperator):
    """Apply a channel to a state.

    Kraus channels return a DensityOperator; general linear maps return a
    plain matrix, since the output of a non-CP map may fail positivity.
    """
    if rho.dim != ch.in_dim:
        raise ValueError(f"state dim {rho.dim} does not match channel input {ch.in_dim}")
    out = ch.apply_matrix(rho.mat)
    return DensityOperator(out, ch.out_dims) if isinstance(ch, KrausChannel) else out


def identity_channel(dims: Sequence[int] | int) -> KrausChannel:
    sig = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
    d = int(np.prod(sig))
    return KrausChannel((np.eye(d, dtype=complex),), sig, sig)


def dephasing_channel(basis: np.ndarray, dims: Sequence[int] | None = None) -> KrausChannel:
    """Projective dephasing onto the columns of a unitary basis matrix."""
    b = linalg.as_complex_matrix(basis)
    if b.shape[0] != b.shape[1]:
        raise ValueError("basis must be square")
    d = b.shape[0]
    defect = float(np.abs(b.conj().T @ b - np.eye(d)).max())
    if defect > linalg.TOL_ORTH:
        raise ValueError(f"basis is not unitary (defect {defect:.3e})")
    sig = tuple(dims) if dims is not None else (d,)
    ops = tuple(np.outer(b[:, a], b[:, a].conj()) for a in range(d))
    return KrausChannel(ops, sig, sig)


def replacement_channel(
    sigma: DensityOperator, in_dims: Sequence[int] | None = None
) -> KrausChannel:
    """Channel sending every input to ``sigma``; rank-one Kraus by construction."""
    w, v = linalg.hermitian_eig(sigma.mat)
    w = np.clip(w, 0.0, None)
    keep = w > 1e-12
    w = w[keep] / w[keep].sum()
    v = v[:, keep]
    in_sig = tuple(in_dims) if in_dims is not None else sigma.dims
    d_in = int(np.prod(in_sig))
    ops = []
    for a in range(w.size):
        col = np.sqrt(w[a]) * v[:, a]
        for i in range(d_in):
            k = np.zeros((sigma.dim, d_in), dtype=complex)
            k[:, i] = col
            ops.append(k)
    return KrausChannel(tuple(ops), in_sig, sigma.dims)


def depolarizing(dims: Sequence[int] | int, strength: float) -> KrausChannel:
    """Mixes the input with the maximally mixed state: (1-s) rho + s I/d."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    sig = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
    d = int(np.prod(sig))
    ops: list[np.ndarray] = []
    if strength < 1.0:
        ops.append(np.sqrt(1.0 - strength) * np.eye(d, dtype=complex))
    if strength > 0.0:
        for i in range(d):
            for j in range(d):
                k = np.zeros((d, d), dtype=complex)
                k[i, j] = np.sqrt(strength / d)
                ops.append(k)
    return KrausChannel(tuple(ops), sig, sig)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Qubit amplitude damping with decay probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), (2,), (2,))


def transpose_map(d: int) -> GeneralLinearMap:
    return GeneralLinearMap.from_function(lambda m: m.T, d)


def imaginarity_rd_map(d: int = 2) -> GeneralLinearMap:
    """Symmetrization rho -> (rho + rho^T) / 2; kills imaginary parts of states.

    Not completely positive, hence carried as a transfer matrix.
    """
    return GeneralLinearMap.from_function(lambda m: (m + m.T) / 2, d)


def mix_maps(maps: Sequence[GeneralLinearMap], weights: Sequence[float]) -> GeneralLinearMap:
    """Convex (or affine) combination of linear maps with matching dims."""
    if len(maps) != len(weights) or not maps:
        raise ValueError("need matching, nonempty maps and weights")
    d_in, d_out = maps[0].in_dim, maps[0].out_dim
    if any(m.in_dim != d_in or m.out_dim != d_out for m in maps):
        raise ValueError("maps must share input and output dimensions")
    transfer = sum(w * m.transfer for w, m in zip(weights, maps))
    return GeneralLinearMap(transfer, d_in, d_out)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi operator on output (x) input; trace-preserving maps only."""

    mat: np.ndarray
    in_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        arr = linalg.as_complex_matrix(self.mat)
        if arr.shape != (self.in_dim * self.out_dim,) * 2:
            raise ValueError("Choi matrix shape does not match dims")
        reduced = linalg.partial_trace(arr, (self.out_dim, self.in_dim), keep=[1])
        defect = float(np.abs(reduced - np.eye(self.in_dim)).max())
        if defect > TOL_TP:
            raise ValueError(f"map is not trace preserving (Choi defect {defect:.3e})")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)


def choi(ch: KrausChannel | GeneralLinearMap) -> ChoiMatrix:
    """Choi matrix C = sum_ij L(|i><j|) (x) |i><j| (unnormalized, trace d),
    the reshuffle C[(a,i),(b,j)] = T[(a,b),(i,j)] of the transfer matrix."""
    d_in, d_out = ch.in_dim, ch.out_dim
    t = ch.transfer.reshape(d_out, d_out, d_in, d_in)
    return ChoiMatrix(t.transpose(0, 2, 1, 3).reshape(d_out * d_in, d_out * d_in), d_in, d_out)


def is_completely_positive(
    ch: KrausChannel | GeneralLinearMap, tol: float = linalg.TOL_PSD
) -> bool:
    """True iff the Choi matrix is positive semidefinite within tol."""
    return linalg.min_eigenvalue(choi(ch).mat) >= -tol


@dataclass(frozen=True)
class EbVerdict:
    """Entanglement-breaking verdict; decisive=False marks necessary-only tests."""

    is_breaking: bool
    decisive: bool


def _all_rank_one(ops: Iterable[np.ndarray]) -> bool:
    for k in ops:
        s = np.linalg.svd(k, compute_uv=False)
        if s.size > 1 and s[1] > _RANK_ONE_TOL * max(1.0, float(s[0])):
            return False
    return True


CHANNEL_KINDS = ("identity", "dephasing", "replacement", "depolarizing", "amplitude_damping")


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative channel description for scenario files: kind plus params.

    Built against a concrete register signature, so the same spec can serve
    registers of different sizes where the kind allows it.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def build(self, dims: Sequence[int] | int) -> KrausChannel:
        sig = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
        d = int(np.prod(sig))
        if self.kind == "identity":
            return identity_channel(sig)
        if self.kind == "dephasing":
            basis = self.params.get("basis")
            if basis is None:
                basis = np.eye(d, dtype=complex)
            return dephasing_channel(np.asarray(basis, dtype=complex), dims=sig)
        if self.kind == "replacement":
            target = self.params["state"]
            if not isinstance(target, DensityOperator):
                raise ValueError("replacement spec needs params['state'] as a DensityOperator")
            return replacement_channel(target, in_dims=sig)
        if self.kind == "depolarizing":
            return depolarizing(sig, float(self.params["strength"]))
        if self.kind == "amplitude_damping":
            if d != 2:
                raise ValueError("amplitude damping acts on a single qubit")
            return amplitude_damping(float(self.params["gamma"]))
        raise ValueError(f"unknown channel kind {self.kind!r}; known: {CHANNEL_KINDS}")


def is_entanglement_breaking(ch: KrausChannel, tol: float = linalg.TOL_PSD) -> EbVerdict:
    """Entanglement-breaking test.

    A rank-one Kraus decomposition decides positively in any dimension. The
    Choi PPT test decides both ways when the Choi matrix lives on 2x2 or
    2x3; in larger dimensions PPT is only necessary, so a passing PPT is
    reported with decisive=False while a failing PPT is decisive.
    """
    if _all_rank_one(ch.kraus):
        return EbVerdict(True, True)
    c = choi(ch)
    pt = linalg.partial_transpose(c.mat, (c.out_dim, c.in_dim), 1)
    ppt = linalg.min_eigenvalue(pt) >= -tol
    if not ppt:
        return EbVerdict(False, True)
    return EbVerdict(True, sorted((c.out_dim, c.in_dim)) in ([2, 2], [2, 3]))
