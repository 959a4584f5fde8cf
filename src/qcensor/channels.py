"""Quantum channels in Kraus form, general linear maps, and Choi analysis.

Every map acts through its transfer matrix T on row-major vectorized
operators; a Kraus channel builds T = sum_k K (x) conj(K) once and keeps its
Kraus operators only to certify that it is CPTP. The measure-and-prepare
channels that censor, ``dephasing_channel`` and ``replacement_channel``, are
general linear maps built from their transfer alone, bit for bit that of
their Kraus form, each carrying its Holevo pairs (effects E_k, preparations
s_k, with L(X) = sum_k Tr(E_k X) s_k) as its certificate that it is an
entanglement-breaking channel. Conventions fixed repo-wide: the Choi matrix is the
unnormalized ``C = sum_ij L(|i><j|) (x) |i><j|`` with ordering output (x)
input, the reshuffle C[(a,i),(b,j)] = T[(a,b),(i,j)], so the identity qubit
channel has Choi ``2 * phi_plus`` and the transpose map has Choi SWAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import DimSignature
from .states import DensityOperator

TOL_TP = 1e-9
_RANK_ONE_TOL = 1e-9


def _act(transfer: np.ndarray, in_dim: int, out_dim: int, mat: np.ndarray) -> np.ndarray:
    """T vec(X) for an operator X, or for each operator of a stack (..., d, d)
    in one matmul; each is the matrix-vector product of X alone."""
    arr = linalg.as_complex_matrix(mat, stacked=True)
    if arr.shape[-2:] != (in_dim, in_dim):
        raise ValueError(f"operator shape {arr.shape} does not match input dim {in_dim}")
    lead = arr.shape[:-2]
    return (transfer @ arr.reshape(*lead, in_dim * in_dim, 1)).reshape(*lead, out_dim, out_dim)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map in operator-sum form; its read-only ``transfer`` is what acts,
    and its ``kraus`` operators are read-only too."""

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
        # a channel can be shared, so it keeps read-only copies of its operators
        ops = np.array(ops)
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", tuple(ops))
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

    ``transfer`` has shape (out_dim^2, in_dim^2) and acts on row-major
    vectorized operators. A map from ``dephasing_channel`` or
    ``replacement_channel``, or a convex ``mix_maps`` of such maps, also
    carries its Holevo pairs as read-only stacks ``effects`` and
    ``preparations``; any other map (non-CP maps among them) carries none and
    is not known to be a channel.
    """

    transfer: np.ndarray
    in_dims: DimSignature
    out_dims: DimSignature
    in_dim: int = field(init=False, repr=False)
    out_dim: int = field(init=False, repr=False)
    effects: np.ndarray | None = field(init=False, repr=False, default=None)
    preparations: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        d_in, d_out = math.prod(self.in_dims), math.prod(self.out_dims)
        arr = linalg.as_complex_matrix(self.transfer).copy()
        if arr.shape != (d_out**2, d_in**2):
            raise ValueError(f"transfer shape {arr.shape} != ({d_out**2}, {d_in**2})")
        arr.setflags(write=False)
        object.__setattr__(self, "transfer", arr)
        object.__setattr__(self, "in_dims", linalg.check_signature(self.in_dims, d_in))
        object.__setattr__(self, "out_dims", linalg.check_signature(self.out_dims, d_out))
        object.__setattr__(self, "in_dim", d_in)
        object.__setattr__(self, "out_dim", d_out)

    @classmethod
    def from_function(cls, fn, in_dim: int) -> "GeneralLinearMap":
        """Build the transfer matrix by acting on the matrix-unit basis."""
        cols = []
        for i in range(in_dim):
            for j in range(in_dim):
                unit = np.zeros((in_dim, in_dim), dtype=complex)
                unit[i, j] = 1.0
                cols.append(np.asarray(fn(unit), dtype=complex).reshape(-1))
        return cls(np.column_stack(cols), (in_dim,), (in_dim,))

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        return _act(self.transfer, self.in_dim, self.out_dim, mat)


# either map class: certified as a channel by Kraus operators or Holevo pairs, or not
Channel = KrausChannel | GeneralLinearMap


def apply(ch: Channel, rho: DensityOperator):
    """Apply a channel to a state.

    A map certified as a channel, by Kraus operators or Holevo pairs, returns
    a DensityOperator; any other map returns a plain matrix, since the output
    of a non-CP map may fail positivity.
    """
    if rho.dim != ch.in_dim:
        raise ValueError(f"state dim {rho.dim} does not match channel input {ch.in_dim}")
    out = ch.apply_matrix(rho.mat)
    certified = isinstance(ch, KrausChannel) or ch.effects is not None
    return DensityOperator(out, ch.out_dims) if certified else out


def identity_channel(dims: Sequence[int] | int) -> KrausChannel:
    sig = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
    d = int(np.prod(sig))
    return KrausChannel((np.eye(d, dtype=complex),), sig, sig)


def _unitary(basis: np.ndarray) -> np.ndarray:
    """A square basis matrix, checked to be unitary within TOL_ORTH."""
    b = linalg.as_complex_matrix(basis)
    if b.shape[0] != b.shape[1]:
        raise ValueError("basis must be square")
    defect = float(np.abs(b.conj().T @ b - np.eye(b.shape[0])).max())
    if defect > linalg.TOL_ORTH:
        raise ValueError(f"basis is not unitary (defect {defect:.3e})")
    return b


def _spectral_columns(sigma: DensityOperator) -> np.ndarray:
    """Columns sqrt(w_a) v_a over the eigenvalues w_a of sigma above 1e-12,
    the spectrum clipped at 0 and renormalized; their outer products sum to sigma."""
    w, v = linalg.hermitian_eig(sigma.mat)
    w = np.clip(w, 0.0, None)
    keep = w > 1e-12
    w = w[keep] / w[keep].sum()
    return v[:, keep] * np.sqrt(w)


def _trace_preserving_map(
    ch: GeneralLinearMap, effects: np.ndarray, preparations: np.ndarray
) -> GeneralLinearMap:
    """``ch`` certified by its Holevo pairs, once sum_s T[(s,s),(i,j)] is
    delta_ij within TOL_TP: the transfer's form of sum_k K^dag K = I."""
    traced = ch.transfer[:: ch.out_dim + 1].sum(axis=0).reshape(ch.in_dim, ch.in_dim)
    defect = float(np.abs(traced - np.eye(ch.in_dim)).max())
    if defect > TOL_TP:
        raise ValueError(f"map is not trace preserving (transfer defect {defect:.3e})")
    for name, stack in (("effects", effects), ("preparations", preparations)):
        stack.setflags(write=False)
        object.__setattr__(ch, name, stack)
    return ch


# The two builders below add their terms one at a time into zeros, in the
# order of the Kraus loop, so every bit of the transfer agrees with that of the
# Kraus channel sum_k K (x) conj(K) for any memory layout of their input.


def dephasing_channel(basis: np.ndarray, dims: Sequence[int] | None = None) -> GeneralLinearMap:
    """Projective dephasing onto the columns of a unitary basis matrix: the
    Holevo pairs (P_a, P_a) and the transfer sum_a P_a (x) conj(P_a) for the
    projector P_a on column a."""
    b = _unitary(basis)
    d = b.shape[0]
    sig = tuple(dims) if dims is not None else (d,)
    if math.prod(sig) != d:
        raise ValueError(f"a basis of width {d} cannot dephase registers of dims {sig}")
    proj = b.T[:, :, None] * b.T.conj()[:, None, :]  # P_a = |b_a><b_a|, in column order
    transfer = np.zeros((d, d, d, d), dtype=complex)
    for p, p_bar in zip(proj, proj.conj()):
        transfer += p[:, None, :, None] * p_bar[None, :, None, :]
    ch = GeneralLinearMap(transfer.reshape(d * d, d * d), sig, sig)
    return _trace_preserving_map(ch, proj, proj)


def replacement_channel(
    sigma: DensityOperator, in_dims: Sequence[int] | None = None
) -> GeneralLinearMap:
    """Channel sending every input to ``sigma``: the Holevo pair (I, s) and the
    transfer |vec s><vec I| for the spectral reconstruction s of sigma from
    ``_spectral_columns``, the sum of the rank-one Kraus terms."""
    in_sig = tuple(in_dims) if in_dims is not None else sigma.dims
    d_in, d = math.prod(in_sig), sigma.dim
    target = np.zeros((d, d), dtype=complex)
    for col in _spectral_columns(sigma).T:
        target += col[:, None] * col.conj()[None, :]
    transfer = np.zeros((d * d, d_in, d_in), dtype=complex)
    transfer[:, range(d_in), range(d_in)] = target.reshape(-1, 1)
    ch = GeneralLinearMap(transfer.reshape(d * d, d_in * d_in), in_sig, sigma.dims)
    return _trace_preserving_map(ch, np.eye(d_in, dtype=complex)[None], target[None])


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


def mix_maps(maps: Sequence[Channel], weights: Sequence[float]) -> GeneralLinearMap:
    """Convex (or affine) combination of linear maps with matching dims.

    A convex mixture (weights >= 0 that sum to 1 within TOL_TP) of maps that
    all carry Holevo pairs carries their weighted union (w_i E_k, s_k); any
    other mixture carries none.
    """
    if len(maps) != len(weights) or not maps:
        raise ValueError("need matching, nonempty maps and weights")
    d_in, d_out = maps[0].in_dim, maps[0].out_dim
    if any(m.in_dim != d_in or m.out_dim != d_out for m in maps):
        raise ValueError("maps must share input and output dimensions")
    transfer = sum(w * m.transfer for w, m in zip(weights, maps))
    mixed = GeneralLinearMap(transfer, maps[0].in_dims, maps[0].out_dims)
    convex = min(weights) >= 0 and abs(math.fsum(weights) - 1.0) <= TOL_TP
    if not convex or any(getattr(m, "effects", None) is None for m in maps):
        return mixed
    effects = np.concatenate([w * m.effects for w, m in zip(weights, maps)])
    return _trace_preserving_map(mixed, effects, np.concatenate([m.preparations for m in maps]))


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


def choi(ch: Channel) -> ChoiMatrix:
    """Choi matrix C = sum_ij L(|i><j|) (x) |i><j| (unnormalized, trace d),
    the reshuffle C[(a,i),(b,j)] = T[(a,b),(i,j)] of the transfer matrix."""
    d_in, d_out = ch.in_dim, ch.out_dim
    t = ch.transfer.reshape(d_out, d_out, d_in, d_in)
    return ChoiMatrix(t.transpose(0, 2, 1, 3).reshape(d_out * d_in, d_out * d_in), d_in, d_out)


def is_completely_positive(ch: Channel) -> bool:
    """True iff the Choi matrix is positive semidefinite within TOL_PSD."""
    return linalg.min_eigenvalue(choi(ch).mat) >= -linalg.TOL_PSD


@dataclass(frozen=True)
class EbVerdict:
    """Entanglement-breaking verdict; decisive=False marks necessary-only tests."""

    is_breaking: bool
    decisive: bool


CHANNEL_KINDS = ("identity", "dephasing", "replacement", "depolarizing", "amplitude_damping")


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative channel description for scenario files: kind plus params.

    Built against a concrete register signature, so the same spec can serve
    registers of different sizes where the kind allows it.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def build(self, dims: Sequence[int] | int) -> Channel:
        sig = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
        d = int(np.prod(sig))
        if self.kind == "identity":
            return identity_channel(sig)
        if self.kind == "dephasing":
            basis = self.params.get("basis")
            return dephasing_channel(np.eye(d) if basis is None else basis, dims=sig)
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


def is_entanglement_breaking(ch: Channel) -> EbVerdict:
    """Entanglement-breaking test.

    Holevo pairs, or a rank-one Kraus decomposition, decide positively in any
    dimension. Otherwise the Choi PPT test decides both ways when the Choi
    matrix lives on 2x2 or 2x3; in larger dimensions PPT is only necessary,
    so a passing PPT is reported with decisive=False while a failing PPT is
    decisive. A map with neither certificate is not known to be a channel.
    """
    if isinstance(ch, GeneralLinearMap):
        if ch.effects is None:
            raise ValueError("map is not known to be a channel: no Kraus operators or Holevo pairs")
        return EbVerdict(True, True)
    s = np.linalg.svd(np.array(ch.kraus), compute_uv=False)  # each row descends
    if s.shape[1] == 1 or (s[:, 1] <= _RANK_ONE_TOL * np.maximum(1.0, s[:, 0])).all():
        return EbVerdict(True, True)
    c = choi(ch)
    pt = linalg.partial_transpose(c.mat, (c.out_dim, c.in_dim), 1)
    ppt = linalg.min_eigenvalue(pt) >= -linalg.TOL_PSD
    if not ppt:
        return EbVerdict(False, True)
    return EbVerdict(True, sorted((c.out_dim, c.in_dim)) in ([2, 2], [2, 3]))
