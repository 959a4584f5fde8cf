"""Dense reference paths, kept as oracles for the ones qcensor runs.

The channel oracles act through the Kraus operators and the matrix units,
where qcensor acts through the transfer matrix: the Kraus sum
sum_k K X K^dag, the Choi matrix as sum_k vec(K) vec(K)^dag, and the Choi
matrix of any linear map built from its action on the matrix units.

The dense two-qubit discord evaluates one measurement angle at a time:
for each it builds the two measured kets, their conditional blocks and
their eigendecompositions, and it refines for a fixed number of steps.

The dense censorship engine builds the whole Kronecker joint of the
message+system registers, lifts every link-noise Kraus operator to that
joint, and sums the censored blocks over every combination of message
outcomes with Kronecker-lifted branch Kraus operators. Its cost grows like
(m*d)^(3N) for N pairs, so use it only on joints a few hundred wide at most.

The validation oracles coerce and check a matrix at every step, as qcensor
did before each public entry coerced once: a finiteness check per part, a
re-coercion inside the Hermiticity defect, the signature checked before
squareness, and each Kraus operator coerced on its own.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from qcensor import linalg
from qcensor.censorship import (
    ConditionalRDChannel,
    NetworkScenario,
    _strategy_descriptions,
    _validate_joint_layout,
    build_conditional_channel,
)
from qcensor.channels import KrausChannel
from qcensor.states import DensityOperator


def kraus_apply(kraus, mat: np.ndarray) -> np.ndarray:
    """sum_k K X K^dag."""
    d_out = kraus[0].shape[0]
    out = np.zeros((d_out, d_out), dtype=complex)
    for k in kraus:
        out += k @ mat @ k.conj().T
    return out


def kraus_choi(kraus) -> np.ndarray:
    """sum_k vec(K) vec(K)^dag; the row-major vec(K) is (K (x) I)|Omega>."""
    d_out, d_in = kraus[0].shape
    mat = np.zeros((d_in * d_out,) * 2, dtype=complex)
    for k in kraus:
        w = k.reshape(-1)
        mat += np.outer(w, w.conj())
    return mat


def map_choi(fn, d_in: int, d_out: int) -> np.ndarray:
    """sum_ij L(|i><j|) (x) |i><j| for the linear map L = fn."""
    mat = np.zeros((d_in * d_out,) * 2, dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, j] = 1.0
            mat += np.kron(fn(unit), unit)
    return mat


def lifted_kraus_apply(
    mat: np.ndarray, branch: KrausChannel, position: int, n_regs: int, reg_dim: int
) -> np.ndarray:
    left = np.eye(reg_dim**position, dtype=complex)
    right = np.eye(reg_dim ** (n_regs - 1 - position), dtype=complex)
    out = np.zeros_like(mat)
    for k in branch.kraus:
        lifted = np.kron(np.kron(left, k), right)
        out += lifted @ mat @ lifted.conj().T
    return out


def dense_apply_censorship(ch: ConditionalRDChannel, joint: DensityOperator, labels=None):
    """Receiver matrix of ``apply_censorship`` by the message-combination loop."""
    label_basis = tuple(labels) if labels is not None else ch.labels
    message_dim = len(label_basis) + 1
    n = _validate_joint_layout(joint, message_dim, ch.system_dims)
    group = 1 + len(ch.system_dims)
    n_factors = len(joint.dims)
    reg_dim = int(np.prod(ch.system_dims))
    total = reg_dim**n
    tensor = joint.mat.reshape(joint.dims + joint.dims)
    message_axes = [k * group for k in range(n)]

    def branch_for(index: int) -> KrausChannel:
        if 0 <= index < len(label_basis):
            return ch.branch_for_label(label_basis[index])
        return ch.default_branch

    out = np.zeros((total, total), dtype=complex)
    for combo in product(range(message_dim), repeat=n):
        indexer: list = [slice(None)] * (2 * n_factors)
        for k, i in enumerate(combo):
            indexer[message_axes[k]] = i
            indexer[n_factors + message_axes[k]] = i
        block = tensor[tuple(indexer)].reshape(total, total)
        for k, i in enumerate(combo):
            block = lifted_kraus_apply(block, branch_for(i), k, n, reg_dim)
        out += block
    return (out + out.conj().T) / 2


def assemble_joint(scenario: NetworkScenario, per_strategy, channel: ConditionalRDChannel):
    mdim = channel.message_dim
    sys = channel.system_dims
    parts: list[np.ndarray] = []
    dims: tuple[int, ...] = ()
    n_senders = 0
    for st, descs in zip(scenario.strategies, per_strategy):
        if st.kind in ("honest", "untruthful"):
            sent = st.state if st.state is not None else descs[0].state
            proj = np.zeros((mdim, mdim), dtype=complex)
            idx = channel.labels.index(descs[0].label)
            proj[idx, idx] = 1.0
            parts.append(np.kron(proj, sent.mat))
            dims = dims + (mdim,) + sys
            n_senders += 1
        else:
            parts.append(st.state.mat)
            dims = dims + ((mdim,) + sys) * st.spans
            n_senders += st.spans
    return DensityOperator(linalg.kron_all(parts), dims), n_senders


def apply_link_noise(
    joint: DensityOperator, noise: KrausChannel, n_senders: int, message_dim: int
) -> DensityOperator:
    reg_dim = noise.in_dim
    mat = joint.mat
    block = message_dim * reg_dim
    for k in range(n_senders):
        left = np.eye(block**k, dtype=complex)
        right = np.eye(block ** (n_senders - 1 - k), dtype=complex)
        out = np.zeros_like(mat)
        for op in noise.kraus:
            lifted = np.kron(np.kron(left, np.kron(np.eye(message_dim, dtype=complex), op)), right)
            out += lifted @ mat @ lifted.conj().T
        mat = out
    return DensityOperator((mat + mat.conj().T) / 2, joint.dims)


def dense_run_protocol(scenario: NetworkScenario) -> tuple[np.ndarray, list[dict] | None]:
    """Receiver matrix and link-noise distances of ``run_protocol``."""
    per_strategy = _strategy_descriptions(scenario)
    all_descs = [d for group in per_strategy for d in group]
    channel = build_conditional_channel(scenario.theory, scenario.channel_kind, all_descs)
    joint, n_senders = assemble_joint(scenario, per_strategy, channel)
    distances = None
    if scenario.noise is not None:
        noise_ch = scenario.noise.build(channel.system_dims)
        joint = apply_link_noise(joint, noise_ch, n_senders, channel.message_dim)
        distances = []
        sender_pos = 0
        for st, descs in zip(scenario.strategies, per_strategy):
            if st.kind == "honest":
                sent = st.state if st.state is not None else descs[0].state
                noisy = kraus_apply(noise_ch.kraus, sent.mat)
                censored = kraus_apply(channel.branch_for_label(descs[0].label).kraus, noisy)
                distances.append(
                    {
                        "sender": sender_pos,
                        "d_noisy": linalg.hs_distance(sent.mat, noisy),
                        "d_censored": linalg.hs_distance(sent.mat, censored),
                    }
                )
            sender_pos += st.spans if st.kind == "correlated" else 1
    return dense_apply_censorship(channel, joint), distances


def _entropy_psd(mat: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    nz = w[w > 0]
    return float(-(nz * np.log(nz)).sum()) if nz.size else 0.0


def _measured_conditional_entropy(tensor: np.ndarray, theta: float, phi: float) -> float:
    # projective measurement on factor 0 along the Bloch angles (theta, phi)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    kets = (
        np.array([c, np.exp(1j * phi) * s], dtype=complex),
        np.array([-np.exp(-1j * phi) * s, c], dtype=complex),
    )
    total = 0.0
    for ket in kets:
        block = np.einsum("i,ikjl,j->kl", ket.conj(), tensor, ket)
        p = float(block.trace().real)
        if p > 1e-12:
            total += p * _entropy_psd(block / p)
    return total


def dense_discord(
    rho: DensityOperator, measured_side: str = "X", grid_points: int = 60, refine_iters: int = 50
) -> float:
    """Two-qubit discord point by point: one ket pair, two blocks and two
    eigendecompositions per angle, then a fixed number of coordinate steps."""
    mat = rho.mat
    if measured_side == "Y":
        mat = mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    tensor = mat.reshape(2, 2, 2, 2)
    s_measured = _entropy_psd(linalg.partial_trace(mat, (2, 2), [0]))
    s_joint = _entropy_psd(mat)

    best, best_t, best_p = np.inf, 0.0, 0.0
    for t in np.linspace(0.0, np.pi, grid_points):
        for p in np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False):
            val = _measured_conditional_entropy(tensor, t, p)
            if val < best:
                best, best_t, best_p = val, t, p

    step_t = np.pi / max(grid_points, 1)
    step_p = 2 * np.pi / max(grid_points, 1)
    for _ in range(refine_iters):
        improved = False
        for dt, dp in ((step_t, 0.0), (-step_t, 0.0), (0.0, step_p), (0.0, -step_p)):
            val = _measured_conditional_entropy(tensor, best_t + dt, best_p + dp)
            if val < best - 1e-15:
                best, best_t, best_p = val, best_t + dt, best_p + dp
                improved = True
        if not improved:
            step_t /= 2
            step_p /= 2
    return max(s_measured - s_joint + best, 0.0)


def reference_as_complex_matrix(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def reference_hermiticity_defect(mat) -> float:
    arr = reference_as_complex_matrix(mat)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return float(np.abs(arr - arr.conj().T).max())


def reference_validate(mat) -> tuple[float, float, float]:
    """(hermiticity defect, minimum eigenvalue, trace deviation)."""
    arr = reference_as_complex_matrix(mat)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")
    defect = reference_hermiticity_defect(arr)
    w = np.linalg.eigvalsh((arr + arr.conj().T) / 2)
    return defect, float(w.min()), abs(complex(arr.trace()) - 1.0)


def reference_check_signature(dims, matrix_dim: int) -> tuple[int, ...]:
    sig = tuple(int(d) for d in dims)
    if not sig:
        raise ValueError("dimension signature must not be empty")
    if any(d < 2 for d in sig):
        raise ValueError(f"subsystem dimensions must be >= 2, got {sig}")
    if int(np.prod(sig)) != matrix_dim:
        raise ValueError(f"signature {sig} does not match matrix dimension {matrix_dim}")
    return sig


def reference_density_operator(mat, dims) -> tuple[np.ndarray, tuple[int, ...]]:
    """The stored matrix and signature of ``DensityOperator(mat, dims)``."""
    arr = reference_as_complex_matrix(mat)
    sig = reference_check_signature(dims, arr.shape[0])
    defect, low, dev = reference_validate(arr)
    if not (defect <= linalg.TOL_HERM and low >= -linalg.TOL_PSD and dev <= 1e-9):
        raise ValueError(
            "invalid density operator: "
            f"hermiticity defect {defect:.3e}, min eigenvalue {low:.3e}, trace deviation {dev:.3e}"
        )
    return arr.copy(), sig


def reference_kraus_transfer(kraus, in_dims, out_dims) -> np.ndarray:
    """The transfer matrix ``KrausChannel(kraus, in_dims, out_dims)`` builds."""
    ops = tuple(reference_as_complex_matrix(k) for k in kraus)
    if not ops:
        raise ValueError("a channel needs at least one Kraus operator")
    d_in = int(np.prod(in_dims))
    d_out = int(np.prod(out_dims))
    for k in ops:
        if k.shape != (d_out, d_in):
            raise ValueError(f"Kraus operator shape {k.shape} != ({d_out}, {d_in})")
    total = sum(k.conj().T @ k for k in ops)
    defect = float(np.abs(total - np.eye(d_in)).max())
    if defect > 1e-9:
        raise ValueError(f"Kraus operators are not trace preserving (defect {defect:.3e})")
    transfer = np.zeros((d_out, d_out, d_in, d_in), dtype=complex)
    for k in ops:
        transfer += k[:, None, :, None] * k.conj()[None, :, None, :]
    reference_check_signature(in_dims, d_in)
    reference_check_signature(out_dims, d_out)
    return transfer.reshape(d_out * d_out, d_in * d_in)
