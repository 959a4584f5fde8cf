"""Dense reference paths, kept as oracles for the ones qcensor runs.

The channel oracles act through the Kraus operators and the matrix units,
where qcensor acts through the transfer matrix: the Kraus sum
sum_k K X K^dag, the Choi matrix as sum_k vec(K) vec(K)^dag, and the Choi
matrix of any linear map built from its action on the matrix units. The
dephasing and replacement channels come here in Kraus form, with their own
spectral arithmetic, where qcensor builds their transfer and Holevo pairs
straight from the basis or state: the projectors onto the basis columns,
and sqrt(w_a) |v_a><i| for every kept eigenpair of the state and every
input basis vector.

The dense two-qubit discord evaluates one measurement angle at a time:
for each it builds the two measured kets, their conditional blocks and
their eigendecompositions, and it refines for a fixed number of steps.
The stepwise discord is the batched one with one refinement rung per
evaluation, the grid's angles and directions built on every call, and the
objective taking angles. Its Luo objective stacks the outcome and Bloch
rows one by one and sums two Shannon entropies, where qcensor builds the
six distributions as one array and takes one logarithm.

The dense censorship engine builds the whole Kronecker joint of the
message+system registers, lifts every link-noise Kraus operator to that
joint, and sums the censored blocks over every combination of message
outcomes with Kronecker-lifted branch Kraus operators. It builds those
branches itself, in Kraus form, from each registered description, where
qcensor builds each branch's transfer matrix alone. Its cost grows like
(m*d)^(3N) for N pairs, so use it only on joints a few hundred wide at most.

The dense verdicts judge the whole receiver: the affine tests read all of
its entries, PPT partially transposes and diagonalizes it once per cut, and
each register marginal is a partial trace of it. qcensor judges each
censored block the receiver is a product of on its own. The verdicts agree,
but a dense witness shrinks with the other blocks' entries and eigenvalues,
so the two agree on freeness only away from a theory's tolerance.

The validation oracles coerce and check a matrix at every step, as qcensor
did before each public entry coerced once: a finiteness check per part, a
re-coercion inside the Hermiticity defect, the signature checked before
squareness, and each Kraus operator coerced on its own.

The reference eigendecomposition phase-fixes one column at a time and sorts
the columns of each degenerate group lexicographically, where qcensor
phase-fixes all columns at once and keeps the eigensolver's order inside a
group.

The sampling oracles draw one state per call, judge one state per call with
each theory's witness written for one matrix, and run the channel_axioms
suite one probe at a time with a validated DensityOperator per branch
output, where qcensor draws, validates, applies and judges a whole stack of
probes at once. The unbreakable suites run one sample at a time, each
drawing, validating, censoring and judging its own joint, where qcensor
draws each sample in stream order and then builds, checks, censors and
judges the joints of a chunk of samples as one stack; the per-joint censor
is the engine's single-joint path, where qcensor censors a stack of joints
with one batched matmul per pair.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from qcensor import linalg, qrt
from qcensor.censorship import (
    Claim,
    ConditionalRDChannel,
    NetworkScenario,
    _strategy_descriptions,
    apply_censorship,
    build_conditional_channel,
    encode_description,
)
from qcensor.channels import (
    ChannelSpec,
    KrausChannel,
    amplitude_damping,
    depolarizing,
    identity_channel,
)
from qcensor.states import (
    DensityOperator,
    bell_phi_plus,
    isotropic,
    make_rng,
    maximally_mixed,
    random_density,
    random_real_density,
)
from qcensor.suites import SuiteResult, random_separable_ensemble


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


def kraus_dephasing(basis: np.ndarray, dims=None) -> KrausChannel:
    """Dephasing onto the columns of a unitary basis: the Kraus operators
    |b_a><b_a|, one per column in column order."""
    b = np.asarray(basis, dtype=complex)
    sig = tuple(dims) if dims is not None else (b.shape[0],)
    return KrausChannel(tuple(np.outer(col, col.conj()) for col in b.T), sig, sig)


def kraus_replacement(sigma: DensityOperator, in_dims=None) -> KrausChannel:
    """Replacement by sigma: the Kraus operators sqrt(w_a) |v_a><i| over the
    eigenpairs of sigma above 1e-12 (the spectrum clipped at 0 and
    renormalized), each for every input basis vector i in turn."""
    w, v = linalg.hermitian_eig(sigma.mat)
    w = np.clip(w, 0.0, None)
    keep = w > 1e-12
    cols = v[:, keep] * np.sqrt(w[keep] / w[keep].sum())
    in_sig = tuple(in_dims) if in_dims is not None else sigma.dims
    d_in = int(np.prod(in_sig))
    ops = []
    for col in cols.T:
        for i in range(d_in):
            k = np.zeros((sigma.dim, d_in), dtype=complex)
            k[:, i] = col
            ops.append(k)
    return KrausChannel(tuple(ops), in_sig, sigma.dims)


def kraus_noise(spec: ChannelSpec, sys) -> KrausChannel:
    """The link noise of a spec on registers ``sys``, in Kraus form."""
    if spec.kind == "dephasing":
        return kraus_dephasing(spec.params.get("basis", np.eye(int(np.prod(sys)))), sys)
    if spec.kind == "replacement":
        return kraus_replacement(spec.params["state"], in_dims=sys)
    return spec.build(sys)


def kraus_branches(ch: ConditionalRDChannel) -> list[KrausChannel]:
    """The branches of ``ch`` in message order, in Kraus form and built from
    its descriptions alone: each described state's replacement, or dephasing
    in its canonical eigenbasis, then the replacement by I/d."""
    sig = ch.system_dims
    if ch.kind == "replacement":
        branches = [kraus_replacement(d.state, in_dims=sig) for d in ch.descriptions]
    else:
        branches = [
            kraus_dephasing(qrt.canonical_eigenbasis(d.state.mat), dims=sig)
            for d in ch.descriptions
        ]
    return branches + [kraus_replacement(maximally_mixed(sig), in_dims=sig)]


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


def dense_apply_censorship(ch: ConditionalRDChannel, joint: DensityOperator):
    """Receiver matrix of ``apply_censorship`` by the message-combination loop."""
    message_dim = len(ch.labels) + 1
    group = 1 + len(ch.system_dims)
    n = len(joint.dims) // group
    if joint.dims != ((message_dim,) + ch.system_dims) * n:
        raise ValueError(f"joint dims {joint.dims} are not message+system pairs")
    n_factors = len(joint.dims)
    reg_dim = int(np.prod(ch.system_dims))
    total = reg_dim**n
    tensor = joint.mat.reshape(joint.dims + joint.dims)
    message_axes = [k * group for k in range(n)]
    branches = kraus_branches(ch)

    out = np.zeros((total, total), dtype=complex)
    for combo in product(range(message_dim), repeat=n):
        indexer: list = [slice(None)] * (2 * n_factors)
        for k, i in enumerate(combo):
            indexer[message_axes[k]] = i
            indexer[n_factors + message_axes[k]] = i
        block = tensor[tuple(indexer)].reshape(total, total)
        for k, i in enumerate(combo):
            block = lifted_kraus_apply(block, branches[i], k, n, reg_dim)
        out += block
    return (out + out.conj().T) / 2


def per_joint_censor(stacked: np.ndarray, mat: np.ndarray, n_pairs: int, sys) -> np.ndarray:
    """One joint censored under its stacked branch transfer (d^2, m d^2), one
    matmul per pair: the Hermitized receiver matrix."""
    d = int(np.prod(sys))
    m = stacked.shape[1] // (d * d)
    # pair k: message 3k, system row 3k+1, system column 3k+2
    rows = [j for k in range(n_pairs) for j in (3 * k, 3 * k + 1)]
    cols = [j for k in range(n_pairs) for j in (3 * k, 3 * k + 2)]
    x = np.einsum(mat.reshape((m, d) * 2 * n_pairs), rows + cols, list(range(3 * n_pairs)))
    for _ in range(n_pairs):
        # consume the leading pair; its output moves last
        x = (stacked @ x.reshape(m * d * d, -1)).T
    width = d**n_pairs
    order = list(range(0, 2 * n_pairs, 2)) + list(range(1, 2 * n_pairs, 2))
    out = x.reshape((d, d) * n_pairs).transpose(order).reshape(width, width)
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
        noise_ch = kraus_noise(scenario.noise, channel.system_dims)
        joint = apply_link_noise(joint, noise_ch, n_senders, channel.message_dim)
        distances = []
        branches = kraus_branches(channel)
        sender_pos = 0
        for st, descs in zip(scenario.strategies, per_strategy):
            if st.kind == "honest":
                sent = st.state if st.state is not None else descs[0].state
                noisy = kraus_apply(noise_ch.kraus, sent.mat)
                branch = branches[channel.labels.index(descs[0].label)]
                censored = kraus_apply(branch.kraus, noisy)
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


def luo_conditional_entropies(coords: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Luo's conditional entropies along the unit vectors n, shape (3, k):
    the entropy of the four block eigenvalues (1 +- a.n +- |b +- T^T n|)/4
    minus that of the two outcomes (1 +- a.n)/2, for the Pauli coordinates
    of ``qrt._pauli_coordinates``."""
    an = coords[1:, 0] @ n
    tn = coords[1:, 1:].T @ n
    b = coords[0, 1:, None]
    outcome = np.stack((1 + an, 1 - an))
    bloch = np.sqrt(np.stack((((b + tn) ** 2).sum(0), ((b - tn) ** 2).sum(0))))
    eigs = np.concatenate((outcome + bloch, outcome - bloch)) / 4
    return qrt._shannon(eigs) - qrt._shannon(outcome / 2)


def _stepwise_conditional_entropies(
    coords: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    # the stepwise objective takes angles, not unit vectors
    n = np.stack((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)))
    return luo_conditional_entropies(coords, n)


def stepwise_discord(
    rho: DensityOperator,
    measured_side: str = "X",
    opt: qrt.DiscordOptions | None = None,
) -> float:
    """The batched discord with one rung per evaluation: the grid's angles
    built on every call, then one 4-point evaluation per refinement step,
    moving to the best improving neighbour or halving the step."""
    opt = opt or qrt.DiscordOptions()
    coords = qrt._pauli_coordinates(rho.mat)
    if measured_side == "Y":
        coords = coords.T

    a = float(np.linalg.norm(coords[1:, 0]))
    s_measured = qrt._shannon(np.array([1 + a, 1 - a]) / 2)
    s_joint = qrt._shannon(np.linalg.eigvalsh(rho.mat))

    g = opt.grid_points
    thetas = np.repeat(np.linspace(0.0, np.pi, g), g)
    phis = np.tile(np.linspace(0.0, 2 * np.pi, g, endpoint=False), g)
    grid = _stepwise_conditional_entropies(coords, thetas, phis)
    k = int(np.argmin(grid))
    best, angles = grid[k], np.array([thetas[k], phis[k]])

    step = np.array([np.pi, 2 * np.pi]) / max(g, 1)
    moves = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    for _ in range(opt.refine_iters):
        if step[0] < qrt.DISCORD_MIN_STEP:
            break
        trial = angles + moves * step
        vals = _stepwise_conditional_entropies(coords, trial[:, 0], trial[:, 1])
        j = int(np.argmin(vals))
        if vals[j] < best - 1e-15:
            best, angles = vals[j], trial[j]
        else:
            step = step / 2

    return max(float(s_measured - s_joint + best), 0.0)


def dense_ppt_all_cuts(rho: DensityOperator) -> qrt.ResourceVerdict:
    """PPT across every nontrivial bipartition, one dense transpose per cut."""
    n = len(rho.dims)
    if n < 2:
        raise ValueError("need at least two factors")
    worst: qrt.ResourceVerdict | None = None
    all_decisive = True
    for r in range(1, n // 2 + 1):
        for side in combinations(range(n), r):
            if r == n / 2 and side[0] != 0:
                continue  # complements give the same transpose spectrum
            v = qrt.is_free_entanglement(rho, side)
            if not v.is_free:
                return qrt.ResourceVerdict(False, v.witness_value, True)
            all_decisive = all_decisive and v.decisive
            if worst is None or v.witness_value < worst.witness_value:
                worst = v
    assert worst is not None
    return qrt.ResourceVerdict(True, worst.witness_value, all_decisive)


def dense_register_marginals(receiver: DensityOperator, n_registers: int) -> list[DensityOperator]:
    group = len(receiver.dims) // n_registers
    return [receiver.marginal(range(k * group, (k + 1) * group)) for k in range(n_registers)]


def dense_judge(theory: str, receiver: DensityOperator, n_registers: int):
    """(verdicts, notes) of the dense receiver, in the units of
    ``qrt.THEORIES[theory].judge``: the affine tests and PPT on the whole
    receiver, discord and locality on each of its register marginals."""
    if theory in ("coherence", "imaginarity"):
        return {theory: qrt.THEORIES[theory].free(receiver)}, ()
    if theory == "entanglement":
        return {"entanglement": dense_ppt_all_cuts(receiver)}, ()
    marginals = dense_register_marginals(receiver, n_registers)
    if theory == "discord":
        checks = [qrt.is_classical_quantum(m) for m in marginals]
        witnesses = [
            qrt.discord(m) if m.dims == (2, 2) else c.witness_value
            for m, c in zip(marginals, checks)
        ]
        verdict = qrt.ResourceVerdict(all(c.is_free for c in checks), max(witnesses))
        if n_registers == 1:
            return {"discord": verdict}, ()
        return {"discord": verdict}, ("multi-sender discord verdict checks each receiver marginal",)
    if theory != "locality":
        raise ValueError(f"no dense judge for {theory!r}")
    notes: list[str] = []
    worst_m = 0.0
    lower, upper = (float(x) for x in qrt.isotropic_local_range(2))
    for k, marg in enumerate(marginals):
        if marg.dims != (2, 2):
            raise ValueError("locality verdicts support two-qubit registers only")
        worst_m = max(worst_m, qrt.chsh_parameter(marg))
        d = marg.dims[0]
        overlap = float(np.trace(marg.mat @ bell_phi_plus(d).mat).real)
        if lower - 1e-9 <= (d * d * overlap - 1.0) / (d * d - 1.0) <= upper + 1e-9:
            notes.append(
                f"activation risk: receiver marginal {k} sits in the entangled-but-"
                f"local window ({lower:.6f}, {upper:.6f}]; "
                "copies of it can exhibit nonlocality jointly"
            )
    violated = worst_m > 1.0 + qrt.TOL_CHSH
    verdicts = {
        "locality": qrt.ResourceVerdict(not violated, worst_m, decisive=violated),
        "entanglement": dense_ppt_all_cuts(receiver),
    }
    notes.append("locality breach determination is limited to per-pair CHSH")
    return verdicts, tuple(notes)


def reference_as_complex_matrix(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def _reference_nonempty(arr: np.ndarray) -> None:
    if arr.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {arr.shape}")


def reference_hermiticity_defect(mat) -> float:
    arr = reference_as_complex_matrix(mat)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    _reference_nonempty(arr)
    return float(np.abs(arr - arr.conj().T).max())


def reference_validate(mat) -> tuple[float, float, float]:
    """(hermiticity defect, minimum eigenvalue, trace deviation)."""
    arr = reference_as_complex_matrix(mat)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got {arr.shape}")
    _reference_nonempty(arr)
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


def _reference_phase_fix(col: np.ndarray) -> np.ndarray:
    mags = np.abs(col)
    pivot = int(np.argmax(mags >= mags.max() - 1e-10))
    if mags[pivot] == 0.0:
        return col
    return col * (col[pivot].conjugate() / mags[pivot])


def _reference_lex_key(col: np.ndarray) -> tuple:
    return tuple((round(float(x.real), 12), round(float(x.imag), 12)) for x in col)


def reference_hermitian_eig(mat) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and phase-fixed eigenvectors, each degenerate
    group's columns in lexicographic order."""
    arr = reference_as_complex_matrix(mat)
    if reference_hermiticity_defect(arr) > linalg.TOL_HERM:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((arr + arr.conj().T) / 2)
    order = np.argsort(-w, kind="stable")
    w = w[order].real
    v = v[:, order]
    for j in range(v.shape[1]):
        v[:, j] = _reference_phase_fix(v[:, j])
    tie = 1e-10 * max(1.0, float(np.abs(w).max()))
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and w[start] - w[stop] <= tie:
            stop += 1
        if stop - start > 1:
            cols = sorted(range(start, stop), key=lambda j: _reference_lex_key(v[:, j]))
            v[:, start:stop] = v[:, cols]
        start = stop
    return w, v


# ------------------------------------------------------------ sampling


def reference_standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.concatenate([radius * np.cos(2 * np.pi * u2), radius * np.sin(2 * np.pi * u2)])
    return z[:n]


def reference_complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    re = reference_standard_normals(rng, n)
    im = reference_standard_normals(rng, n)
    return re + 1j * im


def reference_random_density(dim: int, rank: int, rng: np.random.Generator, real: bool = False):
    """One Ginibre state G G^dag / Tr(G G^dag), G real when ``real``."""
    if real:
        g = reference_standard_normals(rng, dim * rank).reshape(dim, rank)
        mat = (g @ g.T).astype(complex)
    else:
        g = reference_complex_normals(rng, dim * rank).reshape(dim, rank)
        mat = g @ g.conj().T
    mat /= mat.trace().real
    return DensityOperator(mat, (dim,))


def reference_excess(theory: str, rho: DensityOperator) -> float:
    """How far one state lies outside a theory's free set, from the witness
    of its free-state test."""
    if theory == "coherence":
        return float(np.abs(rho.mat - np.diag(np.diag(rho.mat))).max())
    if theory == "imaginarity":
        return float(np.abs(rho.mat.imag).max())
    if theory == "entanglement":
        return -min(0.0, dense_ppt_all_cuts(rho).witness_value)
    if theory == "discord":
        d0, d1 = rho.dims
        tensor = rho.mat.reshape(d0, d1, d0, d1)
        blocks = [tensor[:, i, :, j] for i in range(d1) for j in range(d1)]
        witness = 0.0
        for a in range(len(blocks)):
            for b in range(a, len(blocks)):
                comm = blocks[a] @ blocks[b] - blocks[b] @ blocks[a]
                witness = max(witness, float(np.abs(comm).max()))
        return witness
    if theory == "locality":
        coords = np.einsum("ikjl,aji,blk->ab", rho.mat.reshape(2, 2, 2, 2), qrt.PAULIS, qrt.PAULIS)
        t = coords.real[1:, 1:]
        w = np.linalg.eigvalsh(t.T @ t)
        return max(0.0, float(w[-1] + w[-2]) - 1.0)
    raise ValueError(f"no reference excess for {theory!r}")


def reference_channel_axioms(samples: int, seed: int) -> tuple[bool, dict, list]:
    """(passed, max_defects, failures) of the channel_axioms suite, one probe
    at a time."""
    rng = make_rng(seed)
    passed, defects, failures = True, {}, []

    def record(key: str, value: float, bound: float) -> None:
        nonlocal passed
        defects[key] = max(defects.get(key, 0.0), value)
        if value > bound:
            passed = False
            msg = f"{key}: defect {value:.3e} exceeds bound {bound:.1e}"
            if msg not in failures:
                failures.append(msg)

    ginibre = (reference_random_density(2, 2, rng).mat * 2).astype(complex)
    basis, _ = np.linalg.qr(ginibre + np.eye(2))
    plain = [
        identity_channel(2),
        kraus_dephasing(basis),
        kraus_replacement(reference_random_density(2, 2, rng)),
        depolarizing(2, 0.3),
        amplitude_damping(0.5),
    ]
    for ch in plain:
        for _ in range(max(samples // 10, 5)):
            probe = reference_random_density(ch.in_dim, ch.in_dim, rng)
            out = ch.apply_matrix(probe.mat)
            record("trace_preservation", abs(float(out.trace().real) - 1.0), 1e-10)

    deph = kraus_dephasing(basis)
    for _ in range(max(samples // 10, 5)):
        probe = reference_random_density(2, 2, rng)
        once = deph.apply_matrix(probe.mat)
        twice = deph.apply_matrix(once)
        record("dephasing_idempotence", float(np.abs(twice - once).max()), 1e-10)

    repl = kraus_replacement(reference_random_density(2, 2, rng))
    for _ in range(max(samples // 10, 5)):
        a = repl.apply_matrix(reference_random_density(2, 2, rng).mat)
        b = repl.apply_matrix(reference_random_density(2, 2, rng).mat)
        record("replacement_input_independence", float(np.abs(a - b).max()), 1e-10)

    def separable_ensemble():
        weights = -np.log1p(-rng.random(2))
        weights /= weights.sum()
        return [(float(w), tuple(pure_vector() for _ in range(2))) for w in weights]

    def pure_vector():
        vec = reference_complex_normals(rng, 2)
        return vec / np.linalg.norm(vec)

    claims = {
        "coherence": [Claim(DensityOperator(np.diag([0.25, 0.75]).astype(complex), (2,)))],
        "imaginarity": [Claim(reference_random_density(2, 2, rng, real=True)) for _ in range(2)],
        "entanglement": [Claim(ensemble=separable_ensemble())],
        "discord": [Claim(maximally_mixed((2, 2)))],
        "locality": [Claim(isotropic(2, 5 / 12))],
    }
    for theory, theory_claims in claims.items():
        descs = [encode_description(theory, c.state, c.ensemble) for c in theory_claims]
        kind = "replacement" if descs[0].basis is None else "eigen_dephasing"
        ch = build_conditional_channel(theory, kind, descs)
        for branch in ch.branches:
            probe = reference_random_density(branch.in_dim, branch.in_dim, rng)
            out = branch.apply_matrix(probe.mat)
            record("trace_preservation", abs(float(out.trace().real) - 1.0), 1e-10)
        dims = ch.system_dims
        dim = int(np.prod(dims))
        free_defect = 0.0
        for _ in range(samples):
            probe = DensityOperator(reference_random_density(dim, dim, rng).mat, dims)
            for branch in ch.branches:
                out = DensityOperator(branch.apply_matrix(probe.mat), dims)
                free_defect = max(free_defect, reference_excess(theory, out))
        fixed_defect = 0.0
        for desc, branch in zip(ch.descriptions, ch.branches):
            out = branch.apply_matrix(desc.state.mat)
            fixed_defect = max(fixed_defect, float(np.abs(out - desc.state.mat).max()))
        record(f"condition_v_{theory}", free_defect, 1e-9)
        record(f"condition_vi_{theory}", fixed_defect, 1e-9)
    return passed, defects, failures


# The unbreakable suites one sample at a time: each sample draws its claims
# one state at a time, and draws, validates, censors and judges its own joint.


def per_sample_affine_unbreakable(samples: int, seed: int) -> SuiteResult:
    """Random two-sender joint states against eigenbasis-dephasing branches
    built from random real states; every receiver state must stay real."""
    rng = make_rng(seed)
    result = SuiteResult("affine_unbreakable", True, samples, seed)
    for _ in range(samples):
        descs = [encode_description("imaginarity", random_real_density(2, 2, rng)) for _ in range(2)]
        ch = build_conditional_channel("imaginarity", "eigen_dephasing", descs)
        m = ch.message_dim
        dim = (m * 2) ** 2
        joint = random_density(dim, dim, rng, dims=(m, 2, m, 2))
        receiver = apply_censorship(ch, joint)
        result.record("receiver_max_imag", float(np.abs(receiver.mat.imag).max()), 1e-9)
        result.record("trace_defect", abs(float(receiver.mat.trace().real) - 1.0), 1e-10)
    return result


def per_sample_convex_unbreakable(samples: int, seed: int) -> SuiteResult:
    """Random two-sender joint states against replacement branches built from
    random separable two-qubit states.

    The receiver must match the convex mixture reconstructed independently
    from the message-diagonal block weights, and must be PPT across every
    bipartition of the four qubits.
    """
    rng = make_rng(seed)
    result = SuiteResult("convex_unbreakable", True, samples, seed)
    mixed = maximally_mixed((2, 2))
    for _ in range(samples):
        ensembles = [random_separable_ensemble(rng) for _ in range(2)]
        descs = [encode_description("entanglement", ensemble=e) for e in ensembles]
        ch = build_conditional_channel("entanglement", "replacement", descs)
        m = ch.message_dim
        dim = (m * 4) ** 2
        joint = random_density(dim, dim, rng, dims=(m, 2, 2, m, 2, 2))
        receiver = apply_censorship(ch, joint)
        # independent reconstruction from the diagonal message blocks
        tensor = joint.mat.reshape(joint.dims + joint.dims)
        weights = np.einsum(tensor, [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5], [0, 3]).real
        # each registered description replaces its system; the reserved index gives I/4
        targets = [d.state for d in ch.descriptions] + [mixed]
        expected = np.zeros((16, 16), dtype=complex)
        for i in range(m):
            for j in range(m):
                expected += weights[i, j] * np.kron(targets[i].mat, targets[j].mat)
        result.record("mixture_reconstruction", float(np.abs(receiver.mat - expected).max()), 1e-9)
        ppt = qrt.ppt_all_cuts(receiver).witness_value
        result.record("ppt_negativity", -min(0.0, ppt), 1e-9)
    return result
