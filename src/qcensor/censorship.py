"""Description encoding, conditional resource-destroying channels, and the
N-party censorship protocol with honest and adversarial sender strategies.

A description is a canonical, quantized classical encoding of a free state.
Its label is the projective-measurement outcome carried by a message
register; states sharing an encoding equivalence class share a label. The
conditional channel reads each message register destructively (cross-label
coherences are discarded) and applies the per-label branch to the paired
system register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import linalg, qrt
from .channels import (
    ChannelSpec,
    GeneralLinearMap,
    KrausChannel,
    apply,
    dephasing_channel,
    replacement_channel,
)
from .linalg import DimSignature
from .states import RNG_ALGORITHMS, DensityOperator, bell_phi_plus, maximally_mixed

LABEL_DECIMALS = 9
TOL_FIXED_POINT = 1e-9
TOL_CLAIM_MATCH = 1e-8
# Widest receiver state run_protocol builds; wider scenarios exit 2 up front.
MAX_RECEIVER_DIM = 1024


class ScenarioError(ValueError):
    """Malformed scenario input (distinct from runtime failures)."""


def _quantize(x: float) -> float:
    q = round(float(x), LABEL_DECIMALS)
    return 0.0 if q == 0 else q


def _fmt(x: float) -> str:
    return format(_quantize(x), f".{LABEL_DECIMALS}f")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(vec)))
    mag = abs(vec[pivot])
    if mag == 0.0:
        return vec
    return vec * (vec[pivot].conjugate() / mag)


@dataclass(frozen=True, eq=False)
class Description:
    """Classical message identifying a free state up to its encoding class."""

    theory: str
    payload: tuple
    label: bytes
    state: DensityOperator


def _encode_coherence(sigma: DensityOperator, tol: float) -> Description:
    verdict = qrt.is_free_coherence(sigma, tol)
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


def _encode_imaginarity(sigma: DensityOperator, tol: float) -> Description:
    verdict = qrt.is_free_imaginarity(sigma, tol)
    if not verdict.is_free:
        raise ValueError(f"state is not real (max imaginary entry {verdict.witness_value:.3e})")
    real_mat = sigma.mat.real.astype(complex)
    _, vecs = linalg.hermitian_eig(real_mat)
    if float(np.abs(vecs.imag).max()) > 1e-8:
        raise ValueError("eigenbasis of a real state failed to canonicalize to real vectors")
    basis = vecs.real
    # Order columns by the vectors themselves, not by eigenvalue, so that
    # commuting states (same eigenvectors, any spectra) share a label.
    order = sorted(range(basis.shape[1]), key=lambda j: tuple(basis[:, j].round(12)))
    basis = basis[:, order]
    payload = tuple(tuple(_quantize(x) for x in basis[:, j]) for j in range(basis.shape[1]))
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
        vecs = []
        for f in factors:
            vec = np.asarray(f, dtype=complex).reshape(-1)
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > 1e-6:
                raise ValueError("ensemble amplitudes are not normalized")
            vecs.append(_canonical_phase(vec / norm))
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
    sigma: DensityOperator | None, ensemble: Sequence | None, tol: float
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
    sanity = qrt.ppt_all_cuts(state, tol)
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


def _encode_full_matrix(theory: str, sigma: DensityOperator, tol: float) -> Description:
    if theory == "discord":
        verdict = qrt.is_classical_quantum(sigma, classical_side=0, tol=max(tol, qrt.TOL_CQ))
        if not verdict.is_free:
            raise ValueError(
                f"state is not classical-quantum (commutator defect {verdict.witness_value:.3e})"
            )
    elif theory == "locality":
        m = qrt.chsh_parameter(sigma)
        if m > 1.0 + qrt.TOL_CHSH:
            raise ValueError(f"state violates the CHSH bound (M = {m:.6f} > 1)")
    body = ";".join(
        ",".join(_fmt_complex(z) for z in sigma.mat[i]) for i in range(sigma.dim)
    )
    payload = tuple(
        tuple((_quantize(z.real), _quantize(z.imag)) for z in sigma.mat[i])
        for i in range(sigma.dim)
    )
    label = f"{theory}|matrix|{body}".encode()
    return Description(theory, payload, label, sigma)


def encode_description(
    theory: str,
    sigma: DensityOperator | None = None,
    ensemble: Sequence | None = None,
    tol: float = qrt.TOL_DIAG,
) -> Description:
    """Canonical description of a free state; raises on resource states.

    Entanglement requires the separable ensemble (weights plus product
    amplitudes) explicitly; other theories take the state itself.
    """
    qrt.get_theory(theory)
    if theory == "entanglement":
        return _encode_entanglement(sigma, ensemble, qrt.TOL_PPT)
    if sigma is None:
        raise ValueError(f"theory {theory!r} requires the state to describe")
    if theory == "coherence":
        return _encode_coherence(sigma, tol)
    if theory == "imaginarity":
        return _encode_imaginarity(sigma, tol)
    return _encode_full_matrix(theory, sigma, tol)


@dataclass(frozen=True, eq=False)
class ConditionalRDChannel:
    """Per-label branch channels plus a default branch for unknown labels.

    The message basis is the registration order of the labels, with one
    extra reserved index for anything unrecognized.
    """

    theory: str
    kind: str
    labels: tuple[bytes, ...]
    descriptions: tuple[Description, ...]
    branches: dict[bytes, KrausChannel]
    default_branch: KrausChannel
    system_dims: DimSignature

    @property
    def message_dim(self) -> int:
        return len(self.labels) + 1

    def branch_for_label(self, label: bytes) -> KrausChannel:
        return self.branches.get(label, self.default_branch)

    def branch_for_index(self, index: int) -> KrausChannel:
        if 0 <= index < len(self.labels):
            return self.branches[self.labels[index]]
        return self.default_branch

    def target_for_index(self, index: int) -> DensityOperator:
        """Replacement target of branch ``index`` (meaningful for kind='replacement')."""
        if 0 <= index < len(self.labels):
            return self.descriptions[index].state
        return maximally_mixed(self.system_dims)


_EIGEN_DEPHASING_THEORIES = ("coherence", "imaginarity")


def _eigen_dephasing_branch(desc: Description, system_dims: DimSignature) -> KrausChannel:
    _, basis = linalg.hermitian_eig(desc.state.mat)
    return dephasing_channel(basis, dims=system_dims)


def build_conditional_channel(
    theory: str,
    kind: str,
    descriptions: Iterable[Description],
    system_dims: Sequence[int] | None = None,
) -> ConditionalRDChannel:
    """Assemble the conditional channel from registered descriptions.

    kind="replacement" works for every theory; kind="eigen_dephasing" only
    for theories whose free states have free eigenvectors (coherence,
    imaginarity). A separable state can have entangled eigenvectors, so the
    eigenbasis dephasing is rejected for entanglement (and likewise for
    discord and locality).
    """
    qrt.get_theory(theory)
    if kind not in ("replacement", "eigen_dephasing"):
        raise ValueError(f"unknown channel kind {kind!r}")
    if kind == "eigen_dephasing" and theory not in _EIGEN_DEPHASING_THEORIES:
        raise ValueError(
            f"eigen_dephasing is not resource destroying for {theory}: free states of "
            "this theory can have non-free eigenvectors (e.g. a separable state with "
            "an entangled eigenvector), so the dephasing branch would let them "
            "through; use kind='replacement'"
        )
    descs = list(descriptions)
    if not descs:
        raise ValueError("need at least one description")
    for d in descs:
        if d.theory != theory:
            raise ValueError(f"description theory {d.theory!r} does not match {theory!r}")
    sig = tuple(system_dims) if system_dims is not None else descs[0].state.dims
    labels: list[bytes] = []
    registered: dict[bytes, Description] = {}
    for d in descs:
        if d.state.dims != sig:
            raise ValueError("description register dimensions are inconsistent")
        if d.label in registered:
            prior = registered[d.label]
            if (
                kind == "replacement"
                and linalg.hs_distance(prior.state.mat, d.state.mat) > TOL_CLAIM_MATCH
            ):
                raise ValueError(
                    "label collision: two distinct states map to the same description "
                    "label, which a replacement branch cannot serve"
                )
            continue
        registered[d.label] = d
        labels.append(d.label)
    branches: dict[bytes, KrausChannel] = {}
    for label in labels:
        d = registered[label]
        if kind == "replacement":
            branches[label] = replacement_channel(d.state, in_dims=sig)
        else:
            branches[label] = _eigen_dephasing_branch(d, sig)
    default = replacement_channel(maximally_mixed(sig), in_dims=sig)
    return ConditionalRDChannel(
        theory=theory,
        kind=kind,
        labels=tuple(labels),
        descriptions=tuple(registered[label] for label in labels),
        branches=branches,
        default_branch=default,
        system_dims=sig,
    )


def _pair_transfer(
    branches: Sequence[KrausChannel], noise: KrausChannel | None = None
) -> np.ndarray:
    """Transfer matrix of one message+system pair.

    The message register is read in its label basis (cross-label coherences
    are discarded) and outcome i applies branch i after the link noise:
    T[(a,b),((i,s),(i',s'))] = delta_ii' (T_Bi T_N)[(a,b),(s,s')].
    """
    m = len(branches)
    d_in, d_out = branches[0].in_dim, branches[0].out_dim
    noise_t = GeneralLinearMap.from_kraus(noise).transfer if noise is not None else None
    t = np.zeros((d_out, d_out, m, d_in, m, d_in), dtype=complex)
    for i, branch in enumerate(branches):
        t_i = GeneralLinearMap.from_kraus(branch).transfer
        if noise_t is not None:
            t_i = t_i @ noise_t
        t[:, :, i, :, i, :] = t_i.reshape(d_out, d_out, d_in, d_in)
    return t.reshape(d_out * d_out, (m * d_in) ** 2)


def _censor_pairs(
    mat: np.ndarray, dims: DimSignature, transfer: np.ndarray, n_pairs: int, sys: DimSignature
) -> np.ndarray:
    # Pair k starts at factor k*len(sys) once pairs 0..k-1 are censored.
    for k in range(n_pairs):
        start = k * len(sys)
        mat, dims = linalg.apply_transfer(mat, dims, transfer, start, start + 1 + len(sys), sys)
    return mat


def _validate_joint_layout(
    joint: DensityOperator, message_dim: int, system_dims: DimSignature
) -> int:
    group = 1 + len(system_dims)
    if len(joint.dims) % group != 0:
        raise ValueError(
            f"joint signature {joint.dims} does not tile into message+system groups"
        )
    n = len(joint.dims) // group
    for k in range(n):
        if joint.dims[k * group] != message_dim:
            raise ValueError(
                f"register {k}: message dimension {joint.dims[k * group]} != {message_dim}"
            )
        if joint.dims[k * group + 1 : (k + 1) * group] != system_dims:
            raise ValueError(f"register {k}: system dimensions do not match {system_dims}")
    return n


def apply_censorship(
    ch: ConditionalRDChannel,
    joint: DensityOperator,
    labels: Sequence[bytes] | None = None,
) -> DensityOperator:
    """Censor a joint state on alternating message/system registers.

    Each message register is projected onto its label basis (cross-label
    coherences are discarded); the branch selected by each outcome acts on
    that sender's system block. The output lives on the system registers
    only and has unit trace.
    """
    label_basis = tuple(labels) if labels is not None else ch.labels
    n = _validate_joint_layout(joint, len(label_basis) + 1, ch.system_dims)
    branches = [ch.branch_for_label(label) for label in label_basis] + [ch.default_branch]
    out = _censor_pairs(joint.mat, joint.dims, _pair_transfer(branches), n, ch.system_dims)
    return DensityOperator((out + out.conj().T) / 2, ch.system_dims * n)


@dataclass
class Claim:
    """Description source supplied by a sender: a state or an ensemble."""

    state: DensityOperator | None = None
    ensemble: list | None = None


@dataclass
class SenderStrategy:
    """One sender's input: honest, untruthful, or correlated across registers.

    honest      state/ensemble is free and the claim is derived from it
    untruthful  arbitrary system state with a free-state claim
    correlated  explicit joint operator over ``spans`` message+system
                register pairs, with one claim per contributed label
    """

    kind: str
    state: DensityOperator | None = None
    ensemble: list | None = None
    claimed: Description | Claim | Sequence | None = None
    spans: int = 1


@dataclass
class NetworkScenario:
    theory: str
    channel_kind: str
    strategies: list[SenderStrategy]
    noise: ChannelSpec | None = None
    seed: int | None = None
    rng_algorithm: str = "pcg64"


@dataclass
class CensorshipReport:
    receiver_state: DensityOperator
    verdicts: dict[str, qrt.ResourceVerdict]
    breach: bool
    distances: list[dict] | None = None
    notes: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


def _to_description(theory: str, claim) -> Description:
    if isinstance(claim, Description):
        if claim.theory != theory:
            raise ScenarioError(f"claim encoded for {claim.theory!r}, scenario uses {theory!r}")
        return claim
    if isinstance(claim, Claim):
        try:
            return encode_description(theory, sigma=claim.state, ensemble=claim.ensemble)
        except ValueError as exc:
            raise ScenarioError(f"claim is not a valid free-state description: {exc}") from exc
    raise ScenarioError(f"unsupported claim object {type(claim)!r}")


def _strategy_descriptions(scenario: NetworkScenario) -> list[list[Description]]:
    per_strategy: list[list[Description]] = []
    for pos, st in enumerate(scenario.strategies):
        if st.kind == "honest":
            try:
                desc = encode_description(scenario.theory, sigma=st.state, ensemble=st.ensemble)
            except ValueError as exc:
                raise ScenarioError(f"honest sender {pos} holds a non-free state: {exc}") from exc
            if st.claimed is not None:
                claimed = _to_description(scenario.theory, st.claimed)
                if claimed.label != desc.label:
                    raise ScenarioError(
                        f"honest sender {pos}: claimed description does not match the state"
                    )
            per_strategy.append([desc])
        elif st.kind == "untruthful":
            if st.claimed is None:
                raise ScenarioError(f"untruthful sender {pos} must supply a claimed description")
            per_strategy.append([_to_description(scenario.theory, st.claimed)])
        elif st.kind == "correlated":
            claims = st.claimed if isinstance(st.claimed, (list, tuple)) else []
            if not claims:
                raise ScenarioError(
                    f"correlated strategy {pos} must list the descriptions it registers"
                )
            per_strategy.append([_to_description(scenario.theory, c) for c in claims])
        else:
            raise ScenarioError(f"unknown strategy kind {st.kind!r}")
    return per_strategy


def _sender_block(
    pos: int, st: SenderStrategy, descs: list[Description], channel: ConditionalRDChannel
) -> tuple[np.ndarray, DimSignature, int]:
    """One strategy's own input block, its signature and its number of pairs.

    An honest or untruthful sender contributes |i><i| (x) rho on one pair; a
    correlated strategy contributes its joint operator over its own spans.
    """
    mdim = channel.message_dim
    sys = channel.system_dims
    if st.kind in ("honest", "untruthful"):
        sent = st.state if st.state is not None else descs[0].state
        if sent.dims != sys:
            raise ScenarioError(
                f"sender {pos}: system dims {sent.dims} do not match register {sys}"
            )
        proj = np.zeros((mdim, mdim), dtype=complex)
        idx = channel.labels.index(descs[0].label)
        proj[idx, idx] = 1.0
        return np.kron(proj, sent.mat), (mdim,) + sys, 1
    if st.state is None:
        raise ScenarioError(f"correlated strategy {pos} must carry its joint operator")
    expected = ((mdim,) + sys) * st.spans
    if st.state.dims != expected:
        raise ScenarioError(
            f"correlated strategy {pos}: joint dims {st.state.dims} != {expected} "
            "(message registers have one index per registered label plus one)"
        )
    return st.state.mat, expected, st.spans


def _build_link_noise(spec: ChannelSpec, sys: DimSignature) -> KrausChannel:
    try:
        noise = spec.build(sys)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"noise {spec.kind!r} cannot act on registers {sys}: {exc}") from exc
    reg_dim = int(np.prod(sys))
    if noise.in_dim != reg_dim or noise.out_dim != reg_dim:
        raise ScenarioError(
            f"noise channel acts on dimension {noise.in_dim}, registers have {reg_dim}"
        )
    return noise


def _isotropic_weight(marginal: DensityOperator) -> float:
    # Twirl parameter estimated from the overlap with the maximally entangled state.
    d = marginal.dims[0]
    phi = bell_phi_plus(d)
    overlap = float(np.trace(marginal.mat @ phi.mat).real)
    return (d * d * overlap - 1.0) / (d * d - 1.0)


def _receiver_verdicts(
    scenario: NetworkScenario,
    receiver: DensityOperator,
    n_senders: int,
    sys: DimSignature,
) -> tuple[dict[str, qrt.ResourceVerdict], tuple[str, ...]]:
    notes: list[str] = []
    verdicts: dict[str, qrt.ResourceVerdict] = {}
    name = scenario.theory
    if name == "coherence":
        verdicts[name] = qrt.is_free_coherence(receiver)
    elif name == "imaginarity":
        verdicts[name] = qrt.is_free_imaginarity(receiver)
    elif name == "entanglement":
        verdicts[name] = qrt.ppt_all_cuts(receiver)
    elif name == "discord":
        group = len(sys)
        if len(receiver.dims) == 2:
            cq = qrt.is_classical_quantum(receiver)
            witness = qrt.discord(receiver) if receiver.dims == (2, 2) else cq.witness_value
            verdicts[name] = qrt.ResourceVerdict(cq.is_free, witness, cq.decisive)
        else:
            free = True
            worst = 0.0
            for k in range(n_senders):
                marg = receiver.marginal(range(k * group, (k + 1) * group))
                cq = qrt.is_classical_quantum(marg)
                free = free and cq.is_free
                worst = max(worst, cq.witness_value)
            verdicts[name] = qrt.ResourceVerdict(free, worst)
            notes.append("multi-sender discord verdict checks each receiver marginal")
    elif name == "locality":
        group = len(sys)
        worst_m = 0.0
        window = qrt.isotropic_local_range(2)
        for k in range(n_senders):
            marg = receiver.marginal(range(k * group, (k + 1) * group))
            if marg.dims != (2, 2):
                raise ValueError("locality verdicts support two-qubit registers only")
            m = qrt.chsh_parameter(marg)
            worst_m = max(worst_m, m)
            weight = _isotropic_weight(marg)
            if float(window[0]) - 1e-9 <= weight <= float(window[1]) + 1e-9:
                notes.append(
                    f"activation risk: receiver marginal {k} sits in the entangled-but-"
                    f"local window ({float(window[0]):.6f}, {float(window[1]):.6f}]; "
                    "copies of it can exhibit nonlocality jointly"
                )
        violated = worst_m > 1.0 + qrt.TOL_CHSH
        verdicts[name] = qrt.ResourceVerdict(not violated, worst_m, decisive=violated)
        verdicts["entanglement"] = qrt.ppt_all_cuts(receiver)
        notes.append("locality breach determination is limited to per-pair CHSH")
    return verdicts, tuple(notes)


def run_protocol(scenario: NetworkScenario) -> CensorshipReport:
    """Censor each strategy's own block and judge the receiver state.

    The conditional channel and the link noise are products of one map per
    message+system pair, so each strategy's block is censored on its own and
    the receiver is the Kronecker product of the small outputs; the joint
    sender state is never built.
    """
    qrt.get_theory(scenario.theory)
    if scenario.rng_algorithm.lower() not in RNG_ALGORITHMS:
        raise ScenarioError(
            f"unsupported rng algorithm {scenario.rng_algorithm!r}; known: {RNG_ALGORITHMS}"
        )
    per_strategy = _strategy_descriptions(scenario)
    all_descs = [d for group in per_strategy for d in group]
    try:
        channel = build_conditional_channel(scenario.theory, scenario.channel_kind, all_descs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    sys = channel.system_dims
    n_senders = sum(st.spans if st.kind == "correlated" else 1 for st in scenario.strategies)
    reg_dim = int(np.prod(sys))
    if reg_dim**n_senders > MAX_RECEIVER_DIM:
        raise ScenarioError(
            f"the receiver state would be {reg_dim**n_senders} wide ({n_senders} registers "
            f"of dimension {reg_dim}); the limit is {MAX_RECEIVER_DIM}"
        )
    noise_ch = _build_link_noise(scenario.noise, sys) if scenario.noise is not None else None
    transfer = _pair_transfer(
        [channel.branch_for_index(i) for i in range(channel.message_dim)], noise_ch
    )
    outputs = []
    for pos, (st, descs) in enumerate(zip(scenario.strategies, per_strategy)):
        block, dims, spans = _sender_block(pos, st, descs, channel)
        outputs.append(_censor_pairs(block, dims, transfer, spans, sys))
    mat = linalg.kron_all(outputs)
    receiver = DensityOperator((mat + mat.conj().T) / 2, sys * n_senders)

    distances: list[dict] | None = None
    if noise_ch is not None:
        distances = []
        sender_pos = 0
        for st, descs in zip(scenario.strategies, per_strategy):
            if st.kind == "honest":
                sent = st.state if st.state is not None else descs[0].state
                noisy = noise_ch.apply_matrix(sent.mat)
                censored = channel.branch_for_label(descs[0].label).apply_matrix(noisy)
                distances.append(
                    {
                        "sender": sender_pos,
                        "d_noisy": linalg.hs_distance(sent.mat, noisy),
                        "d_censored": linalg.hs_distance(sent.mat, censored),
                    }
                )
            sender_pos += st.spans if st.kind == "correlated" else 1

    verdicts, notes = _receiver_verdicts(scenario, receiver, n_senders, channel.system_dims)
    primary = verdicts[scenario.theory]
    breach = (not primary.is_free) and primary.decisive
    return CensorshipReport(
        receiver_state=receiver,
        verdicts=verdicts,
        breach=breach,
        distances=distances,
        notes=notes,
    )


def smuggle_eigenstate_demo() -> CensorshipReport:
    """Why eigenbasis dephasing is rejected for entanglement.

    The separable isotropic state at the boundary p = 1/3 has the maximally
    entangled vector among its eigenstates, so the dephasing branch built
    from its description passes that vector through untouched.
    """
    from .states import isotropic

    sigma = isotropic(2, 1.0 / 3.0)
    _, basis = linalg.hermitian_eig(sigma.mat)
    branch = dephasing_channel(basis, dims=(2, 2))
    phi = bell_phi_plus(2)
    receiver = apply(branch, phi)
    fixed = apply(branch, sigma)
    verdict = qrt.is_free_entanglement(receiver, cut=(0,))
    return CensorshipReport(
        receiver_state=receiver,
        verdicts={"entanglement": verdict},
        breach=(not verdict.is_free) and verdict.decisive,
        notes=(
            "eigen-dephasing branch built from the boundary separable state "
            "fixes the maximally entangled eigenvector",
        ),
        extras={
            "distance_to_phi_plus": linalg.hs_distance(receiver.mat, phi.mat),
            "described_state_fixed_point_defect": linalg.hs_distance(fixed.mat, sigma.mat),
            "ppt_witness": verdict.witness_value,
        },
    )


@dataclass(frozen=True)
class NoiseComparison:
    """Hilbert-Schmidt distances to the intended state, before and after the
    censoring dephasing. The spectral argument (the dephased spectrum is a
    doubly-stochastic image of the noisy one) forces d_censored <= d_noisy."""

    d_noisy: float
    d_censored: float


def _sample_free_states(theory: str, dim: int, rng, count: int):
    from .states import random_density, random_real_density

    for _ in range(count):
        if theory == "imaginarity":
            yield random_real_density(dim, dim, rng)
        elif theory == "coherence":
            probs = rng.random(dim)
            probs /= probs.sum()
            yield DensityOperator(np.diag(probs).astype(complex), (dim,))
        else:
            yield random_density(dim, dim, rng)


def noise_comparison(
    sigma: DensityOperator,
    noise: KrausChannel,
    branch: KrausChannel | None = None,
    theory: str = "imaginarity",
    samples: int = 25,
    seed: int = 0,
) -> NoiseComparison:
    """Compare link noise with and without the eigenbasis-dephasing correction.

    Requires ``sigma`` free and the noise resource non-generating for the
    theory (verified by sampling free states through the noise).
    """
    if theory not in _EIGEN_DEPHASING_THEORIES:
        raise ValueError("noise comparison applies to eigenbasis-dephasing theories")
    free_check = (
        qrt.is_free_imaginarity(sigma) if theory == "imaginarity" else qrt.is_free_coherence(sigma)
    )
    if not free_check.is_free:
        raise ValueError(f"sigma is not free for {theory} (witness {free_check.witness_value:.3e})")
    from .states import make_rng

    rng = make_rng(seed)
    for probe in _sample_free_states(theory, sigma.dim, rng, samples):
        out = noise.apply_matrix(probe.mat)
        out_free = (
            qrt.is_free_imaginarity(DensityOperator(out, probe.dims))
            if theory == "imaginarity"
            else qrt.is_free_coherence(DensityOperator(out, probe.dims))
        )
        if not out_free.is_free:
            raise ValueError("noise channel generates the resource on free states")
    if branch is None:
        _, basis = linalg.hermitian_eig(sigma.mat)
        branch = dephasing_channel(basis, dims=sigma.dims)
    noisy = noise.apply_matrix(sigma.mat)
    censored = branch.apply_matrix(noisy)
    return NoiseComparison(
        d_noisy=linalg.hs_distance(sigma.mat, noisy),
        d_censored=linalg.hs_distance(sigma.mat, censored),
    )
