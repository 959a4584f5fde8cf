"""Conditional resource-destroying channels and the N-party censorship
protocol with honest and adversarial sender strategies.

Senders describe their free states with the encoder of the scenario's
theory (``qrt.THEORIES``). The conditional channel reads each message
register destructively (cross-label coherences are discarded) and applies
the per-label branch to the paired system register.

Only the message diagonal ever reaches a branch, so the engine keeps the m
branch transfers, each after the link noise, side by side in one stacked
transfer. An honest or untruthful sender's block is its label's columns of
that transfer times vec rho, with no message register; a correlated joint
is read on its message diagonal and censored one pair per matmul.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

from . import linalg, qrt
from .channels import Channel, ChannelSpec, GeneralLinearMap, dephasing_channel, replacement_channel
from .linalg import DimSignature
from .qrt import Description
from .states import DensityOperator, density_stack, make_rng, maximally_mixed, random_real_densities

# Widest receiver table a report renders; wider scenarios exit 2 up front.
MAX_RECEIVER_DIM = 1024
# Most bytes the m branch transfers of a conditional channel may take, each
# d^2 x d^2 complex on d-wide registers; wider channels are refused unbuilt.
MAX_TRANSFER_BYTES = 2**26


class ScenarioError(ValueError):
    """Malformed scenario input (distinct from runtime failures)."""


def encode_description(
    theory: str,
    sigma: DensityOperator | None = None,
    ensemble: Sequence | None = None,
) -> Description:
    """Canonical description of a free state; raises on resource states.

    Entanglement requires the separable ensemble (weights plus product
    amplitudes) explicitly; other theories take the state itself.
    """
    return qrt.get_theory(theory).encode(sigma, ensemble)


@dataclass(frozen=True, eq=False)
class ConditionalRDChannel:
    """One branch channel per message outcome, in message order.

    The message basis is the registration order of the labels plus one
    reserved last outcome for anything unrecognized, whose branch replaces
    the system by I/d. Each branch is a measure-and-prepare channel carried
    as its transfer and its Holevo pairs, built straight from its description.
    """

    theory: str
    kind: str
    descriptions: tuple[Description, ...]
    system_dims: DimSignature
    branches: tuple[GeneralLinearMap, ...]

    @cached_property
    def labels(self) -> tuple[bytes, ...]:
        return tuple(d.label for d in self.descriptions)

    @property
    def message_dim(self) -> int:
        return len(self.branches)


@cache
def _default_branch(sig: DimSignature) -> GeneralLinearMap:
    """The reserved outcome's branch, replacing the system by I/d; one
    read-only map per register signature."""
    return replacement_channel(maximally_mixed(sig))


def build_conditional_channel(
    theory: str, kind: str, descriptions: Iterable[Description]
) -> ConditionalRDChannel:
    """Assemble the conditional channel from registered descriptions.

    kind="replacement" works for every theory; kind="eigen_dephasing" only
    for descriptions that name the basis their branch dephases in
    (coherence, imaginarity). A separable state can have entangled
    eigenvectors, so entanglement descriptions name none, and neither do
    discord and locality ones.
    """
    qrt.get_theory(theory)  # an unknown theory raises first
    if kind not in ("replacement", "eigen_dephasing"):
        raise ValueError(f"unknown channel kind {kind!r}")
    descs = list(descriptions)
    if not descs:
        raise ValueError("need at least one description")
    for d in descs:
        if d.theory != theory:
            raise ValueError(f"description theory {d.theory!r} does not match {theory!r}")
    if kind == "eigen_dephasing" and any(d.basis is None for d in descs):
        raise ValueError(
            f"eigen_dephasing is not resource destroying for {theory}: free states of "
            "this theory can have non-free eigenvectors (e.g. a separable state with "
            "an entangled eigenvector), so the dephasing branch would let them "
            "through; use kind='replacement'"
        )
    sig = descs[0].state.dims
    registered: dict[bytes, Description] = {}
    for d in descs:
        if d.state.dims != sig:
            raise ValueError("description register dimensions are inconsistent")
        prior = registered.setdefault(d.label, d)  # a repeated label keeps its first
        if (
            kind == "replacement"
            and prior is not d
            and linalg.hs_distance(prior.state.mat, d.state.mat) > qrt.TOL_CLAIM_MATCH
        ):
            raise ValueError(
                "label collision: two distinct states map to the same description "
                "label, which a replacement branch cannot serve"
            )
    m, dim = len(registered) + 1, descs[0].state.dim
    nbytes = 16 * m * dim**4
    if nbytes > MAX_TRANSFER_BYTES:
        raise ValueError(
            f"the {m} branch transfers on registers of dimension {dim} would take "
            f"{nbytes} bytes; the limit is {MAX_TRANSFER_BYTES}"
        )
    if kind == "replacement":
        branches = [replacement_channel(d.state) for d in registered.values()]
    else:
        # descriptions that share a basis object share its branch
        built: dict[int, GeneralLinearMap] = {}
        branches = [
            _memo(built, id(d.basis), lambda: dephasing_channel(d.basis, d.state.dims))
            for d in registered.values()
        ]
    return ConditionalRDChannel(
        theory=theory,
        kind=kind,
        descriptions=tuple(registered.values()),
        system_dims=sig,
        branches=(*branches, _default_branch(sig)),
    )


def _stacked_transfer(ch: ConditionalRDChannel, noise: Channel | None = None) -> np.ndarray:
    """The m branch transfers after the link noise, side by side.

    Column (i, s, s') is column (s, s') of T_Bi T_N, so the d^2 columns of
    label i censor the system block that message outcome i selects.
    """
    transfers = (b.transfer for b in ch.branches)
    return np.hstack([t if noise is None else t @ noise.transfer for t in transfers])


def _censor_joint(
    stacked: np.ndarray, mats: np.ndarray, n_pairs: int, sys: DimSignature
) -> np.ndarray:
    """Censor a stack of joints over ``n_pairs`` message+system pairs, each
    under its own stacked branch transfer (count, d^2, m d^2); the Hermitized
    states on the systems, unchecked, shape (count, d^n, d^n).

    Each message register is read on its diagonal only; each pair's branch
    transfers then act one batched matmul at a time, leading pair first.
    Every joint is computed as it would be alone, bit for bit.
    """
    count, d = len(mats), int(np.prod(sys))
    m = stacked.shape[-1] // (d * d)
    # pair k: message 3k+1, system row 3k+2, system column 3k+3; 0 is the stack
    rows = [j for k in range(n_pairs) for j in (3 * k + 1, 3 * k + 2)]
    cols = [j for k in range(n_pairs) for j in (3 * k + 1, 3 * k + 3)]
    tensor = mats.reshape((count,) + (m, d) * 2 * n_pairs)
    x = np.einsum(tensor, [0] + rows + cols, list(range(3 * n_pairs + 1)))
    for _ in range(n_pairs):
        # consume the leading pair; its output moves last
        x = (stacked @ x.reshape(count, m * d * d, -1)).swapaxes(1, 2)
    width = d**n_pairs
    order = [0] + list(range(1, 2 * n_pairs, 2)) + list(range(2, 2 * n_pairs + 1, 2))
    out = x.reshape((count,) + (d, d) * n_pairs).transpose(order).reshape(count, width, width)
    return (out + out.conj().swapaxes(1, 2)) / 2


def _pair_dims(ch: ConditionalRDChannel, n: int) -> DimSignature:
    """The layout of a joint over n message+system pairs."""
    return ((ch.message_dim,) + ch.system_dims) * n


def apply_censorship(ch: ConditionalRDChannel, joint: DensityOperator) -> DensityOperator:
    """Censor a joint state on alternating message/system registers.

    Each message register is projected onto its label basis (cross-label
    coherences are discarded); the branch selected by each outcome acts on
    that sender's system block. The output lives on the system registers
    only and has unit trace.
    """
    n = len(joint.dims) // (1 + len(ch.system_dims))
    if joint.dims != _pair_dims(ch, n):
        raise ValueError(
            f"joint dims {joint.dims} are not message+system pairs {_pair_dims(ch, 1)}"
        )
    out = _censor_joint(_stacked_transfer(ch)[None], joint.mat[None], n, ch.system_dims)
    return DensityOperator(out[0], ch.system_dims * n)


@dataclass
class Claim:
    """Description source supplied by a sender: a state or an ensemble."""

    state: DensityOperator | None = None
    ensemble: list | None = None


@dataclass(frozen=True)
class SenderStrategy:
    """One sender's input: honest, untruthful, or correlated across registers.

    honest      state/ensemble is free and the claim is derived from it
    untruthful  arbitrary system state with a free-state claim
    correlated  explicit joint operator over ``spans`` message+system
                register pairs, with one claim per contributed label

    A strategy of the wrong shape raises ScenarioError when it is built.
    """

    kind: str
    state: DensityOperator | None = None
    ensemble: list | None = None
    claimed: Description | Claim | Sequence | None = None
    spans: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("honest", "untruthful", "correlated"):
            raise ScenarioError(f"unknown kind {self.kind!r}")
        if self.kind == "honest" and self.state is None and self.ensemble is None:
            raise ScenarioError("honest strategy needs a state or an ensemble")
        if self.kind == "untruthful" and (self.state is None or self.claimed is None):
            raise ScenarioError("untruthful strategy needs a state and a claim")
        if self.kind != "correlated" and isinstance(self.claimed, (list, tuple)):
            raise ScenarioError(f"{self.kind} strategy makes one claim, not a list")
        if self.kind == "correlated" and (
            self.state is None or not isinstance(self.claimed, (list, tuple)) or not self.claimed
        ):
            raise ScenarioError("correlated strategy needs a joint state and a list of claims")
        if self.spans < 1 or (self.kind != "correlated" and self.spans != 1):
            need = "at least 1" if self.kind == "correlated" else f"1 for an {self.kind} sender"
            raise ScenarioError(f"'spans' must be {need}, got {self.spans}")


@dataclass
class NetworkScenario:
    theory: str
    channel_kind: str
    strategies: list[SenderStrategy]
    noise: ChannelSpec | None = None
    seed: int | None = None


@dataclass
class CensorshipReport:
    """Verdicts on the receiver, the product of each strategy's censored block."""

    blocks: tuple[qrt.Block, ...]
    verdicts: dict[str, qrt.ResourceVerdict]
    breach: bool
    distances: list[dict] | None = None
    notes: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def render_receiver(self) -> tuple[np.ndarray, DimSignature]:
        """The receiver matrix and its dims, for writing; not validated again."""
        mat = linalg.kron_all(block.mat for block, _ in self.blocks)
        return mat, tuple(d for block, _ in self.blocks for d in block.dims)


def _input_key(state, ensemble) -> tuple | None:
    """The exact bits of an encoder's parsed input: a state's dims and matrix
    bytes, and an ensemble's float weights and complex amplitude arrays. Input
    in any other form has no key and is never shared, so building a key
    cannot change which error a malformed input raises, or where."""
    if state is not None and not isinstance(state, DensityOperator):
        return None
    terms = None
    if ensemble is not None:
        if not isinstance(ensemble, (list, tuple)):
            return None
        terms = []
        for term in ensemble:
            if not (isinstance(term, tuple) and len(term) == 2):
                return None
            weight, factors = term
            if type(weight) is not float or not isinstance(factors, tuple):
                return None
            if not all(isinstance(f, np.ndarray) and f.dtype == complex for f in factors):
                return None
            terms.append((weight.hex(), tuple((f.shape, f.tobytes()) for f in factors)))
        terms = tuple(terms)
    return None if state is None else (state.dims, state.mat.tobytes()), terms


def _memo(memo: dict, key, make):
    """``make()``, made once per key of ``memo``; a None key is never shared."""
    if key is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _to_description(theory: str, claim, encoded: dict) -> Description:
    if isinstance(claim, Description):
        if claim.theory != theory:
            raise ScenarioError(f"claim encoded for {claim.theory!r}, scenario uses {theory!r}")
        return claim
    if isinstance(claim, Claim):
        try:
            return _memo(
                encoded,
                _input_key(claim.state, claim.ensemble),
                lambda: encode_description(theory, sigma=claim.state, ensemble=claim.ensemble),
            )
        except ValueError as exc:
            raise ScenarioError(f"claim is not a valid free-state description: {exc}") from exc
    raise ScenarioError(f"unsupported claim object {type(claim)!r}")


def _strategy_descriptions(scenario: NetworkScenario) -> list[list[Description]]:
    """Each strategy's descriptions, each distinct claim encoded once."""
    theory = scenario.theory
    encoded: dict[tuple, Description] = {}  # input key -> description
    per_strategy: list[list[Description]] = []
    for pos, st in enumerate(scenario.strategies):
        if st.kind == "honest":
            try:
                desc = _memo(
                    encoded,
                    _input_key(st.state, st.ensemble),
                    lambda: encode_description(theory, sigma=st.state, ensemble=st.ensemble),
                )
            except ValueError as exc:
                raise ScenarioError(f"honest sender {pos}: {exc}") from exc
            if st.claimed is not None:
                claimed = _to_description(theory, st.claimed, encoded)
                if claimed.label != desc.label:
                    raise ScenarioError(
                        f"honest sender {pos}: claimed description does not match the state"
                    )
            per_strategy.append([desc])
        elif st.kind == "untruthful":
            per_strategy.append([_to_description(theory, st.claimed, encoded)])
        else:
            per_strategy.append([_to_description(theory, c, encoded) for c in st.claimed])
    return per_strategy


def _censor_sender(
    pos: int,
    st: SenderStrategy,
    descs: list[Description],
    channel: ConditionalRDChannel,
    stacked: np.ndarray,
    censored: dict,
) -> DensityOperator:
    """One strategy's censored block.

    An honest or untruthful sender's message is its claim's label i, so its
    block is the d^2 columns of label i times vec rho, censored and checked
    once per distinct (i, rho bits) of ``censored``, whose repeats get the same
    object; a correlated strategy's block is its joint operator over its own
    spans, censored pair by pair.
    """
    sys = channel.system_dims
    if st.kind == "correlated":
        expected = _pair_dims(channel, st.spans)
        if st.state.dims != expected:
            raise ScenarioError(
                f"correlated strategy {pos}: joint dims {st.state.dims} != {expected} "
                "(message registers have one index per registered label plus one)"
            )
        out = _censor_joint(stacked[None], st.state.mat[None], st.spans, sys)
        return DensityOperator(out[0], sys * st.spans)
    sent = st.state if st.state is not None else descs[0].state
    if sent.dims != sys:
        raise ScenarioError(f"sender {pos}: system dims {sent.dims} do not match register {sys}")
    i = channel.labels.index(descs[0].label)

    def censor() -> DensityOperator:
        d2 = sent.dim**2
        out = (stacked[:, i * d2 : (i + 1) * d2] @ sent.mat.reshape(-1)).reshape(sent.mat.shape)
        return DensityOperator((out + out.conj().T) / 2, sys)

    key = _input_key(sent, None)
    return _memo(censored, key and (i, key), censor)


def _build_link_noise(spec: ChannelSpec, sys: DimSignature) -> Channel:
    try:
        noise = spec.build(sys)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"noise {spec.kind!r} cannot act on registers {sys}: {exc}") from exc
    reg_dim = int(np.prod(sys))
    if noise.in_dim != reg_dim or noise.out_dim != reg_dim:
        raise ScenarioError(
            f"noise channel maps dimension {noise.in_dim} to dimension {noise.out_dim}; "
            f"registers have dimension {reg_dim}"
        )
    return noise


def run_protocol(scenario: NetworkScenario) -> CensorshipReport:
    """Censor each strategy's own block and judge the receiver state.

    The conditional channel and the link noise are products of one map per
    message+system pair, so each strategy's block is censored on its own and
    the receiver is the Kronecker product of the small outputs; neither the
    joint sender state nor the receiver is built. The judges read each
    censored block, or each register marginal, on its own.
    """
    try:
        theory = qrt.get_theory(scenario.theory)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    per_strategy = _strategy_descriptions(scenario)
    all_descs = [d for group in per_strategy for d in group]
    try:
        channel = build_conditional_channel(scenario.theory, scenario.channel_kind, all_descs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    sys = channel.system_dims
    n_senders = sum(st.spans for st in scenario.strategies)
    reg_dim = int(np.prod(sys))
    # every register is at least 2 wide, so this many registers are over the
    # limit; their width is not built, as it can have too many digits to print
    over = n_senders >= MAX_RECEIVER_DIM.bit_length()
    if over or reg_dim**n_senders > MAX_RECEIVER_DIM:
        width = f"{reg_dim}^{n_senders}" if over else reg_dim**n_senders
        raise ScenarioError(
            f"the receiver state would be {width} wide ({n_senders} registers "
            f"of dimension {reg_dim}); the limit is {MAX_RECEIVER_DIM}"
        )
    noise_ch = _build_link_noise(scenario.noise, sys) if scenario.noise is not None else None
    stacked = _stacked_transfer(channel, noise_ch)
    blocks: list[qrt.Block] = []
    distances: list[dict] | None = None if noise_ch is None else []
    censored_by_key: dict[tuple, DensityOperator] = {}
    measured: dict[int, tuple[float, float]] = {}  # id of a shared block -> distances
    sender_pos = 0
    for pos, (st, descs) in enumerate(zip(scenario.strategies, per_strategy)):
        censored = _censor_sender(pos, st, descs, channel, stacked, censored_by_key)
        blocks.append((censored, st.spans))
        if distances is not None and st.kind == "honest":
            sent = st.state if st.state is not None else descs[0].state
            # the same block object comes from the same label and sent bits
            d_noisy, d_censored = _memo(
                measured,
                id(censored),
                lambda: (
                    linalg.hs_distance(sent.mat, noise_ch.apply_matrix(sent.mat)),
                    linalg.hs_distance(sent.mat, censored.mat),
                ),
            )
            distances.append({"sender": sender_pos, "d_noisy": d_noisy, "d_censored": d_censored})
        sender_pos += st.spans
    verdicts, notes = theory.judge(blocks)
    primary = verdicts[scenario.theory]
    breach = (not primary.is_free) and primary.decisive
    return CensorshipReport(
        blocks=tuple(blocks),
        verdicts=verdicts,
        breach=breach,
        distances=distances,
        notes=notes,
    )


@dataclass(frozen=True)
class NoiseComparison:
    """Hilbert-Schmidt distances to the intended state, before and after the
    censoring dephasing. The spectral argument (the dephased spectrum is a
    doubly-stochastic image of the noisy one) forces d_censored <= d_noisy."""

    d_noisy: float
    d_censored: float


def noise_comparison(sigma: DensityOperator, noise: Channel) -> NoiseComparison:
    """Compare link noise with and without the eigenbasis-dephasing correction.

    Requires ``sigma`` real and the noise not to generate imaginarity, which
    is checked on 25 random real states (seed 0) sent through it. The
    correcting branch dephases in sigma's own canonical eigenbasis.
    """
    theory = qrt.THEORIES["imaginarity"]
    verdict = theory.free(sigma)
    if not verdict.is_free:
        raise ValueError(f"sigma is not free for imaginarity (witness {verdict.witness_value:.3e})")
    probes = random_real_densities(sigma.dim, sigma.dim, make_rng(0), 25)
    outs = density_stack(noise.apply_matrix(probes))
    # imaginarity is affine: free exactly when the witness is within TOL_DIAG
    if (theory.excess(outs, sigma.dims) > qrt.TOL_DIAG).any():
        raise ValueError("noise channel generates the resource on free states")
    branch = dephasing_channel(qrt.canonical_eigenbasis(sigma.mat), sigma.dims)
    noisy = noise.apply_matrix(sigma.mat)
    censored = branch.apply_matrix(noisy)
    return NoiseComparison(
        d_noisy=linalg.hs_distance(sigma.mat, noisy),
        d_censored=linalg.hs_distance(sigma.mat, censored),
    )
