"""Seeded verification suites for the censorship engine.

Each suite replays one of the protocol guarantees (or deliberate breaches)
over randomized inputs and reports the worst observed defect per invariant.
The breach-style suites pass by *finding* the breach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import linalg, qrt
from .channels import (
    amplitude_damping,
    dephasing_channel,
    depolarizing,
    identity_channel,
    replacement_channel,
)
from .censorship import (
    Claim,
    ConditionalRDChannel,
    DensityOperator,
    _censor_joint,
    _stacked_transfer,
    build_conditional_channel,
    encode_description,
)
from .demos import discord_breach_demo, nonlocal_activation_demo
from .qrt import Description
from .states import (
    _ginibre_draw,
    _ginibre_states,
    density_stack,
    isotropic,
    make_rng,
    maximally_mixed,
    random_densities,
    random_density,
    random_pure_vector,
    random_real_density,
)

# suites that replay one fixed scenario, using neither the sample count nor the seed
FIXED_SUITES = frozenset({"activation"})
# The states a sampled suite draws for one chunk of samples take at most this
# many bytes, and a wider state is a chunk of its own, so the sample count
# sets a suite's run time but not its memory.
CHUNK_BYTES = 2**17


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    samples: int
    seed: int
    max_defects: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, key: str, values: float | np.ndarray, bound: float) -> None:
        """Record one defect, or a sample's defects in sampling order."""
        self.record_samples({key: bound}, np.reshape(values, (-1, 1)))

    def record_samples(self, bounds: dict[str, float], defects: np.ndarray) -> None:
        """Record a table of defects, one row per sample and one column per
        key of ``bounds``, as if each sample recorded its keys in turn."""
        for key, column in zip(bounds, defects.T):
            worst, prior = float(column.max()), self.max_defects.get(key, 0.0)
            # a NaN defect is kept as the maximum, and fails below
            self.max_defects[key] = worst if worst > prior or math.isnan(worst) else prior
        keys = list(bounds)
        # row-major order: sample by sample, and within a sample key by key
        for row, col in zip(*np.nonzero(~(defects <= list(bounds.values())))):
            self.passed = False
            key = keys[col]
            msg = f"{key}: defect {defects[row, col]:.3e} exceeds bound {bounds[key]:.1e}"
            if msg not in self.failures:
                self.failures.append(msg)


def random_separable_ensemble(rng: np.random.Generator):
    """Random mixture of two pure two-qubit product states."""
    weights = -np.log1p(-rng.random(2))
    weights /= weights.sum()
    return [(float(w), (random_pure_vector(2, rng), random_pure_vector(2, rng))) for w in weights]


def _censored_samples(
    result: SuiteResult,
    theory: str,
    kind: str,
    shape: tuple[int, int],
    draw: Callable[[np.random.Generator], list],
    encode: Callable[[list], list[Description]],
    judge: Callable[[list[ConditionalRDChannel], np.ndarray, np.ndarray], tuple],
    bounds: dict[str, float],
) -> None:
    """Censor one random two-sender joint per sample and record its defects.

    ``shape`` is (claims per sample, register width). Per sample of a chunk,
    ``draw`` takes the claims' raw material, and the uniforms of a Ginibre
    joint over two message+system pairs follow at the widest width (every
    label distinct, m = claims + 1). ``encode`` turns the chunk's claims
    into descriptions at once, and the channels are built in sampling
    order. At the first sample whose labels collide, its joint is drawn
    again at its own width from the generator state where it started, and
    the next chunk starts after it, so every draw lands where one sample at
    a time puts it. The joints of one width are censored as one stack;
    ``judge`` turns the channels, joints and receivers into one defect array
    per bound, recorded in sampling order.
    """

    def width(m: int) -> int:
        return (m * register) ** 2

    def censor(chs: list[ConditionalRDChannel], draws: list[np.ndarray]) -> None:
        dim = width(chs[0].message_dim)
        joints = density_stack(_ginibre_states(np.concatenate(draws), dim, dim, real=False))
        transfers = np.stack([_stacked_transfer(ch) for ch in chs])
        receivers = density_stack(_censor_joint(transfers, joints, 2, chs[0].system_dims))
        result.record_samples(bounds, np.column_stack(judge(chs, joints, receivers)))

    claims, register = shape
    widest = claims + 1
    # the budget counts each joint's bytes; its uniforms, held until the
    # chunk is censored, take as many again, and its temporaries a few times that
    rows = max(CHUNK_BYTES // (16 * width(widest) ** 2), 1)
    rng = make_rng(result.seed)
    left = result.samples
    while left:
        drawn, starts, draws = [], [], []
        for _ in range(min(rows, left)):
            drawn += draw(rng)
            starts.append(rng.bit_generator.state)
            draws.append(_ginibre_draw(width(widest), width(widest), rng, 1, real=False))
        descs = encode(drawn)
        chs = []
        for k, start in enumerate(starts):
            sample = descs[k * claims : (k + 1) * claims]
            chs.append(build_conditional_channel(theory, kind, sample))
            if chs[-1].message_dim < widest:  # its labels collide
                rng.bit_generator.state = start
                dim = width(chs[-1].message_dim)
                draws[k] = _ginibre_draw(dim, dim, rng, 1, real=False)
                break
        wide = len(chs) - (chs[-1].message_dim < widest)
        for group in (slice(0, wide), slice(wide, len(chs))):
            if chs[group]:
                censor(chs[group], draws[group])
        left -= len(chs)


def suite_affine_unbreakable(samples: int = 200, seed: int = 7) -> SuiteResult:
    """Random two-sender joint states against eigenbasis-dephasing branches
    built from random real states; every receiver state must stay real."""
    result = SuiteResult("affine_unbreakable", True, samples, seed)

    def draw(rng: np.random.Generator) -> list[np.ndarray]:
        # the uniforms of two successive real 2x2 claims, drawn at once
        return list(_ginibre_draw(2, 2, rng, 2, real=True))

    def encode(draws: list[np.ndarray]) -> list[Description]:
        mats = _ginibre_states(np.stack(draws), 2, 2, real=True)
        return qrt._encode_imaginarities([DensityOperator(m, (2,)) for m in mats])

    def judge(chs, joints, receivers) -> tuple:
        return np.abs(receivers.imag).max(axis=(1, 2)), _trace_defects(receivers)

    bounds = {"receiver_max_imag": 1e-9, "trace_defect": 1e-10}
    _censored_samples(result, "imaginarity", "eigen_dephasing", (2, 2), draw, encode, judge, bounds)
    return result


def suite_convex_unbreakable(samples: int = 200, seed: int = 11) -> SuiteResult:
    """Random two-sender joint states against replacement branches built from
    random separable two-qubit states.

    The receiver must match the convex mixture reconstructed independently
    from the message-diagonal block weights, and must be PPT across every
    bipartition of the four qubits.
    """
    result = SuiteResult("convex_unbreakable", True, samples, seed)
    mixed = maximally_mixed((2, 2)).mat

    def draw(rng: np.random.Generator) -> list:
        return [random_separable_ensemble(rng) for _ in range(2)]

    def encode(ensembles: list) -> list[Description]:
        return [encode_description("entanglement", ensemble=e) for e in ensembles]

    def judge(chs, joints, receivers) -> tuple:
        # independent reconstruction from the diagonal message blocks
        count, m = len(chs), chs[0].message_dim
        tensors = joints.reshape((count,) + (m, 2, 2) * 4)
        # one einsum per joint, so that each sums in the order it would alone
        weights = np.array([np.einsum(t, [0, 1, 2, 3, 4, 5] * 2, [0, 3]).real for t in tensors])
        # each registered description replaces its system; the reserved index gives I/4
        targets = np.array([[d.state.mat for d in ch.descriptions] + [mixed] for ch in chs])
        expected = np.zeros((count, 16, 16), dtype=complex)
        for i in range(m):
            for j in range(m):
                # np.kron of each joint's two targets, entry for entry
                kron = targets[:, i, :, None, :, None] * targets[:, j, None, :, None, :]
                expected += weights[:, i, j, None, None] * kron.reshape(count, 16, 16)
        reconstruction = np.abs(receivers - expected).max(axis=(1, 2))
        return reconstruction, qrt._ppt_excess(receivers, (2, 2, 2, 2))

    bounds = {"mixture_reconstruction": 1e-9, "ppt_negativity": 1e-9}
    _censored_samples(result, "entanglement", "replacement", (2, 4), draw, encode, judge, bounds)
    return result


def _random_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    v = random_pure_vector(2, rng)
    return np.array([[v[0], -v[1].conj()], [v[1], v[0].conj()]])


def _luo_discord(c: tuple[float, float, float]) -> float:
    """Discord in nats of the Bell-diagonal state (II + sum_k c_k s_k s_k)/4
    (Luo, PRA 77, 042303, 2008): ln 2 - S(rho) + h((1 + max |c_k|)/2), since
    measuring along the axis of the largest |c_k| is optimal."""
    c1, c2, c3 = c
    lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3])
    top = max(abs(x) for x in c)
    entropy = linalg.von_neumann_entropy
    return float(np.log(2) - entropy(np.diag(lam) / 4) + entropy(np.diag([1 + top, 1 - top]) / 2))


def suite_discord_breach(samples: int = 1, seed: int = 0) -> SuiteResult:
    """Mixtures w (II + a ZZ)/4 + (1 - w) (II + b XX)/4 of two classical-quantum
    states under one random local unitary, each component sent under its own
    label: the suite passes when every mixture breaches with a discord witness
    above 1e-3 that matches Luo's closed form. ``discord_witness_nats`` is the
    smallest witness over the samples."""
    rng = make_rng(seed)
    result = SuiteResult("discord_breach", True, samples, seed)
    zz = np.kron(qrt.PAULIS[3], qrt.PAULIS[3])
    xx = np.kron(qrt.PAULIS[1], qrt.PAULIS[1])
    smallest = np.inf
    for _ in range(samples):
        w = rng.uniform(0.25, 0.75)
        a, b = (rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.9) for _ in range(2))
        u = np.kron(_random_qubit_unitary(rng), _random_qubit_unitary(rng))
        components = tuple(
            DensityOperator(u @ (np.eye(4) + c * m) @ u.conj().T / 4, (2, 2))
            for c, m in ((a, zz), (b, xx))
        )
        report = discord_breach_demo(components, w)
        witness = report.verdicts["discord"].witness_value
        smallest = min(smallest, witness)
        if not report.breach:
            result.passed = False
            result.failures.append("breach flag not set on the mixed-description scenario")
        exact = _luo_discord(((1 - w) * b, 0.0, w * a))
        result.record("luo_discord_error", abs(witness - exact), 1e-9)
        for key in ("component_discord_0", "component_discord_1"):
            result.record(key, report.extras[key], 1e-6)
    result.max_defects["discord_witness_nats"] = smallest
    if smallest <= 1e-3:
        result.passed = False
        result.failures.append(f"discord witness {smallest:.3e} not above 1e-3")
    return result


def suite_activation(samples: int = 1, seed: int = 0) -> SuiteResult:
    """Honest senders inside the entangled-but-local isotropic window pass
    censorship unchanged; per-pair CHSH stays below the violation bound."""
    result = SuiteResult("activation", True, samples, seed)
    report = nonlocal_activation_demo()
    result.record("marginal_roundtrip", report.extras["max_marginal_distance"], 1e-10)
    m = report.verdicts["locality"].witness_value
    result.max_defects["chsh_parameter"] = m
    if not (m < 1.0):
        result.passed = False
        result.failures.append(f"CHSH parameter {m} unexpectedly violates the bound")
    if report.breach:
        result.passed = False
        result.failures.append("activation scenario must not flag a per-pair breach")
    if not any("activation risk" in note for note in report.notes):
        result.passed = False
        result.failures.append("missing activation-risk note for in-window marginals")
    return result


def _trace_defects(mats: np.ndarray) -> np.ndarray:
    return np.abs(np.trace(mats, axis1=-2, axis2=-1).real - 1.0)


def _max_entries(mats: np.ndarray) -> np.ndarray:
    return np.abs(mats).max(axis=(-2, -1))


def _density_chunks(
    dim: int, rng: np.random.Generator, count: int, group: int = 1
) -> Iterator[np.ndarray]:
    """``random_densities(dim, dim, rng, count)`` as successive stacks of
    whole ``group``-row groups, each of at most CHUNK_BYTES unless one group
    is wider; row k of the chunks is the k-th single draw, bit for bit."""
    rows = max(CHUNK_BYTES // (16 * dim * dim) // group, 1) * group
    # no probes at all is one empty stack, which random_densities rejects
    for start in range(0, max(count, 1), rows):
        yield random_densities(dim, dim, rng, min(rows, count - start))


def _branch_condition_defects(
    ch: ConditionalRDChannel, rng: np.random.Generator, samples: int
) -> tuple[float, float]:
    """Sampled condition (v) (free output on any input) and exact-case
    condition (vi) (described state is a fixed point) defects."""
    excess = qrt.get_theory(ch.theory).excess
    dims = ch.system_dims
    dim = int(np.prod(dims))
    # each branch's outputs are checked as states before they are judged
    free_defect = max(
        float(excess(density_stack(b.apply_matrix(probes)), dims).max())
        for probes in _density_chunks(dim, rng, samples)
        for b in ch.branches
    )
    fixed_defect = 0.0
    for desc, branch in zip(ch.descriptions, ch.branches):
        out = branch.apply_matrix(desc.state.mat)
        fixed_defect = max(fixed_defect, float(np.abs(out - desc.state.mat).max()))
    return free_defect, fixed_defect


def suite_channel_axioms(samples: int = 100, seed: int = 3) -> SuiteResult:
    """Trace preservation, dephasing idempotence, replacement input
    independence, and sampled branch conditions for every theory.

    Each sampled check draws its probes as stacks of at most CHUNK_BYTES, in
    the order of one draw per probe, and applies a channel to a whole stack
    at once."""
    rng = make_rng(seed)
    result = SuiteResult("channel_axioms", True, samples, seed)
    count = max(samples // 10, 5)

    ginibre = (random_density(2, 2, rng).mat * 2).astype(complex)
    basis, _ = np.linalg.qr(ginibre + np.eye(2))
    plain = [
        identity_channel(2),
        dephasing_channel(basis),
        replacement_channel(random_density(2, 2, rng)),
        depolarizing(2, 0.3),
        amplitude_damping(0.5),
    ]
    for ch in plain:
        for probes in _density_chunks(ch.in_dim, rng, count):
            result.record("trace_preservation", _trace_defects(ch.apply_matrix(probes)), 1e-10)

    deph = dephasing_channel(basis)
    for probes in _density_chunks(2, rng, count):
        once = deph.apply_matrix(probes)
        defects = _max_entries(deph.apply_matrix(once) - once)
        result.record("dephasing_idempotence", defects, 1e-10)

    repl = replacement_channel(random_density(2, 2, rng))
    # the inputs of each pair are successive draws: even rows, then odd rows
    for probes in _density_chunks(2, rng, 2 * count, group=2):
        outs = repl.apply_matrix(probes)
        defects = _max_entries(outs[0::2] - outs[1::2])
        result.record("replacement_input_independence", defects, 1e-10)

    # One conditional channel per theory, eigenbasis dephasing where the
    # descriptions name a basis to dephase in.
    claims = {
        "coherence": [Claim(DensityOperator(np.diag([0.25, 0.75]).astype(complex), (2,)))],
        "imaginarity": [Claim(random_real_density(2, 2, rng)) for _ in range(2)],
        "entanglement": [Claim(ensemble=random_separable_ensemble(rng))],
        "discord": [Claim(maximally_mixed((2, 2)))],
        "locality": [Claim(isotropic(2, 5 / 12))],
    }
    for theory, theory_claims in claims.items():
        descs = [encode_description(theory, c.state, c.ensemble) for c in theory_claims]
        kind = "replacement" if descs[0].basis is None else "eigen_dephasing"
        ch = build_conditional_channel(theory, kind, descs)
        dim = int(np.prod(ch.system_dims))
        probes = random_densities(dim, dim, rng, ch.message_dim)  # one per branch
        outs = np.stack([b.apply_matrix(p) for b, p in zip(ch.branches, probes)])
        result.record("trace_preservation", _trace_defects(outs), 1e-10)
        free_defect, fixed_defect = _branch_condition_defects(ch, rng, samples)
        result.record(f"condition_v_{theory}", free_defect, 1e-9)
        result.record(f"condition_vi_{theory}", fixed_defect, 1e-9)
    return result


SUITES = {
    "affine_unbreakable": suite_affine_unbreakable,
    "convex_unbreakable": suite_convex_unbreakable,
    "discord_breach": suite_discord_breach,
    "activation": suite_activation,
    "channel_axioms": suite_channel_axioms,
}


def run_suite(name: str, samples: int, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name](samples=samples, seed=seed)
