"""Named desk-scale demonstrations exposed through the command line.

Each demo assembles a fixed scenario, runs the protocol, and attaches the
quantities of interest to the report extras.
"""

from __future__ import annotations

import numpy as np

from . import linalg, qrt
from .censorship import (
    CensorshipReport,
    Claim,
    NetworkScenario,
    SenderStrategy,
    _pair_dims,
    build_conditional_channel,
    encode_description,
    noise_comparison,
    run_protocol,
)
from .channels import ChannelSpec, amplitude_damping, dephasing_channel
from .states import DensityOperator, bell_phi_plus, from_pure, isotropic, tensor


def bell_filter_demo() -> CensorshipReport:
    """Replacement censorship of a Bell state claimed as |+-><+-|.

    The untruthful claim makes the agent project onto the claimed product
    state; the honest run with the same description is left untouched.
    """
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    ensemble = [(1.0, (plus, minus))]
    claimed_state = tensor(from_pure(plus), from_pure(minus))

    untruthful = NetworkScenario(
        theory="entanglement",
        channel_kind="replacement",
        strategies=[
            SenderStrategy("untruthful", state=bell_phi_plus(2), claimed=Claim(ensemble=ensemble))
        ],
    )
    report = run_protocol(untruthful)

    honest = NetworkScenario(
        theory="entanglement",
        channel_kind="replacement",
        strategies=[SenderStrategy("honest", ensemble=ensemble)],
    )
    honest_report = run_protocol(honest)

    desc = encode_description("entanglement", ensemble=ensemble)
    report.extras.update(
        {
            "claimed_description": desc.label.decode(),
            "filtered_distance_to_claimed": linalg.hs_distance(
                report.blocks[0][0].mat, claimed_state.mat
            ),
            "honest_roundtrip_distance": linalg.hs_distance(
                honest_report.blocks[0][0].mat, claimed_state.mat
            ),
        }
    )
    return report


def smuggle_eigenstate_demo() -> CensorshipReport:
    """Why eigenbasis dephasing is rejected for entanglement.

    The separable isotropic state at the boundary p = 1/3 has the maximally
    entangled vector among its eigenstates, so the dephasing branch built
    from its description passes that vector through untouched.
    """
    sigma = isotropic(2, 1.0 / 3.0)
    # sigma has no eigen-dephasing description, so the branch takes its eigenbasis
    branch = dephasing_channel(qrt.canonical_eigenbasis(sigma.mat), sigma.dims)
    phi = bell_phi_plus(2)
    receiver = DensityOperator(branch.apply_matrix(phi.mat), phi.dims)
    fixed = DensityOperator(branch.apply_matrix(sigma.mat), sigma.dims)
    verdict = qrt.is_free_entanglement(receiver, cut=(0,))
    return CensorshipReport(
        blocks=((receiver, 1),),
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


def discord_breach_demo(
    components: tuple[DensityOperator, DensityOperator] | None = None, weight: float = 0.5
) -> CensorshipReport:
    """Mixture weight * components[0] + (1 - weight) * components[1] of two
    classical-quantum states (|00> and |+1> by default), each sent under its
    own label, that passes censorship intact and carries discord; the breach
    every conditional channel admits."""
    if components is None:
        zero = from_pure(np.array([1.0, 0.0]))
        one = from_pure(np.array([0.0, 1.0]))
        plus = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
        components = (tensor(zero, zero), tensor(plus, one))
    descs = [encode_description("discord", c) for c in components]
    # each component sits on the message outcome of its label; equal labels share one
    channel = build_conditional_channel("discord", "replacement", descs)
    dims = _pair_dims(channel, 1)
    joint = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for w, comp, desc in zip((weight, 1 - weight), components, descs):
        i = channel.labels.index(desc.label)
        proj = np.zeros((channel.message_dim,) * 2, dtype=complex)
        proj[i, i] = 1.0
        joint += w * np.kron(proj, comp.mat)
    strategy = SenderStrategy(
        "correlated", state=DensityOperator(joint, dims), claimed=descs, spans=1
    )
    scenario = NetworkScenario(
        theory="discord",
        channel_kind="replacement",
        strategies=[strategy],
    )
    report = run_protocol(scenario)
    report.extras.update(
        {
            "component_discord_0": qrt.discord(components[0]),
            "component_discord_1": qrt.discord(components[1]),
            "mixture_discord_nats": report.verdicts["discord"].witness_value,
            "mixture_discord_bits": linalg.entropy_bits(
                report.verdicts["discord"].witness_value
            ),
        }
    )
    return report


def nonlocal_activation_demo(n_senders: int = 2) -> CensorshipReport:
    """Honest senders of the entangled-but-local isotropic state (p = 5/12).

    Each marginal passes censorship unchanged, stays below the CHSH
    violation bound, yet sits in the window where enough copies jointly
    become nonlocal, so the product state escapes local certification.
    """
    p = 5 / 12
    sigma = isotropic(2, p)
    scenario = NetworkScenario(
        theory="locality",
        channel_kind="replacement",
        strategies=[SenderStrategy("honest", state=sigma) for _ in range(n_senders)],
    )
    report = run_protocol(scenario)
    lower, upper = qrt.isotropic_local_range(2)
    worst = max(linalg.hs_distance(block.mat, sigma.mat) for block, _ in report.blocks)
    report.extras.update(
        {
            "mixing_parameter": p,
            "local_window": [float(lower), float(upper)],
            "chsh_parameter": report.verdicts["locality"].witness_value,
            "max_marginal_distance": worst,
            "ppt_witness": report.verdicts["entanglement"].witness_value,
        }
    )
    return report


def noise_correction_demo() -> CensorshipReport:
    """Amplitude-damping links with eigenbasis-dephasing censorship.

    Records the distances to the intended state with and without the
    censoring dephasing; the dephased spectrum majorizes into the noisy one,
    so the censored distance never exceeds the noisy one.
    """
    sigma = from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
    scenario = NetworkScenario(
        theory="imaginarity",
        channel_kind="eigen_dephasing",
        strategies=[SenderStrategy("honest", state=sigma)],
        noise=ChannelSpec("amplitude_damping", {"gamma": 0.5}),
    )
    report = run_protocol(scenario)
    sweeps = {}
    for gamma in (0.1, 0.5, 0.9):
        comparison = noise_comparison(sigma, amplitude_damping(gamma))
        sweeps[f"gamma_{gamma}"] = {
            "d_noisy": comparison.d_noisy,
            "d_censored": comparison.d_censored,
        }
    report.extras.update(
        {
            "gamma_sweep": sweeps,
            "direction": "d_censored <= d_noisy (dephased spectrum is doubly-stochastically "
            "majorized by the noisy one)",
        }
    )
    return report


DEMOS = {
    "bell_filter": bell_filter_demo,
    "eigen_smuggle": smuggle_eigenstate_demo,
    "discord_breach": discord_breach_demo,
    "nonlocal_activation": nonlocal_activation_demo,
    "noise_correction": noise_correction_demo,
}
