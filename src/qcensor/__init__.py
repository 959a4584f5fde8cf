"""Censorship of quantum resources in networks: states, channels, resource
theories, and the conditional censorship protocol engine."""

from .censorship import (
    CensorshipReport,
    Claim,
    ConditionalRDChannel,
    NetworkScenario,
    NoiseComparison,
    ScenarioError,
    SenderStrategy,
    apply_censorship,
    build_conditional_channel,
    encode_description,
    noise_comparison,
    run_protocol,
)
from .channels import (
    ChannelSpec,
    ChoiMatrix,
    EbVerdict,
    GeneralLinearMap,
    KrausChannel,
    amplitude_damping,
    apply,
    choi,
    dephasing_channel,
    depolarizing,
    identity_channel,
    imaginarity_rd_map,
    is_completely_positive,
    is_entanglement_breaking,
    mix_maps,
    replacement_channel,
    transpose_map,
)
from .demos import smuggle_eigenstate_demo
from .qrt import (
    Description,
    DiscordOptions,
    ResourceTheory,
    ResourceVerdict,
    THEORIES,
    chsh_parameter,
    discord,
    is_classical_quantum,
    is_free_coherence,
    is_free_entanglement,
    is_free_imaginarity,
    isotropic_local_range,
    ppt_all_cuts,
)
from .states import (
    DensityOperator,
    StateReport,
    bell_phi_plus,
    from_pure,
    isotropic,
    make_rng,
    maximally_mixed,
    random_density,
    random_real_density,
    tensor,
    validate,
)

__version__ = "0.1.0"
