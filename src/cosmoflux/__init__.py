"""Work and entropy statistics of bosonic two-mode squeezing channels.

Particle pairs created by a smooth change of an effective frequency are
modeled as a two-mode squeezing unitary acting on a truncated Fock space.
The package builds the exact transition kernel, feeds thermal initial
states through it, and verifies the fluctuation relations the resulting
work and entropy distributions must satisfy.
"""

from .errors import (
    ConfigError,
    CosmofluxError,
    EntropyUndefinedError,
    LeakageError,
    NumericError,
    VerificationError,
)
from .fock import (
    TransitionKernel,
    TruncationSpec,
    squeeze_operator_oracle,
    suggested_cutoff,
    transition_kernel,
    vacuum_column_leakage,
)
from .spacetime import (
    BlackHoleParams,
    CosmologyParams,
    SqueezeChannel,
    UnruhParams,
    asymptotic_frequencies,
    channel_from_blackhole,
    channel_from_cosmology,
    channel_from_unruh,
    conformal_factor,
    squeeze_from_blackhole,
    squeeze_from_cosmology,
    squeeze_from_unruh,
)
from .thermo import (
    ThermalDistribution,
    WorkReport,
    adiabatic_work,
    inner_friction,
    mean_created_closed_form,
    thermal_distribution,
)
from .fluctuation import (
    CrooksReport,
    EntropyDistribution,
    crooks_deviation,
    entropy_distributions,
    entropy_friction_identity,
    integral_fluctuation_defect,
    mean_entropy,
    mean_entropy_and_kl,
    quantum_relative_entropy,
)
from .report import (
    RunConfig,
    SweepConfig,
    canonical_config,
    render_csv,
    render_json,
    resolve_channel,
    round_sig,
    run_simulation,
    run_sweep,
    verify_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "BlackHoleParams",
    "ConfigError",
    "CosmofluxError",
    "CosmologyParams",
    "CrooksReport",
    "EntropyDistribution",
    "EntropyUndefinedError",
    "LeakageError",
    "NumericError",
    "RunConfig",
    "SqueezeChannel",
    "SweepConfig",
    "ThermalDistribution",
    "TransitionKernel",
    "TruncationSpec",
    "UnruhParams",
    "VerificationError",
    "WorkReport",
    "adiabatic_work",
    "asymptotic_frequencies",
    "canonical_config",
    "channel_from_blackhole",
    "channel_from_cosmology",
    "channel_from_unruh",
    "conformal_factor",
    "crooks_deviation",
    "entropy_distributions",
    "entropy_friction_identity",
    "inner_friction",
    "integral_fluctuation_defect",
    "mean_created_closed_form",
    "mean_entropy",
    "mean_entropy_and_kl",
    "quantum_relative_entropy",
    "render_csv",
    "render_json",
    "resolve_channel",
    "round_sig",
    "run_simulation",
    "run_sweep",
    "squeeze_from_blackhole",
    "squeeze_from_cosmology",
    "squeeze_from_unruh",
    "squeeze_operator_oracle",
    "suggested_cutoff",
    "thermal_distribution",
    "transition_kernel",
    "vacuum_column_leakage",
    "verify_invariants",
]
