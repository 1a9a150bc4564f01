"""Capacity analysis of two simple quantum communication channels.

A particle-placement channel (free-particle Gaussian wavepacket whose
dispersion acts as additive noise) and a two-level tunneling channel
(Rabi-type population oscillations inducing a time-dependent binary
channel), with closed-form dynamics, capacity solvers, and independent
brute-force numerical oracles for every closed form.
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianPrep,
    PowerBudget,
    beta,
    capacity_at_optimum,
    capacity_nats,
    capacity_vs_precision_curve,
    density_at,
    noise_variance,
    optimal_sigma2,
    placement_power,
    wavefunction_at,
)
from .infotheory import (
    CapacityResult,
    blahut_arimoto,
    capacity_binary,
    capacity_grid,
    shannon_entropy,
    two_level_capacities,
    two_level_capacity,
)
from .oracle import GridState, discretize, grid_variance, propagate_spectral, unitary_evolve_2x2
from .twolevel import (
    BinaryChannel,
    EigenSystem,
    PrepBias,
    TwoLevelHamiltonian,
    TwoLevelState,
    channel_at,
    channel_matrices,
    eigensystem,
    eps_for_gamma,
    evolve,
    period,
    transition_probs,
)
from .units import HBAR_SI, Constants, UnitMode, constants_for

__all__ = [
    "__version__",
    "HBAR_SI",
    "Constants",
    "UnitMode",
    "constants_for",
    "GaussianPrep",
    "PowerBudget",
    "noise_variance",
    "density_at",
    "wavefunction_at",
    "capacity_nats",
    "optimal_sigma2",
    "capacity_at_optimum",
    "placement_power",
    "beta",
    "capacity_vs_precision_curve",
    "TwoLevelHamiltonian",
    "PrepBias",
    "TwoLevelState",
    "EigenSystem",
    "BinaryChannel",
    "eigensystem",
    "evolve",
    "transition_probs",
    "period",
    "eps_for_gamma",
    "channel_at",
    "channel_matrices",
    "CapacityResult",
    "shannon_entropy",
    "capacity_binary",
    "capacity_grid",
    "blahut_arimoto",
    "two_level_capacity",
    "two_level_capacities",
    "GridState",
    "discretize",
    "propagate_spectral",
    "grid_variance",
    "unitary_evolve_2x2",
]
