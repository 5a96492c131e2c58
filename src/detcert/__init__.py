"""Reduce imperfect threshold-detector setups to ideal ones, with certificates.

The library builds threshold-detector POVMs on truncated photon-number
blocks, models dark counts and loss as classical post-processing, squashes
to flag-state target measurements, constructs the noise channels that
absorb the imperfections, and certifies every claimed identity numerically.
Channels are held as their Choi matrices' values on the support of their
terms; CPTP, statistics equivalence and the weight relations are checked on
them as exact operator identities over the whole input space, and the swap LP and the Choi feasibility probe are
re-verified without their solvers.
"""

__version__ = "0.1.0"

from .fock import SpaceLayout
from .detectors import (
    DetectionSetup,
    EventTable,
    POVM,
    active_bb84_setups,
    build_threshold_povm,
    enumerate_events,
    passive_bb84_setup,
    verify_single_photon_assumption,
)
from .postprocessing import (
    CoarseGraining,
    StochasticMatrix,
    apply_postprocessing,
    bb84_qubit_squasher,
    bb84_squashed_dark_matrix,
    coarse_grained_dc_ansatz,
    dark_count_matrix,
    multiclick_coarse_graining,
    single_photon_loss_matrix,
    solve_swap_lp,
    validate_dark_count_pp,
)
from .squashing import (
    WeightBound,
    eta_star_range,
    flag_state_target,
    propagate_weight,
    weight_bound,
)
from .channels import (
    QuantumChannel,
    bb84_qubit_measurement,
    bb84_simple_noise_channel,
    compose,
    dark_count_channel,
    generic_channel,
    inf_norm_mixing,
    loss_channel,
    loss_split_matrix,
    min_deviation_q,
    verify_cptp,
    verify_statistics_equivalence,
)
from .feasibility import (
    FeasibilityResult,
    choi_feasibility,
    verify_choi_witness,
    verify_farkas_ray,
)
from .report import (
    Certificate,
    SetupDescriptor,
    emit_certificate,
    load_descriptor,
    run_analysis,
)

__all__ = [
    "Certificate",
    "CoarseGraining",
    "DetectionSetup",
    "EventTable",
    "FeasibilityResult",
    "POVM",
    "QuantumChannel",
    "SetupDescriptor",
    "SpaceLayout",
    "StochasticMatrix",
    "WeightBound",
    "active_bb84_setups",
    "apply_postprocessing",
    "bb84_qubit_measurement",
    "bb84_qubit_squasher",
    "bb84_simple_noise_channel",
    "bb84_squashed_dark_matrix",
    "build_threshold_povm",
    "choi_feasibility",
    "coarse_grained_dc_ansatz",
    "compose",
    "dark_count_channel",
    "dark_count_matrix",
    "emit_certificate",
    "enumerate_events",
    "eta_star_range",
    "flag_state_target",
    "generic_channel",
    "inf_norm_mixing",
    "load_descriptor",
    "loss_channel",
    "loss_split_matrix",
    "min_deviation_q",
    "multiclick_coarse_graining",
    "passive_bb84_setup",
    "propagate_weight",
    "run_analysis",
    "single_photon_loss_matrix",
    "solve_swap_lp",
    "validate_dark_count_pp",
    "verify_choi_witness",
    "verify_cptp",
    "verify_farkas_ray",
    "verify_single_photon_assumption",
    "verify_statistics_equivalence",
    "weight_bound",
]
