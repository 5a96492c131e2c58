"""Reduce imperfect threshold-detector setups to ideal ones, with certificates.

The library builds threshold-detector POVMs on truncated photon-number
blocks, models dark counts and loss as classical post-processing, squashes
to flag-state target measurements, constructs the noise channels that
absorb the imperfections, and certifies every claimed identity numerically.
Channels are held as their Choi matrices' values on the support of their
terms; CPTP, statistics equivalence and the weight relations are checked on
them as exact operator identities over the whole input space, and the swap LP and every
Choi witness, closed-form or from the feasibility probe, are re-verified without a solver.
"""

__version__ = "0.1.0"

# Each public name under the module that defines it.  A name's module is
# imported on the name's first use, so loading a descriptor loads only
# ``fock``, ``detectors`` and ``descriptor``.
_EXPORTS = {
    "fock": ("SpaceLayout",),
    "detectors": (
        "DetectionSetup",
        "EventTable",
        "POVM",
        "active_bb84_setups",
        "build_threshold_povm",
        "enumerate_events",
        "passive_bb84_setup",
        "verify_single_photon_assumption",
    ),
    "postprocessing": (
        "CoarseGraining",
        "StochasticMatrix",
        "apply_postprocessing",
        "bb84_qubit_squasher",
        "bb84_squashed_dark_matrix",
        "coarse_grained_dc_ansatz",
        "dark_count_matrix",
        "multiclick_coarse_graining",
        "single_photon_loss_matrix",
        "solve_swap_lp",
        "validate_dark_count_pp",
    ),
    "squashing": ("WeightBound", "eta_star_range", "flag_state_target", "propagate_weight", "weight_bound"),
    "channels": (
        "QuantumChannel",
        "bb84_qubit_measurement",
        "bb84_simple_noise_channel",
        "compose",
        "dark_count_channel",
        "generic_channel",
        "inf_norm_mixing",
        "loss_channel",
        "loss_split_matrix",
        "min_deviation_q",
        "verify_cptp",
        "verify_statistics_equivalence",
    ),
    "feasibility": ("FeasibilityResult", "choi_feasibility", "measure_prepare_witness", "verify_choi_witness",
                    "verify_farkas_ray"),
    "descriptor": ("SetupDescriptor", "load_descriptor"),
    "report": ("Certificate", "emit_certificate", "run_analysis"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__`` (not ``importlib.import_module``), so ``-X importtime`` lists the module
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
