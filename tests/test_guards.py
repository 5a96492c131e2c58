"""Every input guard of the library raises its error on the input it guards against.

One case per guard: the call, the exception type and a fragment of its
message.  The dual bound's zero norm is no guard: valid input reaches it.
At equal dark rates the squasher's kernel vector meets no row of the
target (``c = 0``), so the weights ``W`` are 0, and a ``tol`` below the
residual's rounding, as the shipped active descriptor at ``tol: 1e-300``,
is left undecided: ``tests/test_report.py`` checks that ``RuntimeError``.
"""

import numpy as np
import pytest
from helpers import SMALL_LAYOUT

from detcert import (
    DetectionSetup,
    EventTable,
    QuantumChannel,
    SpaceLayout,
    StochasticMatrix,
    apply_postprocessing,
    bb84_qubit_measurement,
    bb84_qubit_squasher,
    bb84_simple_noise_channel,
    bb84_squashed_dark_matrix,
    build_threshold_povm,
    coarse_grained_dc_ansatz,
    compose,
    dark_count_channel,
    dark_count_matrix,
    enumerate_events,
    eta_star_range,
    flag_state_target,
    generic_channel,
    inf_norm_mixing,
    loss_channel,
    loss_split_matrix,
    min_deviation_q,
    multiclick_coarse_graining,
    passive_bb84_setup,
    propagate_weight,
    solve_swap_lp,
    verify_choi_witness,
    verify_cptp,
    weight_bound,
)
from detcert.channels import ChoiConstraintSystem, ChoiSupport
from detcert.descriptor import DescriptorError, descriptor_from_dict
from detcert.detectors import POVM
from detcert.postprocessing import CoarseGraining
from detcert.report import run_weight


def _target(eta=0.9, cutoff=1):
    """The passive BB84 flag-state target at efficiencies ``eta`` (a stack for a ``(depth, 4)`` array)."""
    return flag_state_target(build_threshold_povm(passive_bb84_setup(eta), cutoff), cutoff)


def _bent_target():
    """The passive target with 1e-3 of a single click's one-photon weight moved to a double click."""
    povm = _target()
    dense = povm.dense.copy()
    dense[povm.events.index_of("0001"), 1, 1] -= 1e-3
    dense[povm.events.index_of("0011"), 1, 1] += 1e-3
    return POVM(povm.layout, dense, povm.events)


def _single_detector_povm():
    """A one-detector threshold POVM up to two photons: no multi-click event."""
    return build_threshold_povm(DetectionSetup(k=1, mode_map=np.eye(1), eta=[0.9]), 2)


def _swap_lp(p_sq, p_db=None, tol=1e-9):
    """The swap LP of ``P_sq`` at ``P_db`` (unequal squasher dark rates by default)."""
    p_db = dark_count_matrix([0.01, 0.02]) if p_db is None else StochasticMatrix(p_db)
    return lambda: solve_swap_lp(p_db, StochasticMatrix(p_sq), tol)


_OUT_OF_DOMAIN = "P_sq is outside the closed form's domain"
_SQUASHER = bb84_qubit_squasher().entries
_Z = bb84_qubit_measurement("Z")
_EMPTY = QuantumChannel(SMALL_LAYOUT, SMALL_LAYOUT, ())

CASES = {
    # channels
    "support of mixed layouts": (
        lambda: ChoiSupport.of([bb84_simple_noise_channel(0.1), _EMPTY]),
        ValueError, "share their layouts",
    ),
    "Choi matrix of the wrong shape": (
        lambda: QuantumChannel.from_choi(np.eye(5), SMALL_LAYOUT, SMALL_LAYOUT),
        ValueError, "Choi matrix shape does not match the layouts",
    ),
    "composition of unchained layouts": (
        lambda: compose(bb84_simple_noise_channel(0.1), _EMPTY), ValueError, "layouts do not chain",
    ),
    "bb84 channel rate above 1": (
        lambda: bb84_simple_noise_channel(1.5), ValueError, "dark rate must lie in [0, 1]",
    ),
    "unknown basis": (lambda: bb84_qubit_measurement("Y"), ValueError, "unknown basis 'Y'"),
    "target with a two-photon block": (
        lambda: dark_count_channel(dark_count_matrix([0.01] * 4), _target(cutoff=2)),
        ValueError, "need blocks (m=0, m=1, flag)",
    ),
    "target where clicks outnumber photons": (
        lambda: dark_count_channel(dark_count_matrix([0.01] * 4), _bent_target()),
        ValueError, "clicks outnumber photons: element '0011'",
    ),
    "loss split at eta_star = eta_min": (
        lambda: loss_split_matrix([0.5, 0.6], 0.5), ValueError, "needs eta_star above eta_min",
    ),
    "loss channel with too few efficiencies": (
        lambda: loss_channel([0.9] * 3, 1.0, _target(1.0)),
        ValueError, "does not match the single-click events",
    ),
    "deviation between mismatched measurements": (
        lambda: min_deviation_q(_Z, _target()), ValueError, "measurements do not match",
    ),
    "generic channel with q above 1": (
        lambda: generic_channel(_target(), _target(), 1.5), ValueError, "q must lie in [0, 1]",
    ),
    "negative mixing": (lambda: inf_norm_mixing(_Z, -0.1), ValueError, "delta must be nonnegative"),
    "NaN mixing": (lambda: inf_norm_mixing(_Z, np.nan), ValueError, "delta must be nonnegative"),
    "infinite mixing": (lambda: inf_norm_mixing(_Z, np.inf), ValueError, "delta must be nonnegative"),
    "post-processing of the wrong shape": (
        lambda: ChoiConstraintSystem((np.eye(2), _Z, _Z)),
        ValueError, "post-processing shape (2, 2) does not map 3 -> 3 events",
    ),
    "CPTP check of a stack": (
        lambda: verify_cptp(
            dark_count_channel(dark_count_matrix([0.01] * 4), _target(np.array([[0.9] * 4, [0.8] * 4]))),
            1e-9,
        ),
        ValueError, "a stack of 2 channels",
    ),
    # detectors
    "event labels and classes of unequal length": (
        lambda: EventTable(k=1, labels=("0",), classes=("no-click", "single")),
        ValueError, "equal length",
    ),
    "unknown event class": (
        lambda: EventTable(k=1, labels=("0", "1"), classes=("no-click", "double")),
        ValueError, "unknown event classes {'double'}",
    ),
    "no-click event not first": (
        lambda: EventTable(k=1, labels=("1", "0"), classes=("single", "no-click")),
        ValueError, "exactly one no-click event",
    ),
    "no detectors": (lambda: enumerate_events(0), ValueError, "detector count 0 outside [1, 16]"),
    "seventeen detectors": (lambda: enumerate_events(17), ValueError, "detector count 17 outside [1, 16]"),
    # a count of another type is no count out of range: its message names the type
    "numpy detector count": (
        lambda: enumerate_events(np.int64(2)), ValueError, "detector count must be an int, not int64",
    ),
    "float detector count": (lambda: enumerate_events(2.0), ValueError, "detector count must be an int, not float"),
    "setup with a numpy detector count": (
        lambda: build_threshold_povm(DetectionSetup(k=np.int64(2), mode_map=np.eye(2), eta=[1.0] * 2), 1),
        ValueError, "detector count must be an int, not int64",
    ),
    "unknown event label": (
        lambda: enumerate_events(2).index_of("bogus"), KeyError, "no event labelled 'bogus'",
    ),
    "mode map with the wrong row count": (
        lambda: DetectionSetup(k=2, mode_map=np.eye(3), eta=[1.0, 1.0]),
        ValueError, "mode_map must be k x n_in with k=2",
    ),
    "setup with too many efficiencies": (
        lambda: DetectionSetup(k=2, mode_map=np.eye(2), eta=[1.0] * 3),
        ValueError, "eta must have length 2",
    ),
    "passive setup with three efficiencies": (
        lambda: passive_bb84_setup([0.5, 0.6, 0.7]), ValueError, "expected 4 efficiencies, got 3",
    ),
    "five detectors": (
        lambda: build_threshold_povm(DetectionSetup(k=5, mode_map=np.eye(5)[:, :2], eta=[1.0] * 5), 1),
        ValueError, "detector count 5 exceeds 4",
    ),
    # postprocessing
    "stochastic vector": (lambda: StochasticMatrix([1.0]), ValueError, "entries must be a matrix"),
    "fractional coarse graining": (
        lambda: CoarseGraining([[0.5, 1.0], [0.5, 0.0]]), ValueError, "entries must be 0 or 1",
    ),
    "post-processing of the wrong width": (
        lambda: apply_postprocessing(StochasticMatrix(np.eye(2)), _Z),
        ValueError, "matrix columns must match the POVM element count",
    ),
    "post-processing without an event table": (
        lambda: apply_postprocessing(StochasticMatrix(np.eye(3)), _Z),
        ValueError, "no event table for the output POVM",
    ),
    "coarse graining of another table": (
        lambda: coarse_grained_dc_ansatz(
            dark_count_matrix([0.01] * 2), multiclick_coarse_graining(enumerate_events(4))
        ),
        ValueError, "coarse graining does not match the dark-count map",
    ),
    "swap LP of a rank-deficient P_sq": (
        _swap_lp([[0.5, 0, 0.5, 0], [0.5, 0, 0.5, 0], [0, 1, 0, 1]]), ValueError, _OUT_OF_DOMAIN,
    ),
    "swap LP of a P_sq with a 2-dimensional kernel": (  # the squasher with its double-click column repeated
        _swap_lp(np.hstack([_SQUASHER, _SQUASHER[:, 3:]]), np.eye(5)), ValueError, _OUT_OF_DOMAIN,
    ),
    "swap LP with a negative closed form": (  # P_dc would be [[1.25, 0.25], [-0.25, 0.75]]
        _swap_lp([[1, 0, 0.5], [0, 1, 0.5]], [[1, 0, 1], [0, 1, 0], [0, 0, 0]]), ValueError, _OUT_OF_DOMAIN,
    ),
    "swap LP at a negative tol": (_swap_lp(_SQUASHER, tol=-1.0), ValueError, "tol must be positive and finite"),
    "swap LP at a NaN tol": (_swap_lp(_SQUASHER, tol=float("nan")), ValueError, "tol must be positive and finite"),
    "swap LP at an infinite tol": (
        _swap_lp(_SQUASHER, tol=float("inf")), ValueError, "tol must be positive and finite",
    ),
    "squashed dark rate above 1": (
        lambda: bb84_squashed_dark_matrix(1.5), ValueError, "dark rate must lie in [0, 1]",
    ),
    # squashing
    "multi-click event of one detector": (
        lambda: weight_bound(_single_detector_povm(), "multi", 0.1, 1),
        ValueError, "event table has no multi-click events",
    ),
    "observed probability above 1": (
        lambda: weight_bound(_single_detector_povm(), 1, 1.5, 1),
        ValueError, "observed probability must lie in [0, 1]",
    ),
    "no-dark probability above 1": (
        lambda: propagate_weight(0.1, 1.5, 0.5, 0.9), ValueError, "p_no_dark must lie in [0, 1]",
    ),
    "zero eta_star": (
        lambda: propagate_weight(0.1, 0.9, 0.0, 0.0), ValueError, "eta_star must lie in (0, 1]",
    ),
    # fock
    "layout without blocks": (lambda: SpaceLayout(()), ValueError, "needs at least one block"),
    "dimension of an unknown block": (lambda: SMALL_LAYOUT.dim("m=5"), KeyError, "no block 'm=5'"),
    "offset of an unknown block": (lambda: SMALL_LAYOUT.offset("m=5"), KeyError, "no block 'm=5'"),
    # feasibility
    "witness of the wrong shape": (
        lambda: verify_choi_witness(np.eye(4), bb84_squashed_dark_matrix(0.01), _Z, _Z, 1e-6),
        ValueError, "Choi matrix shape does not match the measurements",
    ),
    # report
    "weight at cutoff 3": (
        lambda: run_weight(
            descriptor_from_dict(
                {"setup": "passive-bb84", "cutoff": 3, "observed": {"event": "multi", "probability": 0.01}}
            )
        ),
        DescriptorError, "cutoff: weight estimation needs cutoff <= 2",
    ),
    "weight from an uninformative event": (
        lambda: run_weight(
            descriptor_from_dict(
                {"setup": "passive-bb84", "eta_range": [0.5, 0.5], "observed": {"event": "0000", "probability": 0.1}}
            )
        ),
        DescriptorError, "observed: uninformative event",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_guard_rejects_its_input(name):
    call, error, fragment = CASES[name]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("eta_min", [1e-17, 3e-13])
def test_eta_star_range_at_unit_efficiency_is_one(eta_min):
    # 1 - (1 - eta_min) would round to 0 or cancel to 0.99994 eta_min; (1 - 1) + eta_min is exact
    assert eta_star_range(eta_min, 1.0) == (1.0, 1.0)


def test_kept_objects_guard_keys_equal_to_cached_ones():
    # valid keys are cached first: an argument equal to one of them that its
    # guard rejects must not be answered from the cache (an untyped cache
    # keys a lone positional int apart from a float, but not a keyword one)
    enumerate_events(1), enumerate_events(2), enumerate_events(k=1), enumerate_events(k=2)
    for k in (1.0, np.int64(2), 0):
        for call in (lambda: enumerate_events(k), lambda: enumerate_events(k=k)):
            with pytest.raises(ValueError, match="detector count"):
                call()
    assert enumerate_events(True) == enumerate_events(1)
    multiclick_coarse_graining(enumerate_events(4))
    with pytest.raises(ValueError, match="at least 2 detectors"):
        multiclick_coarse_graining(enumerate_events(1))
    bb84_qubit_measurement("Z")
    for basis in ("Y", ["Z"]):
        with pytest.raises(ValueError, match="unknown basis"):
            bb84_qubit_measurement(basis)
