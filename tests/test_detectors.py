import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from helpers import (
    random_block_povm,
    reference_checked_elements,
    reference_threshold_povm,
    stack_blocks,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detcert import (
    DetectionSetup,
    EventTable,
    active_bb84_setups,
    bb84_simple_noise_channel,
    bb84_squashed_dark_matrix,
    build_threshold_povm,
    enumerate_events,
    flag_state_target,
    generic_channel,
    passive_bb84_setup,
    propagate_weight,
    verify_single_photon_assumption,
    weight_bound,
)
from detcert.channels import (
    CPTPReport,
    EquivalenceReport,
    QuantumChannel,
    _KeepBlocks,
    verify_cptp,
    verify_statistics_equivalence,
)
from detcert.detectors import POVM, SinglePhotonAssumptionReport, _lift_isometry, _Verdict
from detcert.feasibility import ChoiWitnessReport, verify_choi_witness
from detcert.fock import SpaceLayout
from detcert.postprocessing import (
    DarkCountConditionsReport,
    _single_photon_loss_entries,
    dark_count_matrix,
    validate_dark_count_pp,
)


def test_enumerate_events_k1():
    table = enumerate_events(1)
    assert table.labels == ("0", "1")
    assert table.classes == ("no-click", "single")


def test_enumerate_events_k2():
    table = enumerate_events(2)
    assert table.labels == ("00", "01", "10", "11")
    assert table.classes == ("no-click", "single", "single", "multi")


def test_enumerate_events_k4_counts():
    table = enumerate_events(4)
    assert table.n_events == 16
    assert table.classes.count("no-click") == 1
    assert table.classes.count("single") == 4
    assert table.classes.count("multi") == 11
    # ordered by click count, then numeric mask
    counts = [lab.count("1") for lab in table.labels]
    assert counts == sorted(counts)


def test_enumerate_events_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_events(0)
    with pytest.raises(ValueError):
        enumerate_events(17)


def test_vacuum_block_is_no_click():
    povm = build_threshold_povm(passive_bb84_setup(0.7), 1)
    vac = povm.block("m=0")
    assert vac[0, 0, 0] == pytest.approx(1.0)
    assert np.abs(vac[1:]).max() == pytest.approx(0.0, abs=1e-15)


def test_single_detector_click_probability():
    setup = DetectionSetup(k=1, mode_map=np.array([[1.0]]), eta=np.array([0.8]))
    povm = build_threshold_povm(setup, 1)
    no_click, click = povm.block("m=1")
    assert click[0, 0] == pytest.approx(0.8)
    assert no_click[0, 0] == pytest.approx(0.2)


def test_completeness_all_blocks():
    povm = build_threshold_povm(passive_bb84_setup([0.5, 0.7, 0.9, 0.6]), 3)
    for lab in povm.layout.labels:
        total = povm.block(lab).sum(axis=0)
        np.testing.assert_allclose(total, np.eye(povm.layout.dim(lab)), atol=1e-10)


def test_single_photon_blocks_match_path_oracle():
    # Independent oracle: one photon in input mode j reaches detector i with
    # amplitude U[i, j] and clicks there with probability eta_i, so the
    # single-click block is the rank-one operator eta_s u_s u_s^dag.
    eta = np.array([0.8, 0.65, 0.9, 0.75])
    setup = passive_bb84_setup(eta)
    povm = build_threshold_povm(setup, 1)
    u = setup.mode_map
    expected_no_click = np.eye(2, dtype=complex)
    for s, idx in zip(range(4), povm.events.single_indices):
        row = u[s, :]
        expected = eta[s] * np.outer(row.conj(), row)
        np.testing.assert_allclose(povm.block("m=1")[idx], expected, atol=1e-12)
        expected_no_click -= expected
    np.testing.assert_allclose(povm.block("m=1")[0], expected_no_click, atol=1e-12)


def test_multiclick_one_photon_blocks_vanish():
    povm = build_threshold_povm(passive_bb84_setup(0.85), 2)
    assert np.abs(povm.block("m=1")[list(povm.events.multi_indices)]).max() == 0.0


def test_m0_blocks_independent_of_eta():
    a = build_threshold_povm(passive_bb84_setup(0.3), 1)
    b = build_threshold_povm(passive_bb84_setup(0.95), 1)
    np.testing.assert_allclose(a.block("m=0"), b.block("m=0"), atol=1e-12)


def _assert_same_setup(a: DetectionSetup, b: DetectionSetup):
    for f in dataclasses.fields(DetectionSetup):
        x, y = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


@pytest.mark.parametrize(
    "build, k, eta, want",
    [
        (passive_bb84_setup, 4, 0.5, [0.5] * 4),
        (passive_bb84_setup, 4, [0.5], [0.5] * 4),
        (lambda eta: active_bb84_setups(eta)["X"], 2, 0.5, [0.5] * 2),
        # a (depth, k) stack stays a stack, at k = 1 too
        (lambda eta: DetectionSetup(k=1, mode_map=np.eye(1), eta=eta), 1, [[0.2], [0.5], [0.9]], [[0.2], [0.5], [0.9]]),
    ],
    ids=["passive-scalar", "passive-one-element", "active-scalar", "one-detector-stack"],
)
def test_a_setup_takes_one_efficiency_for_every_detector(build, k, eta, want):
    setup = build(eta)
    assert setup.eta.tolist() == want
    _assert_same_setup(setup, DetectionSetup(k=k, mode_map=setup.mode_map, eta=eta))
    _assert_same_setup(setup.with_eta(0.6), build(0.6))
    _assert_same_setup(build(0.6), DetectionSetup(k=k, mode_map=setup.mode_map, eta=0.6))


def test_k1_matches_loss_postprocessing():
    # On at most one photon the lossy POVM is the loss map applied to the
    # lossless one.
    setup = DetectionSetup(k=1, mode_map=np.array([[1.0]]), eta=np.array([1.0]))
    lossless = build_threshold_povm(setup, 1)
    lossy = build_threshold_povm(setup.with_eta(0.6), 1)
    p = _single_photon_loss_entries(np.array([0.6]))
    for lab in ("m=0", "m=1"):
        mixed = np.einsum("ij,jab->iab", p, lossless.block(lab))
        np.testing.assert_allclose(lossy.block(lab), mixed, atol=1e-12)


def _random_isometry(rng, k, n_in):
    g = rng.normal(size=(k, n_in)) + 1j * rng.normal(size=(k, n_in))
    q, _ = np.linalg.qr(g)
    return q[:, :n_in]


def _fock_state(occ) -> np.ndarray:
    """The normalised Fock state ``occ`` in the tensor power of ``C^len(occ)``: the symmetrised product."""
    modes = [i for i, n in enumerate(occ) for _ in range(n)]
    state = np.zeros(len(occ) ** len(modes))
    for order in itertools.permutations(modes):
        state[np.ravel_multi_index(order, (len(occ),) * len(modes))] += 1.0
    return state / math.sqrt(math.factorial(len(modes)) * math.prod(map(math.factorial, occ)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 4), m=st.integers(0, 3))
def test_lift_is_the_tensor_power_on_fock_states(seed, k, m):
    # V[n, t] = <n| U^(x)m |t>: the m-photon action of the mode map U,
    # with no permanent and no creation operators
    rng = np.random.default_rng(seed)
    u = _random_isometry(rng, k, int(rng.integers(1, k + 1)))
    v, det_occs, in_occs = _lift_isometry(u, m)
    for occs, n_modes in ((det_occs, k), (in_occs, u.shape[1])):
        every = [o for o in itertools.product(range(m + 1), repeat=n_modes) if sum(o) == m]
        assert sorted(occs) == sorted(every) and len(occs) == len(every)
    power = functools.reduce(np.kron, [u] * m, np.ones((1, 1)))
    det_states = np.array([_fock_state(occ) for occ in det_occs])
    in_states = np.array([_fock_state(occ) for occ in in_occs])
    assert np.abs(v - det_states @ power @ in_states.T).max() <= 1e-14


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_detector_relabelling_permutes_elements(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n_in = int(rng.integers(1, k + 1))
    eta = rng.uniform(0.3, 1.0, k)
    setup = DetectionSetup(k=k, mode_map=_random_isometry(rng, k, n_in), eta=eta)
    perm = rng.permutation(k)
    permuted = DetectionSetup(k=k, mode_map=setup.mode_map[perm, :], eta=eta[perm])
    a = build_threshold_povm(setup, 2)
    b = build_threshold_povm(permuted, 2)
    # pattern in the permuted labelling: new detector i is old detector perm[i]
    for new_mask in b.events.masks:
        old_mask = 0
        for i in range(k):
            if (new_mask >> i) & 1:
                old_mask |= 1 << perm[i]
        old_idx = a.events.masks.index(old_mask)
        new_idx = b.events.masks.index(new_mask)
        for lab in ("m=0", "m=1", "m=2"):
            np.testing.assert_allclose(
                b.block(lab)[new_idx], a.block(lab)[old_idx], atol=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
    cutoff=st.integers(1, 3),
    eta_kind=st.lists(st.sampled_from(["zero", "one", "random"]), min_size=4, max_size=4),
)
@example(seed=0, k=4, cutoff=3, eta_kind=["zero", "one", "random", "random"])
@example(seed=1, k=1, cutoff=2, eta_kind=["zero"] * 4)
@example(seed=2, k=3, cutoff=3, eta_kind=["one"] * 4)
def test_threshold_povm_matches_per_mask_loop(seed, k, cutoff, eta_kind):
    # random isometric mode map of k detector modes by 1..k input modes
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(1, k + 1))
    g = rng.normal(size=(k, n_in)) + 1j * rng.normal(size=(k, n_in))
    mode_map = np.linalg.qr(g)[0]
    pick = {"zero": 0.0, "one": 1.0}
    eta = np.array([pick.get(kind, rng.uniform()) for kind in eta_kind[:k]])
    setup = DetectionSetup(k=k, mode_map=mode_map, eta=eta)
    povm = build_threshold_povm(setup, cutoff)
    assert np.abs(povm.dense - reference_threshold_povm(setup, cutoff)).max() <= 1e-14


def test_active_bb84_setups_are_unitary():
    setups = active_bb84_setups(0.8)
    assert set(setups) == {"Z", "X"}
    for s in setups.values():
        np.testing.assert_allclose(
            s.mode_map @ s.mode_map.conj().T, np.eye(2), atol=1e-12
        )


def test_active_bb84_single_photon_projectors():
    # X basis: a photon reaches each detector through the balanced splitter,
    # so the click elements are eta times the |+-><+-| projectors
    eta = 0.85
    povm = build_threshold_povm(active_bb84_setups(eta)["X"], 1)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    one = dict(zip(povm.events.labels, povm.block("m=1")))
    np.testing.assert_allclose(one["01"], eta * np.outer(plus, plus), atol=1e-12)
    np.testing.assert_allclose(one["10"], eta * np.outer(minus, minus), atol=1e-12)
    np.testing.assert_allclose(one["00"], (1 - eta) * np.eye(2), atol=1e-12)


def test_desk_scale_guards():
    setup = passive_bb84_setup(1.0)
    with pytest.raises(ValueError):
        build_threshold_povm(setup, 4)
    with pytest.raises(ValueError):
        build_threshold_povm(setup, 0)


def test_non_isometric_mode_map_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        DetectionSetup(k=2, mode_map=np.array([[1.0, 0.0], [1.0, 0.0]]), eta=np.ones(2))
    with pytest.raises(ValueError):
        DetectionSetup(k=1, mode_map=np.array([[1.0]]), eta=np.array([1.2]))


def test_assumption_report_passes_for_builtin():
    report = verify_single_photon_assumption(
        build_threshold_povm(passive_bb84_setup(0.8), 1)
    )
    assert report.passed
    assert report.max_violation <= 1e-10
    assert report.violations == ()


def test_assumption_report_catches_injected_violation():
    povm = build_threshold_povm(passive_bb84_setup(1.0), 1)
    # move some one-photon weight from a single-click to a multi-click
    # element, keeping PSD-ness and completeness intact
    s = povm.events.single_indices[0]
    m = povm.events.multi_indices[0]
    dense = np.array(povm.dense)
    one = povm.layout.slice_of("m=1")
    bump = 0.1 * dense[s, one, one]
    dense[s, one, one] -= bump
    dense[m, one, one] += bump
    edited = POVM(povm.layout, dense, povm.events)
    report = verify_single_photon_assumption(edited)
    assert not report.passed
    offending = {label for label, _, _ in report.violations}
    assert povm.events.labels[m] in offending
    # the shared pass rule: residual <= tolerance, the residual being max_violation
    assert report.residual == report.max_violation
    assert dataclasses.replace(report, tolerance=report.max_violation).passed
    assert not dataclasses.replace(report, tolerance=np.nextafter(report.max_violation, 0.0)).passed


def _verdict_subclasses(cls=_Verdict):
    for sub in cls.__subclasses__():
        yield sub
        yield from _verdict_subclasses(sub)


def test_every_verdict_declares_passed_once_as_a_computed_field():
    events = enumerate_events(2)
    povm = build_threshold_povm(active_bb84_setups()["Z"], 1)
    identity = QuantumChannel(povm.layout, povm.layout, (_KeepBlocks(1.0, np.eye(3)),))
    samples = {
        SinglePhotonAssumptionReport: lambda: verify_single_photon_assumption(povm),
        DarkCountConditionsReport: lambda: validate_dark_count_pp(dark_count_matrix([0.1, 0.2]), events),
        CPTPReport: lambda: verify_cptp(identity, 1e-9),
        EquivalenceReport: lambda: verify_statistics_equivalence(None, povm, povm, identity),
        ChoiWitnessReport: lambda: verify_choi_witness(identity.choi, None, povm, povm, 1e-9),
    }
    assert set(_verdict_subclasses()) == set(samples)  # a new report needs a sample here
    for cls, sample in samples.items():
        (passed,) = [f for f in dataclasses.fields(cls) if f.name == "passed"]
        assert passed.init is False and "passed" not in vars(cls).get("__annotations__", {})
        report = sample()
        assert type(report) is cls and report.passed
        assert dataclasses.asdict(report)["passed"] is True


def test_assumption_vacuous_for_single_detector():
    setup = DetectionSetup(k=1, mode_map=np.array([[1.0]]), eta=np.array([0.5]))
    report = verify_single_photon_assumption(build_threshold_povm(setup, 1))
    assert report.passed


def _random_measurement(rng, photon_dims, n, flags):
    """Complete measurement with strictly positive blocks and, optionally, exact flags."""
    blocks = [(f"m={m}", d) for m, d in enumerate(photon_dims)]
    layout = SpaceLayout(tuple(blocks) + ((("flag", n),) if flags else ()))
    per_block = random_block_povm(rng, photon_dims, n)
    events = EventTable(
        k=n - 1,
        labels=tuple(f"e{i}" for i in range(n)),
        classes=("no-click",) + ("single",) * (n - 1),
        masks=(),
    )
    elements = []
    for i in range(n):
        parts = {lab: per_block[b][i] for b, (lab, _) in enumerate(blocks)}
        if flags:
            parts["flag"] = np.diag(np.eye(n)[i])
        elements.append(parts)
    return layout, elements, events


def _verdict(build):
    """``None`` if ``build()`` accepts, else the error message up to its number."""
    try:
        build()
    except ValueError as exc:
        return str(exc).split("(")[0].split(" by ")[0]
    return None


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    photon_dims=st.sampled_from([(1, 2), (1, 3), (1, 2, 3), (1,)]),
    n=st.integers(2, 4),
    flags=st.booleans(),
    psd_push=st.sampled_from([None, -0.01, -0.002, 0.002, 0.01]),
    completeness_push=st.sampled_from([None, -0.01, -0.002, 0.002, 0.01]),
    structure_push=st.sampled_from(
        [None, ("upper", -0.1), ("upper", 0.1), ("off-block", -0.1), ("off-block", 0.1)]
    ),
)
@example(
    seed=3, photon_dims=(1, 2), n=3, flags=False, psd_push=None, completeness_push=None,
    structure_push=("upper", -0.1),
)
@example(
    seed=3, photon_dims=(1, 2), n=3, flags=False, psd_push=None, completeness_push=None,
    structure_push=("upper", 0.1),
)
@example(
    seed=3, photon_dims=(1, 2), n=3, flags=False, psd_push=None, completeness_push=None,
    structure_push=("off-block", -0.1),
)
@example(
    seed=3, photon_dims=(1, 2), n=3, flags=False, psd_push=None, completeness_push=None,
    structure_push=("off-block", 0.1),
)
def test_povm_validation_matches_reference_loop(
    seed, photon_dims, n, flags, psd_push, completeness_push, structure_push
):
    # pushes move the smallest eigenvalue of one element, or one entry of
    # the element sum, to a relative 0.2-1 % either side of its 1e-10 limit;
    # a structure push adds 0.9e-12 or 1.1e-12 to one upper-triangle entry of
    # another element, inside a block (the Hermiticity limit is 1e-12) or
    # off the blocks (where any nonzero entry is rejected)
    rng = np.random.default_rng(seed)
    layout, parts, events = _random_measurement(rng, photon_dims, n, flags)
    i, j = rng.choice(n, size=2, replace=False)
    lab = layout.photon_labels[rng.integers(len(photon_dims))]
    if psd_push is not None:
        vals, vecs = np.linalg.eigh(parts[i][lab])
        move = (vals[0] + 1e-10 * (1.0 + psd_push)) * np.outer(vecs[:, 0], vecs[:, 0].conj())
        parts[i][lab] = parts[i][lab] - move
        parts[j][lab] = parts[j][lab] + move
    if completeness_push is not None:
        a = rng.integers(layout.dim(lab))
        parts[j][lab] = parts[j][lab].copy()
        parts[j][lab][a, a] += np.sign(rng.normal()) * 1e-10 * (1.0 + completeness_push)
    dense = stack_blocks(layout, parts)
    if structure_push is not None:
        where, push = structure_push
        owner = np.repeat(np.arange(len(layout.blocks)), [d for _, d in layout.blocks])
        same = owner[:, None] == owner
        rows, cols = np.nonzero(np.triu(same if where == "upper" else ~same, k=1))
        if rows.size:
            pick = rng.integers(rows.size)
            dense[j, rows[pick], cols[pick]] += 1e-12 * (1.0 + push)

    expected = _verdict(lambda: reference_checked_elements(layout, dense, events))
    assert _verdict(lambda: POVM(layout, dense, events)) == expected
    if structure_push is not None and structure_push[0] == "off-block" and rows.size:
        assert expected.endswith("is not zero off its blocks ")
    if structure_push == ("upper", 0.1) and rows.size:
        assert expected.endswith("is not Hermitian ")
    if expected is None:
        povm = POVM(layout, dense, events)
        stack = reference_checked_elements(layout, dense, events)
        assert povm.dense.dtype == stack.dtype
        assert povm.dense.tobytes() == stack.tobytes()


def test_povm_needs_one_flag_per_event():
    # complete and PSD, but three events share two flags
    layout = SpaceLayout((("m=0", 1), ("flag", 2)))
    events = EventTable(
        k=2, labels=("no-click", "a", "b"), classes=("no-click", "single", "single"), masks=()
    )
    dense = stack_blocks(
        layout,
        [{"m=0": [[1.0]], "flag": np.diag([1.0, 0.0])}, {"flag": np.diag([0.0, 1.0])}, {}],
    )
    with pytest.raises(ValueError, match="flag dimension"):
        POVM(layout, dense, events)


def test_stacked_build_equals_one_build_per_efficiency_vector():
    # one build over a stack of efficiency vectors: each entry is the POVM
    # built at that vector alone, to the bit, and so is its flag-state target;
    # the one-measurement checks refuse the stack
    etas = np.array([[0.5, 0.55, 0.6, 0.52], [1.0, 1.0, 1.0, 1.0], [0.9, 0.4, 0.7, 0.8]])
    stack = build_threshold_povm(passive_bb84_setup(etas), 2)
    assert stack.stacked and len(stack) == 16 and stack.dense.shape == (3, 16, 6, 6)
    targets = flag_state_target(stack, 1)
    for c, eta in enumerate(etas):
        single = build_threshold_povm(passive_bb84_setup(eta), 2)
        np.testing.assert_array_equal(stack.take(c).dense, single.dense)
        np.testing.assert_array_equal(targets.take(c).dense, flag_state_target(single, 1).dense)
    with pytest.raises(ValueError, match="not a stack"):
        weight_bound(stack, "multi", 0.01, 1)
    with pytest.raises(ValueError, match="not a stack"):
        verify_single_photon_assumption(stack)
    with pytest.raises(ValueError, match="not stacks"):
        generic_channel(targets, targets, 0.1)
    with pytest.raises(ValueError, match="not a stack"):
        stack.take(0).take(0)
    bent = stack.dense.copy()
    bent[1, 5, 1, 1] = -1.0  # entry 1's element 5 is no longer PSD
    with pytest.raises(ValueError, match=r"element '0011' in stack entry 1 is not PSD"):
        POVM(stack.layout, bent, stack.events)


_TARGET = flag_state_target(build_threshold_povm(passive_bb84_setup(0.9), 1), 1)
_TWO_PHOTON = build_threshold_povm(passive_bb84_setup(0.9), 2)
# Every [0, 1] guard of the library: the call at the guarded value x, and its whole message.
_UNIT_GUARDS = {
    "DetectionSetup": (lambda x: DetectionSetup(k=1, mode_map=np.eye(1), eta=[x]), "efficiencies"),
    "dark_count_matrix": (lambda x: dark_count_matrix([x]), "dark rates"),
    "bb84_squashed_dark_matrix": (bb84_squashed_dark_matrix, "dark rate"),
    "bb84_simple_noise_channel": (bb84_simple_noise_channel, "dark rate"),
    "generic_channel": (lambda x: generic_channel(_TARGET, _TARGET, x), "q"),
    "weight_bound": (lambda x: weight_bound(_TWO_PHOTON, "multi", x, 1), "observed probability"),
    "propagate_weight-weight": (lambda x: propagate_weight(x, 1.0, 0.5, 1.0), "weight"),
    "propagate_weight-p_no_dark": (lambda x: propagate_weight(0.5, x, 0.5, 1.0), "p_no_dark"),
}


@pytest.mark.parametrize("value", [math.nan, -5e-324, 1.0 + 2.0**-52], ids=["nan", "below", "above"])
@pytest.mark.parametrize("guard", list(_UNIT_GUARDS))
def test_every_unit_interval_guard_rejects_what_lies_outside(guard, value):
    call, what = _UNIT_GUARDS[guard]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must lie in \\[0, 1\\]$"):
        call(value)


@pytest.mark.parametrize("value", [0.0, 1.0])
@pytest.mark.parametrize("guard", list(_UNIT_GUARDS))
def test_every_unit_interval_guard_admits_both_ends(guard, value):
    _UNIT_GUARDS[guard][0](value)
