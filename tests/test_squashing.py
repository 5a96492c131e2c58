from fractions import Fraction

import numpy as np
import pytest
from helpers import stack_blocks
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from detcert import (
    apply_postprocessing,
    build_threshold_povm,
    enumerate_events,
    eta_star_range,
    flag_state_target,
    loss_channel,
    multiclick_coarse_graining,
    passive_bb84_setup,
    propagate_weight,
    weight_bound,
)
from detcert.detectors import POVM
from detcert.fock import SpaceLayout


@pytest.fixture(scope="module")
def bb84_povm():
    return build_threshold_povm(passive_bb84_setup([0.8, 0.7, 0.9, 0.6]), 2)


def test_flag_target_structure(bb84_povm):
    sq = flag_state_target(bb84_povm, 1)
    assert sq.layout.labels == ("m=0", "m=1", "flag")
    assert sq.layout.dim("flag") == 16
    for i, flag in enumerate(sq.block("flag")):
        assert flag[i, i] == 1.0
        assert np.abs(flag).sum() == 1.0


def test_flag_target_coarse_grained(bb84_povm):
    cg = multiclick_coarse_graining(bb84_povm.events)
    coarse = apply_postprocessing(cg, bb84_povm)
    sq = flag_state_target(coarse, 1)
    assert sq.layout.dim("flag") == 6
    # the merged multi element keeps nothing below two photons
    assert np.abs(sq.block("m=0")[-1]).max() == 0.0
    assert np.abs(sq.block("m=1")[-1]).max() == 0.0


def test_flag_target_completeness(bb84_povm):
    sq = flag_state_target(bb84_povm, 1)
    for lab in sq.layout.labels:
        total = sq.block(lab).sum(axis=0)
        np.testing.assert_allclose(total, np.eye(sq.layout.dim(lab)), atol=1e-10)


def test_flag_target_preserves_low_photon_statistics(bb84_povm):
    # Embedding a state supported below the cutoff leaves all outcome
    # probabilities unchanged.
    sq = flag_state_target(bb84_povm, 1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        one = g @ g.conj().T
        one /= 2 * np.trace(one).real
        blocks = {"m=0": np.array([[0.5]]), "m=1": one}
        rho_full = stack_blocks(bb84_povm.layout, [blocks])[0]
        rho_squashed = stack_blocks(sq.layout, [blocks])[0]
        np.testing.assert_allclose(
            np.einsum("nab,ba->n", sq.dense, rho_squashed).real,
            np.einsum("nab,ba->n", bb84_povm.dense, rho_full).real,
            atol=1e-10,
        )


def test_flag_target_needs_cutoff_block(bb84_povm):
    with pytest.raises(ValueError):
        flag_state_target(bb84_povm, 3)


def test_weight_bound_zero_numerator(bb84_povm):
    lam = weight_bound(bb84_povm, "multi", 0.5, 1).lambda_inside
    wb = weight_bound(bb84_povm, "multi", lam, 1)
    assert wb.value == 0.0


def test_weight_bound_multiclick_matches_eigensolve(bb84_povm):
    # Oracle: compress the multi-click union onto the two-photon block and
    # eigensolve directly.
    gamma2 = bb84_povm.block("m=2")[list(bb84_povm.events.multi_indices)].sum(axis=0)
    lam_out = np.linalg.eigvalsh((gamma2 + gamma2.conj().T) / 2)[0]
    p_obs = 0.004
    wb = weight_bound(bb84_povm, "multi", p_obs, 1)
    assert wb.lambda_inside == pytest.approx(0.0, abs=1e-14)
    assert wb.lambda_outside == pytest.approx(lam_out, abs=1e-12)
    assert wb.value == pytest.approx(p_obs / lam_out, abs=1e-12)


def test_weight_bound_monotone_in_probability(bb84_povm):
    values = [
        weight_bound(bb84_povm, "multi", p, 1).value for p in (0.0, 0.01, 0.05, 0.2)
    ]
    assert values == sorted(values)


def test_weight_bound_matches_two_point_oracle():
    # Oracle: over states mixing the two compressions with weight w, the
    # smallest reachable probability is (1-w) lmin_in + w lmin_out; the
    # largest w consistent with an observed p is the root in w.
    rng = np.random.default_rng(8)
    layout = SpaceLayout((("m=0", 1), ("m=1", 3)))
    events = enumerate_events(1)
    for _ in range(20):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a1 = g @ g.conj().T
        a1 = a1 / (np.linalg.eigvalsh(a1)[-1] + 0.5)
        a0 = np.array([[rng.uniform(0.0, 0.2)]])
        el = stack_blocks(layout, [{"m=0": a0, "m=1": a1}])[0]
        povm = POVM(layout, [np.eye(4) - el, el], events)
        lam_in = a0[0, 0]
        lam_out = np.linalg.eigvalsh(a1)[0]
        if lam_out - lam_in < 1e-3:
            continue
        p_obs = rng.uniform(lam_in, min(1.0, lam_out))
        wb = weight_bound(povm, 1, p_obs, 0)

        def reachable_floor(w):
            return (1 - w) * lam_in + w * lam_out - p_obs

        if reachable_floor(1.0) <= 0:
            oracle = 1.0
        else:
            oracle = brentq(reachable_floor, 0.0, 1.0, xtol=1e-12)
        assert wb.value == pytest.approx(oracle, abs=1e-8)


def test_weight_bound_rejects_uninformative_event(bb84_povm):
    with pytest.raises(ValueError, match="uninformative"):
        weight_bound(bb84_povm, 0, 0.5, 1)  # no-click: inside eigenvalue too close


def test_weight_bound_rejects_repeated_or_unknown_events():
    # a repeated event would be counted twice in the event operator and
    # lower the bound (here 0.2552 -> 0.1766)
    povm = build_threshold_povm(passive_bb84_setup([0.6, 0.9, 0.7, 0.8]), 2)
    assert weight_bound(povm, [1, 2], 0.05, 1).value == pytest.approx(0.2552, abs=1e-4)
    multi = povm.events.labels[povm.events.multi_indices[0]]
    for event, named in (
        ([1, 2, 2], povm.events.labels[2]),
        ([1, povm.events.labels[1]], povm.events.labels[1]),
        (["multi", multi], multi),
        (-1, "-1"),
        (16, "16"),
        ([1, 16], "16"),
    ):
        with pytest.raises(ValueError, match=f"event.*{named}"):
            weight_bound(povm, event, 0.05, 1)


def test_weight_bound_needs_outside_blocks():
    povm = build_threshold_povm(passive_bb84_setup(0.9), 1)
    with pytest.raises(ValueError, match="above the cutoff"):
        weight_bound(povm, "multi", 0.01, 1)


def test_propagate_weight_worked_value():
    p00 = (1 - 0.01) ** 2
    assert propagate_weight(0.0, p00, 0.9, 1.0) == pytest.approx(0.11791, abs=1e-12)


def test_propagate_weight_fixed_points():
    assert propagate_weight(0.3, 1.0, 1.0, 1.0) == pytest.approx(0.3)
    assert propagate_weight(1.0, 0.5, 0.4, 0.8) == pytest.approx(1.0)


def test_propagate_weight_monotonicity():
    base = propagate_weight(0.2, 0.9, 0.6, 0.8)
    assert propagate_weight(0.2, 0.95, 0.6, 0.8) <= base
    assert propagate_weight(0.2, 0.9, 0.7, 0.8) <= base
    assert propagate_weight(0.3, 0.9, 0.6, 0.8) >= base


def test_propagate_weight_validation():
    with pytest.raises(ValueError):
        propagate_weight(1.2, 0.9, 0.5, 1.0)
    with pytest.raises(ValueError):
        propagate_weight(0.0, 0.9, 0.9, 0.5)


def test_eta_star_range_values():
    lo, hi = eta_star_range(0.5, 0.6)
    assert lo == pytest.approx(0.5 / 0.9)
    assert hi == 1.0
    lo, hi = eta_star_range(0.7, 0.7)
    assert lo == pytest.approx(0.7)
    lo, _ = eta_star_range(0.1, 0.95)
    assert lo == pytest.approx(0.1 / 0.15)


def test_eta_star_range_validation():
    with pytest.raises(ValueError):
        eta_star_range(0.0, 0.5)
    with pytest.raises(ValueError):
        eta_star_range(0.6, 0.5)


# Efficiencies from the edges of the admissible domain, and in between.
_EFFICIENCY = st.one_of(
    st.sampled_from([1e-300, 3e-13, 1e-9, 1 - 1e-12, 1 - 5e-13, 1.0]),
    st.floats(1e-300, 1.0),
)
# Corners whose efficiencies agree to an ulp: rounding each operation of
# eta_min / ((1 - eta_max) + eta_min) orders these two the wrong way.
_ULP_BOX = [(0.237207102422257, 0.23720710242225704)] + [(0.5970086087894079,) * 2] * 3


def _oracle(eta_min, eta_max):
    return Fraction(eta_min) / ((1 - Fraction(eta_max)) + Fraction(eta_min))


@settings(max_examples=300, deadline=None)
@given(st.tuples(_EFFICIENCY, _EFFICIENCY).map(sorted))
@example((1e-300, 1.0))
def test_eta_star_range_is_the_rounded_exact_bound(pair):
    eta_min, eta_max = pair
    lo, hi = eta_star_range(eta_min, eta_max)
    assert lo == float(_oracle(eta_min, eta_max))  # rounded once, to nearest
    assert eta_min <= lo <= hi == 1.0


@st.composite
def _box(draw, sizes=st.integers(1, 4)):
    k = draw(sizes)
    return [tuple(sorted(draw(st.tuples(_EFFICIENCY, _EFFICIENCY)))) for _ in range(k)]


def _corners(box):
    return np.array(np.meshgrid(*box, indexing="ij")).reshape(len(box), -1).T


@settings(max_examples=200, deadline=None)
@given(_box())
@example(_ULP_BOX)
def test_eta_star_range_is_largest_at_the_all_high_corner(box):
    high = eta_star_range(min(h for _, h in box), max(h for _, h in box))[0]
    for corner in _corners(box).tolist():
        assert eta_star_range(min(corner), max(corner))[0] <= high


_F_LOSSLESS = flag_state_target(build_threshold_povm(passive_bb84_setup(1.0), 1), 1)


@settings(max_examples=40, deadline=None)
@given(box=_box(st.just(4)), where=st.floats(0.0, 1.0))
@example(box=_ULP_BOX, where=0.0)
def test_every_eta_star_of_the_interval_serves_every_corner(box, where):
    corners = _corners(box)
    lo, hi = eta_star_range(corners[-1].min(), corners[-1].max())  # the all-high corner
    for eta_star in (lo, hi, min(hi, lo + where * (hi - lo))):
        loss_channel(corners, eta_star, _F_LOSSLESS)
        for eta in corners:
            assert 0.0 <= propagate_weight(0.5, 0.9, eta.min(), eta_star) <= 1.0


def test_squashed_povm_flag_invariant():
    povm = build_threshold_povm(passive_bb84_setup(1.0), 1)
    sq = flag_state_target(povm, 1)
    broken = np.array(sq.dense)
    one, flags = sq.layout.slice_of("m=1"), sq.layout.slice_of("flag")
    broken[0, one, one] = 0.0
    broken[0, flags, flags] = np.diag([0.5, 0.5] + [0.0] * 14)
    with pytest.raises(ValueError):
        POVM(sq.layout, broken, sq.events)
