import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    NEAR_DARK,
    SMALL_EVENTS,
    SMALL_LAYOUT,
    deviation_q_oracle,
    mix_povms,
    random_density,
    random_squashed_povm,
    stack_blocks,
)

from detcert import (
    DetectionSetup,
    QuantumChannel,
    bb84_qubit_measurement,
    bb84_simple_noise_channel,
    bb84_squashed_dark_matrix,
    build_threshold_povm,
    compose,
    dark_count_channel,
    dark_count_matrix,
    flag_state_target,
    generic_channel,
    inf_norm_mixing,
    loss_channel,
    min_deviation_q,
    passive_bb84_setup,
    verify_cptp,
    verify_statistics_equivalence,
)
from detcert.channels import ChoiConstraintSystem, _KeepBlocks, _loss_split_entries, certify_choi
from detcert.descriptor import descriptor_from_dict
from detcert.detectors import POVM
from detcert.postprocessing import _single_photon_loss_entries
from detcert.report import build_setup


@pytest.fixture(scope="module")
def bb84_squashed():
    setup = passive_bb84_setup([0.8, 0.85, 0.9, 0.75])
    povm = build_threshold_povm(setup, 1)
    return flag_state_target(povm, 1)


# ---------------------------------------------------------------- BB84 simple


def test_bb84_channel_zero_rate_is_pinch():
    ch = bb84_simple_noise_channel(0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        rho = random_density(ch.input_layout, rng)
        np.testing.assert_allclose(ch.apply_dense(rho), rho, atol=1e-12)


def test_bb84_channel_vacuum_survival():
    ch = bb84_simple_noise_channel(0.05)
    povm = bb84_qubit_measurement("Z")
    out = ch.apply_dense(ch.input_layout.projector("m=0"))
    assert np.trace(povm.dense[0] @ out).real == pytest.approx(0.9025, abs=1e-12)


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("d", [0.0, 0.05, 0.3])
def test_bb84_channel_statistics_identity(basis, d):
    ch = bb84_simple_noise_channel(d)
    povm = bb84_qubit_measurement(basis)
    p_dc = bb84_squashed_dark_matrix(d)
    report = verify_statistics_equivalence(p_dc, povm, povm, ch, tol=1e-12)
    assert report.passed


def test_bb84_channel_cptp():
    report = verify_cptp(bb84_simple_noise_channel(0.05), 1e-9)
    assert report.passed
    assert report.min_choi_eigenvalue >= -1e-12


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_bb84_measurement_is_the_vacuum_and_the_basis_projectors(basis):
    # derived from the threshold POVM and the squasher, yet bit for bit the projectors on vacuum + qubit
    s = 1.0 / np.sqrt(2.0)
    kets = {"Z": ([1.0, 0.0], [0.0, 1.0]), "X": ([s, s], [s, -s])}[basis]
    want = np.zeros((3, 3, 3))
    want[0, 0, 0] = 1.0
    for i, ket in enumerate(kets, start=1):
        want[i, 1:, 1:] = np.outer(ket, ket)
    povm = bb84_qubit_measurement(basis)
    assert povm.dense.dtype == np.float64  # both bases' mode maps are real
    assert povm.dense.tobytes() == want.tobytes()
    assert povm.layout.blocks == (("m=0", 1), ("m=1", 2))
    assert povm.events.classes == ("no-click", "single", "single")


# ------------------------------------------------------------- dark counts


def test_dark_channel_vacuum_image(bb84_squashed):
    rng = np.random.default_rng(1)
    d = rng.uniform(0, 0.1, 4)
    p_db = dark_count_matrix(d)
    ch = dark_count_channel(p_db, bb84_squashed)
    out = ch.apply_dense(bb84_squashed.layout.projector("m=0"))
    layout = bb84_squashed.layout
    assert out[0, 0].real == pytest.approx(p_db.entries[0, 0], abs=1e-14)
    off = layout.offset("flag")
    for i in range(1, 16):
        assert out[off + i, off + i].real == pytest.approx(
            p_db.entries[i, 0], abs=1e-14
        )
    # no-click flag never raised from vacuum
    assert out[off, off].real == pytest.approx(0.0, abs=1e-14)


def test_dark_channel_classical_reprep_is_normalized(bb84_squashed):
    # The flag mixture prepared on the one-photon branch has unit trace:
    # recover it from the channel action on single-photon states.
    rng = np.random.default_rng(2)
    layout = bb84_squashed.layout
    for _ in range(10):
        d = rng.uniform(0, 0.3, 4)
        p_db = dark_count_matrix(d)
        p00 = p_db.entries[0, 0]
        ch = dark_count_channel(p_db, bb84_squashed)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        one = g @ g.conj().T
        one /= np.trace(one).real
        rho = stack_blocks(layout, [{"m=1": one}])[0]
        out = ch.apply_dense(rho)
        tau = (out - p00 * rho) / (1.0 - p00)
        assert np.trace(tau).real == pytest.approx(1.0, abs=1e-12)
        # the mixture lives entirely in the flag block
        proj = layout.projector(("m=0", "m=1"))
        assert np.abs(proj @ tau @ proj).max() == pytest.approx(0.0, abs=1e-14)


def test_dark_channel_weight_relation(bb84_squashed):
    rng = np.random.default_rng(3)
    proj = bb84_squashed.layout.projector(("m=0", "m=1"))
    for _ in range(5):
        p_db = dark_count_matrix(rng.uniform(0, 0.1, 4))
        p00 = p_db.entries[0, 0]
        ch = dark_count_channel(p_db, bb84_squashed)
        for _ in range(10):
            rho = random_density(bb84_squashed.layout, rng)
            lhs = np.trace(proj @ ch.apply_dense(rho)).real
            assert lhs == pytest.approx(p00 * np.trace(proj @ rho).real, abs=1e-12)


def test_dark_channel_flag_states_stay_flags(bb84_squashed):
    p_db = dark_count_matrix([0.05, 0.1, 0.02, 0.08])
    ch = dark_count_channel(p_db, bb84_squashed)
    proj = bb84_squashed.layout.projector(("m=0", "m=1"))
    flags = bb84_squashed.layout.offset("flag") + np.arange(16)
    for i in range(16):
        out = ch.apply_dense(np.diag(np.eye(bb84_squashed.layout.total_dim)[flags[i]]))
        assert np.abs(proj @ out @ proj).max() == pytest.approx(0.0, abs=1e-14)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_dark_channel_statistics_and_cptp(bb84_squashed):
    rng = np.random.default_rng(4)
    p_db = dark_count_matrix(rng.uniform(0, 0.1, 4))
    ch = dark_count_channel(p_db, bb84_squashed)
    assert verify_cptp(ch, 1e-9).passed
    report = verify_statistics_equivalence(p_db, bb84_squashed, bb84_squashed, ch)
    assert report.max_residual <= 1e-12


def test_dark_channel_zero_rate_drops_reprep_branch(bb84_squashed):
    # with no dark counts the channel degenerates to the flag-basis pinch
    ch = dark_count_channel(dark_count_matrix(np.zeros(4)), bb84_squashed)
    rng = np.random.default_rng(5)
    rho = random_density(bb84_squashed.layout, rng)
    out = ch.apply_dense(rho)
    layout = bb84_squashed.layout
    for lab in ("m=0", "m=1"):
        s = layout.slice_of(lab)
        np.testing.assert_allclose(out[s, s], rho[s, s], atol=1e-12)
    s = layout.slice_of("flag")
    np.testing.assert_allclose(
        np.diag(out[s, s]), np.diag(rho[s, s]), atol=1e-12
    )
    np.testing.assert_allclose(
        out[s, s] - np.diag(np.diag(out[s, s])), 0.0, atol=1e-14
    )


def test_dark_channel_rejects_bad_postprocessing(bb84_squashed):
    from detcert import StochasticMatrix

    bad = np.eye(16)
    bad[0, 1] = 0.1  # a click erased
    bad[1, 1] = 0.9
    with pytest.raises(ValueError, match="dark-count conditions"):
        dark_count_channel(StochasticMatrix(bad), bb84_squashed)


# -------------------------------------------------------------------- loss


def test_loss_split_reconstructs_loss_map():
    rng = np.random.default_rng(6)
    for _ in range(10):
        eta = rng.uniform(0.4, 1.0, 4)
        lo = eta.min() / (1.0 - (eta.max() - eta.min()))
        for eta_star in (lo, 1.0, (lo + 1.0) / 2):
            if eta_star <= eta.min():
                continue
            ratio = eta.min() / eta_star
            q = _loss_split_entries(eta, eta_star)
            p_eta = _single_photon_loss_entries(eta)
            p_star = _single_photon_loss_entries(np.full(4, eta_star))
            np.testing.assert_allclose(
                p_eta, ratio * p_star + (1 - ratio) * q, atol=1e-12
            )
            assert q.min() >= -1e-12 and q.max() <= 1.0 + 1e-12


def test_loss_channel_equal_efficiencies_is_pinch():
    setup = passive_bb84_setup(1.0)
    f_lossless = flag_state_target(build_threshold_povm(setup, 1), 1)
    ch = loss_channel(np.full(4, 0.7), 0.7, f_lossless)
    rng = np.random.default_rng(7)
    rho = random_density(f_lossless.layout, rng)
    np.testing.assert_allclose(ch.apply_dense(rho), rho, atol=1e-12)


def test_loss_channel_weight_relation():
    setup = passive_bb84_setup(1.0)
    f_lossless = flag_state_target(build_threshold_povm(setup, 1), 1)
    eta = np.array([0.5, 0.55, 0.6, 0.52])
    rng = np.random.default_rng(8)
    layout = f_lossless.layout
    for eta_star in (0.5 / 0.9, 1.0):
        ch = loss_channel(eta, eta_star, f_lossless)
        ratio = 0.5 / eta_star
        p0 = layout.projector("m=0")
        p1 = layout.projector("m=1")
        p01 = layout.projector(("m=0", "m=1"))
        for _ in range(10):
            rho = random_density(layout, rng)
            lhs = np.trace(p01 @ ch.apply_dense(rho)).real
            rhs = np.trace(p0 @ rho).real + ratio * np.trace(p1 @ rho).real
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_loss_channel_statistics_identity():
    setup = passive_bb84_setup(1.0)
    eta = np.array([0.5, 0.55, 0.6, 0.52])
    f_lossless = flag_state_target(build_threshold_povm(setup, 1), 1)
    f_eta = flag_state_target(build_threshold_povm(setup.with_eta(eta), 1), 1)
    for eta_star in (0.5 / 0.9, 1.0):
        f_star = flag_state_target(
            build_threshold_povm(setup.with_eta(eta_star), 1), 1
        )
        ch = loss_channel(eta, eta_star, f_lossless)
        assert verify_cptp(ch, 1e-9).passed
        report = verify_statistics_equivalence(None, f_eta, f_star, ch, tol=1e-9)
        assert report.max_residual <= 1e-9


def test_loss_channel_rejects_inadmissible_eta_star():
    setup = passive_bb84_setup(1.0)
    f_lossless = flag_state_target(build_threshold_povm(setup, 1), 1)
    eta = np.array([0.5, 0.55, 0.6, 0.52])
    for eta_star in (0.52, 1.5):
        with pytest.raises(ValueError, match="admissible"):
            loss_channel(eta, eta_star, f_lossless)



@pytest.mark.parametrize("bad", [0.0, 1.2, float("nan")])
def test_loss_channel_rejects_efficiencies_outside_unit_interval(bb84_squashed, bad):
    eta = np.array([0.8, 0.85, bad, 0.75])
    with pytest.raises(ValueError, match=r"need 0 < eta_min <= eta_max <= 1"):
        loss_channel(eta, 1.0, bb84_squashed)


def test_dark_count_channel_rejects_mis_shaped_map(bb84_squashed):
    with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match 16 events"):
        dark_count_channel(bb84_squashed_dark_matrix(0.01), bb84_squashed)


# ------------------------------------------------------------------ generic


def test_generic_channel_zero_deviation_is_pinch():
    rng = np.random.default_rng(9)
    f = random_squashed_povm(rng)
    ch = generic_channel(f, f, 0.0)
    rho = random_density(f.layout, rng)
    np.testing.assert_allclose(ch.apply_dense(rho), rho, atol=1e-12)
    report = verify_statistics_equivalence(None, f, f, ch, tol=1e-12)
    assert report.passed


@pytest.mark.parametrize("q0", [0.1, 0.3, 0.7])
def test_generic_channel_certifies_explicit_mixture(q0):
    rng = np.random.default_rng(int(q0 * 100))
    f_ideal = random_squashed_povm(rng)
    q_povm = random_squashed_povm(rng)
    f_noise = mix_povms(f_ideal, q_povm, q0)
    ch = generic_channel(f_noise, f_ideal, q0)
    assert verify_cptp(ch, 1e-9).passed
    stats = verify_statistics_equivalence(None, f_noise, f_ideal, ch, tol=1e-9)
    assert stats.max_residual <= 1e-9
    proj = f_ideal.layout.projector(("m=0", "m=1"))
    for _ in range(10):
        rho = random_density(f_ideal.layout, rng)
        lhs = np.trace(proj @ ch.apply_dense(rho)).real
        assert lhs == pytest.approx((1 - q0) * np.trace(proj @ rho).real, abs=1e-12)


def test_generic_channel_rejects_violated_bound():
    rng = np.random.default_rng(10)
    f_ideal = random_squashed_povm(rng)
    q_povm = random_squashed_povm(rng)
    f_noise = mix_povms(f_ideal, q_povm, 0.4)
    with pytest.raises(ValueError, match="deviation bound"):
        generic_channel(f_noise, f_ideal, 0.05)



@pytest.mark.parametrize("seed", [3, 10, 21])
def test_generic_channel_admits_exactly_the_closed_form_bound(seed):
    # q* - 1e-9 gives a Choi eigenvalue of order -1e-10, inside any 1e-9
    # eigenvalue test; the bound itself, as min_deviation_q rounds it, is CP
    rng = np.random.default_rng(seed)
    f_ideal = random_squashed_povm(rng)
    f_noise = mix_povms(f_ideal, random_squashed_povm(rng), 0.4)
    oracle = float(deviation_q_oracle(f_noise, f_ideal))
    with pytest.raises(ValueError, match=r"deviation bound q\*=0\.\d+"):
        generic_channel(f_noise, f_ideal, oracle - 1e-9)
    q = min_deviation_q(f_noise, f_ideal)
    assert verify_cptp(generic_channel(f_noise, f_ideal, q), 1e-9).residual <= 1e-14


def _mixed(seed):
    rng = np.random.default_rng(seed)
    f_ideal = random_squashed_povm(rng)
    return mix_povms(f_ideal, random_squashed_povm(rng), 0.4), f_ideal


def _corner_stack():
    stack = flag_state_target(build_threshold_povm(passive_bb84_setup([[0.5, 0.55, 0.6, 0.52], [1.0] * 4]), 1), 1)
    return stack, stack.take(1)


_DEVIATIONS = {
    "mixture-3": lambda: _mixed(3),
    "mixture-21": lambda: _mixed(21),
    "corner-stack": _corner_stack,
    "near-dark": lambda: _targets(build_setup(descriptor_from_dict(NEAR_DARK), [0.6474, 3e-13]), NEAR_DARK["eta_star"]),
}


@pytest.mark.parametrize("name", list(_DEVIATIONS))
def test_generic_channel_rejection_names_the_q_min_deviation_q_returns(name):
    # one reported q*: the rejection of q = 0 names min_deviation_q's value, which the builder admits
    f_noise, f_ideal = _DEVIATIONS[name]()
    with pytest.raises(ValueError, match=r"^q=0\.0 violates the deviation bound q\*=") as info:
        generic_channel(f_noise, f_ideal, 0.0)
    named = float(str(info.value).rpartition("q*=")[2])
    assert named == min_deviation_q(f_noise, f_ideal) > 0.0
    channels = generic_channel(f_noise, f_ideal, named)
    reports, _ = certify_choi(channels.support, ChoiConstraintSystem((None, f_noise, f_ideal)), 1e-9)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_generic_channel_admits_an_excess_within_its_rounding_radius(scale, stacked):
    # at q = 0 the excess of element 0 is -delta on the vacuum, moved to
    # element 1; it is admitted iff delta <= r = d eps (|F_noise_0|_F + |F_ideal_0|_F)
    f_ideal = flag_state_target(build_threshold_povm(passive_bb84_setup(0.9), 1), 1)
    ideal = f_ideal.dense
    eps_d = ideal.shape[-1] * np.finfo(float).eps
    noise = ideal.copy()
    delta = scale * eps_d * 2.0 * np.linalg.norm(ideal[0])
    noise[0, 0, 0] -= delta
    noise[1, 0, 0] += delta
    radius = eps_d * (np.linalg.norm(noise[0]) + np.linalg.norm(ideal[0]))
    assert -np.linalg.eigvalsh(noise - ideal)[0, 0] / radius == pytest.approx(scale, rel=0.1)
    # as one corner of a stack, the others equal to the ideal measurement
    f_noise = POVM(f_ideal.layout, np.stack([ideal, noise, ideal]) if stacked else noise, f_ideal.events)
    if scale < 1.0:
        assert len(generic_channel(f_noise, f_ideal, 0.0).support.values) == (3 if stacked else 1)
    else:
        with pytest.raises(ValueError, match=r"^q=0\.0 violates the deviation bound q\*=\d"):
            generic_channel(f_noise, f_ideal, 0.0)


def test_generic_channel_admits_min_deviation_q_on_an_element_short_of_psd():
    # POVM accepts an element PSD to -1e-10; here element 1 is -1e-11 on the
    # vacuum, where the ideal click vanishes, so its excess is -1e-11 at every q
    f_ideal = flag_state_target(build_threshold_povm(passive_bb84_setup(0.9), 1), 1)
    noise = f_ideal.dense.copy()
    noise[1, 0, 0] -= 1e-11
    noise[0, 0, 0] += 1e-11
    f_noise = POVM(f_ideal.layout, noise, f_ideal.events)
    q = min_deviation_q(f_noise, f_ideal)
    assert q == pytest.approx(1e-12)  # the closed form reads the -1e-11 as off the support
    ch = generic_channel(f_noise, f_ideal, q)
    assert verify_cptp(ch, 1e-9).passed
    assert verify_statistics_equivalence(None, f_noise, f_ideal, ch, tol=1e-9).passed
    # the shortfall widens only its own element's radius: element 3 stays PSD, its excess does not
    noise[3, 1, 1] -= 1e-11
    noise[0, 1, 1] += 1e-11
    with pytest.raises(ValueError, match=r"violates the deviation bound q\*="):
        generic_channel(POVM(f_ideal.layout, noise, f_ideal.events), f_ideal, q)


def test_min_deviation_q_identical_measurements():
    rng = np.random.default_rng(11)
    f = random_squashed_povm(rng)
    assert min_deviation_q(f, f) == 0.0


@pytest.mark.parametrize("q0", [0.1, 0.3, 0.7])
def test_min_deviation_q_mixture_and_oracle(q0):
    rng = np.random.default_rng(int(q0 * 1000) + 1)
    f_ideal = random_squashed_povm(rng)
    q_povm = random_squashed_povm(rng)
    f_noise = mix_povms(f_ideal, q_povm, q0)
    q_min = min_deviation_q(f_noise, f_ideal)
    assert q_min <= q0 + 1e-9
    oracle = deviation_q_oracle(f_noise, f_ideal)
    assert q_min == pytest.approx(oracle, abs=1e-7)
    # the returned q admits the channel and its identities
    ch = generic_channel(f_noise, f_ideal, q_min)
    assert verify_cptp(ch, 1e-9).passed
    stats = verify_statistics_equivalence(None, f_noise, f_ideal, ch, tol=1e-9)
    assert stats.passed


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q0=st.floats(0.01, 0.95),
    floor=st.sampled_from([0.005, 0.05, 0.5]),
)
def test_min_deviation_q_bounds_the_exact_q(seed, q0, floor):
    rng = np.random.default_rng(seed)
    f_ideal = random_squashed_povm(rng, floor=floor)
    f_noise = mix_povms(f_ideal, random_squashed_povm(rng, floor=floor), q0)
    q = min_deviation_q(f_noise, f_ideal)
    oracle = deviation_q_oracle(f_noise, f_ideal)
    # never optimistic, and rounded up by no more than its radius and the eigensolves
    assert oracle <= q <= oracle + 1e-13
    assert verify_cptp(generic_channel(f_noise, f_ideal, q), 1e-9).residual <= 1e-14


def _targets(setup, eta_star):
    """The flag-state targets of ``setup`` at its efficiencies and at the common efficiency ``eta_star``."""
    stack = build_threshold_povm(setup.with_eta(np.vstack([setup.eta, np.full(setup.k, eta_star)])), 1)
    return flag_state_target(stack.take(0), 1), flag_state_target(stack.take(1), 1)


def test_min_deviation_q_reads_a_near_dark_detector_on_its_support():
    # the golden near-dark map: the dark click's eigenvalue 3e-13 is far above
    # the rounding radius, so it is on the support and bounds q, no deficit
    desc = descriptor_from_dict(NEAR_DARK)
    eta_star = desc.eta_star
    f_noise, f_ideal = _targets(build_setup(desc, [0.6474, 3e-13]), eta_star)
    q = min_deviation_q(f_noise, f_ideal)  # a warning would be an error here
    assert q < 1.0
    assert abs(q - (1.0 - 3e-13 / eta_star)) <= 1e-13
    assert verify_cptp(generic_channel(f_noise, f_ideal, q), 1e-9).passed


@pytest.mark.parametrize("seed", range(60))
def test_min_deviation_q_on_a_near_dark_detector_is_never_optimistic(seed):
    # a random complex k = 2 map of one mode, as the golden near-dark case,
    # one detector at an efficiency in [1e-14, 1e-10]: the dark click is read
    # on the support (no deficit warning), q is never below the oracle nor
    # above it by more than rounding, and the builder admits it.  One mode
    # keeps every block 1 x 1: a rank-one block of two modes is rank one only
    # up to rounding, and the oracle, exact on the stored doubles, reads that as a leak
    rng = np.random.default_rng(seed)
    mode_map = np.linalg.qr(rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1)))[0]
    eta = np.array([rng.uniform(0.3, 1.0), 10.0 ** rng.uniform(-14, -10)])[rng.permutation(2)]
    setup = DetectionSetup(k=2, mode_map=mode_map, eta=eta)
    f_noise, f_ideal = _targets(setup, rng.uniform(0.5, 1.0))
    q = min_deviation_q(f_noise, f_ideal)
    oracle = deviation_q_oracle(f_noise, f_ideal)
    assert oracle <= q <= oracle + 1e-13
    assert verify_cptp(generic_channel(f_noise, f_ideal, q), 1e-9).passed


def test_min_deviation_q_of_a_stack_is_its_largest_entry():
    # a stacked f_noise, as generic_channel takes it: the largest entry's q,
    # which the builder admits for the whole stack; an entry equal to the
    # ideal measurement gives exactly 0
    etas = np.array([[0.5, 0.55, 0.6, 0.52], [1.0, 1.0, 1.0, 1.0], [0.9, 0.4, 0.7, 0.8]])
    stack = flag_state_target(build_threshold_povm(passive_bb84_setup(etas), 1), 1)
    f_ideal = stack.take(1)
    q = min_deviation_q(stack, f_ideal)
    entries = [min_deviation_q(stack.take(i), f_ideal) for i in range(len(etas))]
    assert entries[1] == 0.0
    assert q == max(entries) > 0.0
    assert min_deviation_q(stack.take(slice(1, 2)), f_ideal) == 0.0
    channels = generic_channel(stack, f_ideal, q)
    reports, residuals = certify_choi(channels.support, ChoiConstraintSystem((None, stack, f_ideal)), 1e-9)
    assert [r.passed for r in reports] == [True] * len(etas)
    assert residuals.max() <= 1e-9
    with pytest.raises(ValueError, match="not stacks"):
        min_deviation_q(stack, stack)


def test_min_deviation_q_support_deficit_reports_one():
    half = np.eye(2) / 2.0
    rank_one = np.diag([1.0, 0.0])
    flags = np.eye(3)

    def povm(m1_blocks):
        parts = [
            {"m=0": np.eye(1) / 3.0, "m=1": block, "flag": np.diag(flag)}
            for block, flag in zip(m1_blocks, flags)
        ]
        return POVM(SMALL_LAYOUT, stack_blocks(SMALL_LAYOUT, parts), SMALL_EVENTS)

    f_noise = povm([rank_one, np.eye(2) - rank_one, np.zeros((2, 2))])
    f_ideal = povm([half, half, np.zeros((2, 2))])
    with pytest.warns(UserWarning, match="support deficit"):
        assert min_deviation_q(f_noise, f_ideal) == 1.0
    assert deviation_q_oracle(f_noise, f_ideal) == 1


def test_min_deviation_q_trivial_single_element():
    from detcert import POVM, EventTable
    from detcert.fock import SpaceLayout

    layout = SpaceLayout((("m=0", 1), ("flag", 1)))
    events = EventTable(k=1, labels=("no-click",), classes=("no-click",), masks=())
    povm = POVM(layout, [np.eye(2)], events)
    assert min_deviation_q(povm, povm) == 0.0


def test_constructions_need_exact_flags(bb84_squashed):
    # a complete target whose flags are permuted is a valid POVM, but no
    # construction may read element i's outcome off flag i
    shifted = np.array(bb84_squashed.dense)
    flags = bb84_squashed.layout.slice_of("flag")
    shifted[:, flags, flags] = np.roll(bb84_squashed.block("flag"), 1, axis=0)
    permuted = POVM(bb84_squashed.layout, shifted, bb84_squashed.events)
    with pytest.raises(ValueError, match="target measurement must have exact flag states"):
        dark_count_channel(dark_count_matrix([0.01] * 4), permuted)
    with pytest.raises(ValueError, match="target measurement must have exact flag states"):
        loss_channel(np.full(4, 0.8), 1.0, permuted)
    with pytest.raises(ValueError, match="ideal measurement must have exact flag states"):
        generic_channel(bb84_squashed, permuted, 0.1)
    flagless = build_threshold_povm(passive_bb84_setup(0.8), 1)
    with pytest.raises(ValueError, match="ideal measurement must have exact flag states"):
        generic_channel(flagless, flagless, 0.1)


# ----------------------------------------------------------- uniform mixing


def test_inf_norm_mixing_zero_delta():
    rng = np.random.default_rng(12)
    f = random_squashed_povm(rng)
    mixed = inf_norm_mixing(f, 0.0)
    np.testing.assert_allclose(mixed.dense, f.dense, atol=1e-15)


def test_inf_norm_mixing_weights():
    rng = np.random.default_rng(13)
    f = random_squashed_povm(rng)
    delta = 0.1
    n = len(f)
    mixed = inf_norm_mixing(f, delta)
    expected = (
        (1 / (1 + n * delta)) * f.dense[0]
        + (delta / (1 + n * delta)) * np.eye(f.layout.total_dim)
    )
    np.testing.assert_allclose(mixed.dense[0], expected, atol=1e-15)


def test_inf_norm_mixing_dominates_nearby_ideal():
    # perturb within operator norm delta, then the mixed measurement
    # dominates the scaled ideal one elementwise
    rng = np.random.default_rng(14)
    delta = 0.08
    f_ideal = random_squashed_povm(rng)
    n = len(f_ideal)
    for _ in range(5):
        perturbed = []
        shifts = []
        for lab in ("m=0", "m=1"):
            d = f_ideal.layout.dim(lab)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2
            h *= delta / max(np.abs(np.linalg.eigvalsh(h)).max(), 1e-9) * rng.uniform(0.2, 1.0)
            shifts.append((lab, h))
        for i, el in enumerate(f_ideal.dense):
            el = el.copy()
            sign = 1.0 if i == 0 else (-1.0 / (n - 1))
            ok = True
            for lab, h in shifts:
                s = f_ideal.layout.slice_of(lab)
                el[s, s] += sign * h
                if np.linalg.eigvalsh(el[s, s])[0] < 0:
                    ok = False
            if not ok:
                break
            perturbed.append(el)
        if len(perturbed) != n:
            continue
        f_noise = POVM(f_ideal.layout, perturbed, f_ideal.events)
        mixed = inf_norm_mixing(f_noise, delta)
        scale = 1.0 / (1.0 + n * delta)
        assert np.linalg.eigvalsh(mixed.dense - scale * f_ideal.dense)[:, 0].min() >= -1e-10


# ------------------------------------------------------- application, CPTP


def test_apply_channel_identity_and_pinch():
    rng = np.random.default_rng(15)
    layout = SMALL_LAYOUT
    ident = QuantumChannel(
        layout, layout, (_KeepBlocks(1.0, np.eye(layout.total_dim)),)
    )
    rho = random_density(layout, rng)
    np.testing.assert_allclose(ident.apply_dense(rho), rho, atol=1e-14)
    pinch = QuantumChannel(
        layout,
        layout,
        tuple(_KeepBlocks(1.0, layout.projector(lab)) for lab in layout.labels),
    )
    out = pinch.apply_dense(rho)  # block-diagonal states are fixed points
    np.testing.assert_allclose(out, rho, atol=1e-14)


def test_apply_channel_preserves_trace_and_psd(bb84_squashed):
    rng = np.random.default_rng(17)
    p_db = dark_count_matrix(rng.uniform(0, 0.2, 4))
    ch = dark_count_channel(p_db, bb84_squashed)
    for _ in range(5):
        out = ch.apply_dense(random_density(bb84_squashed.layout, rng))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-9


def test_verify_cptp_identity_channel():
    layout = SMALL_LAYOUT
    ident = QuantumChannel(
        layout, layout, (_KeepBlocks(1.0, np.eye(layout.total_dim)),)
    )
    report = verify_cptp(ident, 1e-9)
    assert report.passed
    assert report.trace_preservation_dev == pytest.approx(0.0, abs=1e-14)


def test_verify_cptp_catches_trace_leak():
    layout = SMALL_LAYOUT
    leaky = QuantumChannel(
        layout, layout, (_KeepBlocks(0.9, np.eye(layout.total_dim)),)
    )
    report = verify_cptp(leaky, 1e-9)
    assert not report.passed
    assert report.trace_preservation_dev == pytest.approx(0.1, abs=1e-12)


def test_statistics_equivalence_identity_channel():
    rng = np.random.default_rng(18)
    f = random_squashed_povm(rng)
    ident = QuantumChannel(
        f.layout, f.layout, (_KeepBlocks(1.0, np.eye(f.layout.total_dim)),)
    )
    report = verify_statistics_equivalence(None, f, f, ident, tol=1e-12)
    assert report.max_residual == pytest.approx(0.0, abs=1e-14)


# -------------------------------------------------------------- composition


def test_composed_dark_and_loss_channels(bb84_squashed):
    # applying loss after dark counts still reproduces the dark-count
    # post-processed statistics, now against the common-efficiency target
    setup = passive_bb84_setup(1.0)
    eta = np.array([0.8, 0.85, 0.9, 0.75])
    rng = np.random.default_rng(19)
    p_db = dark_count_matrix(rng.uniform(0, 0.1, 4))
    f_lossless = flag_state_target(build_threshold_povm(setup, 1), 1)
    dark = dark_count_channel(p_db, bb84_squashed)
    for eta_star in (0.75 / 0.85, 1.0):
        loss = loss_channel(eta, eta_star, f_lossless)
        combined = compose(loss, dark)
        assert verify_cptp(combined, 1e-9).passed
        f_star = flag_state_target(
            build_threshold_povm(setup.with_eta(eta_star), 1), 1
        )
        report = verify_statistics_equivalence(
            p_db, bb84_squashed, f_star, combined, tol=1e-9
        )
        assert report.max_residual <= 1e-9
        # combined weight relation
        layout = bb84_squashed.layout
        proj01 = layout.projector(("m=0", "m=1"))
        p00 = p_db.entries[0, 0]
        ratio = 0.75 / eta_star
        for _ in range(5):
            rho = random_density(layout, rng)
            lhs = np.trace(proj01 @ combined.apply_dense(rho)).real
            assert lhs <= 1.0 + 1e-12
            assert lhs >= p00 * ratio * np.trace(proj01 @ rho).real - 1e-12
