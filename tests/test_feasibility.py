from pathlib import Path

import numpy as np
import pytest
from helpers import random_squashed_povm
from hypothesis import given, settings
from hypothesis import strategies as st

from detcert import (
    FeasibilityResult,
    apply_postprocessing,
    bb84_qubit_measurement,
    bb84_simple_noise_channel,
    bb84_squashed_dark_matrix,
    build_threshold_povm,
    choi_feasibility,
    coarse_grained_dc_ansatz,
    dark_count_channel,
    dark_count_matrix,
    flag_state_target,
    multiclick_coarse_graining,
    passive_bb84_setup,
    verify_choi_witness,
    verify_farkas_ray,
)
from detcert import cli
from detcert.channels import (
    ChoiSupport,
    QuantumChannel,
    _hermitian_score,
    verify_cptp,
    verify_statistics_equivalence,
)
from detcert.feasibility import ChoiConstraintSystem, _dual, _face_basis, _lbfgs
from detcert.descriptor import descriptor_from_dict
from detcert.report import _active_point

ADVERSARIAL = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, -0.2, 1.2],
        [0.0, 1.2, -0.2],
    ]
)


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_bb84_case_is_feasible_with_verified_witness(basis):
    p_dc = bb84_squashed_dark_matrix(0.05)
    povm = bb84_qubit_measurement(basis)
    result = choi_feasibility(p_dc, povm, povm, tol=1e-6, max_iter=10_000)
    assert result.verdict == "feasible-at-tol"
    assert result.iterations <= 10_000
    report = verify_choi_witness(result.witness, p_dc, povm, povm, 1e-6)
    assert report.passed
    # an independent certification path: wrap the witness as a channel
    ch = QuantumChannel.from_choi(result.witness, povm.layout, povm.layout)
    assert verify_cptp(ch, 1e-5).passed
    stats = verify_statistics_equivalence(p_dc, povm, povm, ch, tol=1e-5)
    assert stats.passed


def test_identity_postprocessing_is_feasible():
    povm = bb84_qubit_measurement("Z")
    result = choi_feasibility(np.eye(3), povm, povm, tol=1e-6)
    assert result.verdict == "feasible-at-tol"
    report = verify_choi_witness(result.witness, np.eye(3), povm, povm, 1e-6)
    assert report.passed


def test_agreement_with_explicit_channel():
    # wherever an explicit channel exists, the probe must find feasibility,
    # and the explicit Choi matrix itself passes the witness check
    for d in (0.01, 0.1):
        p_dc = bb84_squashed_dark_matrix(d)
        for basis in ("Z", "X"):
            povm = bb84_qubit_measurement(basis)
            result = choi_feasibility(p_dc, povm, povm, tol=1e-6)
            assert result.verdict == "feasible-at-tol"
            explicit = bb84_simple_noise_channel(d).choi
            report = verify_choi_witness(explicit, p_dc, povm, povm, 1e-9)
            assert report.passed


def test_adversarial_demand_never_feasible():
    # columns sum to one but demand a negative outcome probability, which
    # no PSD Choi matrix can produce
    povm = bb84_qubit_measurement("Z")
    result = choi_feasibility(ADVERSARIAL, povm, povm, tol=1e-6, max_iter=4000)
    assert result.verdict in ("infeasible-at-tol", "undetermined")
    assert result.verdict != "feasible-at-tol"
    assert result.witness is None
    assert result.residual > 0.1
    assert verify_farkas_ray(result.ray, ADVERSARIAL, povm, povm, 1e-6).passed


def test_determinism_under_fixed_seed():
    p_dc = bb84_squashed_dark_matrix(0.05)
    povm = bb84_qubit_measurement("Z")
    a = choi_feasibility(p_dc, povm, povm, tol=1e-6)
    b = choi_feasibility(p_dc, povm, povm, tol=1e-6)
    assert a.verdict == b.verdict
    assert a.iterations == b.iterations
    assert a.residual == b.residual
    np.testing.assert_array_equal(a.witness, b.witness)


def test_witness_checker_catches_linear_violation():
    rng = np.random.default_rng(5)
    povm = bb84_qubit_measurement("Z")
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    j = g @ g.conj().T
    j *= 3.0 / np.trace(j).real
    report = verify_choi_witness(
        j, bb84_squashed_dark_matrix(0.05), povm, povm, 1e-6
    )
    assert not report.passed
    assert report.linear_residual > 1e-6


def test_witness_checker_catches_negative_eigenvalue():
    povm = bb84_qubit_measurement("Z")
    p_dc = bb84_squashed_dark_matrix(0.05)
    j = bb84_simple_noise_channel(0.05).choi.copy()
    vals, vecs = np.linalg.eigh(j)
    vals[0] -= 1e-3
    j_bad = (vecs * vals) @ vecs.conj().T
    report = verify_choi_witness(j_bad, p_dc, povm, povm, 1e-6)
    assert not report.passed
    assert report.psd_residual >= 1e-4


def test_fine_grained_passive_layout_runs():
    # fine-grained passive BB84: 16 events on layout dim 19, a 361 x 361 Choi matrix
    sq = flag_state_target(build_threshold_povm(passive_bb84_setup(1.0), 1), 1)
    assert sq.layout.total_dim == 19
    result = choi_feasibility(np.eye(16), sq, sq, tol=1e-6, max_iter=1)
    assert isinstance(result, FeasibilityResult)
    assert result.iterations == 1
    assert np.isfinite(result.residual)


def _passive_case(coarse_grain):
    # four-detector passive BB84, multiclick (Choi 81) or fine-grained (Choi 361)
    povm = build_threshold_povm(passive_bb84_setup([0.8, 0.85, 0.9, 0.75]), 1)
    p_db = dark_count_matrix([0.08, 0.05, 0.1, 0.07])
    if not coarse_grain:
        return p_db, flag_state_target(povm, 1)
    cg = multiclick_coarse_graining(povm.events)
    return coarse_grained_dc_ansatz(p_db, cg), flag_state_target(apply_postprocessing(cg, povm), 1)


@pytest.fixture(scope="module")
def coarse_dark_case():
    p_dc, squashed = _passive_case(coarse_grain=True)
    return p_dc, squashed, dark_count_channel(p_dc, squashed)


def test_dark_channel_choi_passes_witness_check(coarse_dark_case):
    p_dc, squashed, channel = coarse_dark_case
    report = verify_choi_witness(channel.choi, p_dc, squashed, squashed, 1e-9)
    assert report.passed


def test_probe_agrees_with_dark_channel_construction(coarse_dark_case):
    # the probe must report feasible wherever the explicit channel exists,
    # here on the coarse-grained four-detector setup
    p_dc, squashed, _ = coarse_dark_case
    result = choi_feasibility(p_dc, squashed, squashed, tol=1e-6)
    assert result.verdict == "feasible-at-tol"
    assert verify_choi_witness(result.witness, p_dc, squashed, squashed, 1e-6).passed


def _bent_dark_matrix(eps):
    # column 1 of the dark-count map, bent to demand probability -eps of event 2
    p = bb84_squashed_dark_matrix(0.05).entries.copy()
    p[1, 1] += p[2, 1] + eps
    p[2, 1] = -eps
    return p


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_dual_gradient_is_the_defect(seed):
    # theta(Y) = 1/2 ||Pi_+(sum_k Y_k^T (x) F_k)||^2 - sum_k Re Tr[G_k Y_k] has
    # gradient D(J(Y)), the defect the kernel scores; central differences of
    # the probe's objective along a random Hermitian direction
    rng = np.random.default_rng(seed)
    f_before, f_after = random_squashed_povm(rng), random_squashed_povm(rng)
    n = len(f_after)
    p = rng.dirichlet(np.ones(n), size=n).T * (rng.random((n, n)) < 0.6)
    p[rng.integers(n, size=n), range(n)] += 1e-3
    p /= p.sum(axis=0)
    system = ChoiConstraintSystem((p, f_before, f_after))
    face = _face_basis(system)

    def hermitian_stack():
        g = rng.normal(size=system.targets.shape) + 1j * rng.normal(size=system.targets.shape)
        return g + g.conj().transpose(0, 2, 1)

    y, step = hermitian_stack(), hermitian_stack()
    _, j, defect = _dual(system, face, y)
    support = ChoiSupport.from_dense(j, system.d_in, system.d_out)
    np.testing.assert_array_equal(_hermitian_score(defect), support.residuals(system.ops, system.targets)[0])
    slope = np.vdot(defect, step).real
    h = 1e-6
    numeric = (_dual(system, face, y + h * step)[0] - _dual(system, face, y - h * step)[0]) / (2 * h)
    assert abs(numeric - slope) <= 1e-6 * max(1.0, abs(slope))


def _random_cptp_choi(rng, d):
    # random rank, rescaled so that Tr_out J = I
    rank = int(rng.integers(1, d * d + 1))
    g = rng.normal(size=(d * d, rank)) + 1j * rng.normal(size=(d * d, rank))
    j = g @ g.conj().T
    vals, vecs = np.linalg.eigh(np.einsum("aibi->ab", j.reshape(d, d, d, d)))
    s = np.kron((vecs / np.sqrt(vals)) @ vecs.conj().T, np.eye(d))
    return s @ j @ s.conj().T


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_feasible_by_construction(seed):
    # F_before = Phi^dag(F_after) for a random channel Phi, and P = I
    rng = np.random.default_rng(seed)
    f_after = random_squashed_povm(rng)
    d = f_after.layout.total_dim
    f_before = ChoiSupport.from_dense(_random_cptp_choi(rng, d), d, d).heisenberg(f_after.dense)[0]
    p = np.eye(len(f_before))
    result = choi_feasibility(p, f_before, f_after, tol=1e-6)
    assert result.verdict == "feasible-at-tol" and result.stop == "tol"
    assert result.ray is None
    assert verify_choi_witness(result.witness, p, f_before, f_after, 1e-6).passed


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("eps", [0.05, 1e-4])
def test_bent_dark_matrix_is_infeasible_with_verified_ray(basis, eps):
    p = _bent_dark_matrix(eps)
    povm = bb84_qubit_measurement(basis)
    result = choi_feasibility(p, povm, povm, tol=1e-6)
    assert result.verdict == "infeasible-at-tol" and result.stop == "farkas"
    assert result.witness is None
    report = verify_farkas_ray(result.ray, p, povm, povm, 1e-6)
    assert report.passed and report.margin > 1e-6


def test_broken_ray_fails_verification():
    povm = bb84_qubit_measurement("Z")
    p = _bent_dark_matrix(0.05)
    ray = choi_feasibility(p, povm, povm, tol=1e-6).ray
    assert verify_farkas_ray(ray, p, povm, povm, 1e-6).passed
    flipped = verify_farkas_ray(-ray, p, povm, povm, 1e-6)
    assert not flipped.passed and flipped.margin < 0
    # the ray certifies this matrix, not the unbent one
    assert not verify_farkas_ray(ray, bb84_squashed_dark_matrix(0.05), povm, povm, 1e-6).passed
    # an event block pushed up by a large multiple of the identity
    big = 10.0 * np.abs(ray).max() * np.eye(ray.shape[-1])
    for k in range(len(ray) - 1):
        bent = ray.copy()
        bent[k] += big
        assert not verify_farkas_ray(bent, p, povm, povm, 1e-6).passed
    # the trace-preservation block absorbs an identity shift exactly, and
    # only the Hermitian part of a block counts
    margin = verify_farkas_ray(ray, p, povm, povm, 1e-6).margin
    shifted = ray.copy()
    shifted[-1] += big
    shifted[0, 0, 1] += 1e-3
    shifted[0, 1, 0] -= 1e-3
    assert verify_farkas_ray(shifted, p, povm, povm, 1e-6).margin == pytest.approx(margin, rel=1e-9)
    with pytest.raises(ValueError, match="shape"):
        verify_farkas_ray(ray[:-1], p, povm, povm, 1e-6)



@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), sparse=st.booleans())
def test_farkas_lambda_max_matches_dense_spectrum(seed, sparse):
    # lambda_max(sum_k Y_k^T (x) F_k) from the component eigensolve against a
    # dense eigvalsh of the Kronecker sum; a sparse ray leaves zero rows
    rng = np.random.default_rng(seed)
    povm = random_squashed_povm(rng)
    n = len(povm)
    p = rng.dirichlet(np.ones(n), size=n).T
    d = povm.layout.total_dim
    g = rng.normal(size=(n + 1, d, d)) + 1j * rng.normal(size=(n + 1, d, d))
    if sparse:
        g *= rng.random((n + 1, d, d)) < 0.2
    ray = g + g.conj().transpose(0, 2, 1)
    ops = [*povm.dense, np.eye(d)]
    dense = sum(np.kron(y_k.T, f_k) for y_k, f_k in zip(ray, ops))
    want = np.linalg.eigvalsh(dense)[-1]
    got = verify_farkas_ray(ray, p, povm, povm, 1e-6).lambda_max
    assert got == pytest.approx(want, rel=0.0, abs=1e-12)

# Primal points per case in ROADMAP item 2's table of the dual probe; the
# probe may take at most half as many again.
TABLE_SLACK = 1.5
ACTIVE_TABLE_POINTS = {-1.25: 9, -1.75: 8, -2.25: 9, -2.75: 15, -3.5: 27}


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("log_d", list(ACTIVE_TABLE_POINTS))
def test_probe_feasible_with_verified_witness_on_active_strata(log_d, basis):
    # choi-check's probe on the active strata, down to d = 10^-3.5
    d = 10.0**log_d
    desc = descriptor_from_dict({"setup": "active-bb84", "dark_range": [[0, d], [0, d]], "seed": 7})
    _, lp = _active_point(desc, "choi-check")
    povm = bb84_qubit_measurement(basis)
    result = choi_feasibility(lp.matrix, povm, povm, tol=desc.feas_tol)
    assert result.verdict == "feasible-at-tol" and result.stop == "tol"
    assert result.iterations <= TABLE_SLACK * ACTIVE_TABLE_POINTS[log_d]
    assert verify_choi_witness(result.witness, lp.matrix, povm, povm, desc.feas_tol).passed


@pytest.mark.parametrize(
    "case, verdict, table_points",
    [
        ("adversarial", "infeasible-at-tol", 7),
        ("bent-Z", "infeasible-at-tol", 33),
        ("bent-X", "infeasible-at-tol", 33),
        ("choi-81", "feasible-at-tol", 88),
        ("choi-361", "feasible-at-tol", 209),
    ],
)
def test_probe_table_cases(case, verdict, table_points):
    # the rest of the table: the adversarial matrix, the dark map bent to
    # demand probability -1e-5, and passive multiclick and fine-grained
    if case == "adversarial":
        p, povm = ADVERSARIAL, bb84_qubit_measurement("Z")
    elif case.startswith("bent"):
        p, povm = _bent_dark_matrix(1e-5), bb84_qubit_measurement(case[-1])
    else:
        p, povm = _passive_case(coarse_grain=case == "choi-81")
        assert povm.layout.total_dim**2 == int(case[5:])
    result = choi_feasibility(p, povm, povm, tol=1e-6)
    assert result.verdict == verdict
    assert result.iterations <= TABLE_SLACK * table_points
    if verdict == "feasible-at-tol":
        assert verify_choi_witness(result.witness, p, povm, povm, 1e-6).passed
    else:
        assert verify_farkas_ray(result.ray, p, povm, povm, 1e-6).passed


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 30), log_cond=st.floats(0.0, 4.0))
def test_lbfgs_reaches_minimiser_of_convex_quadratic(seed, n, log_cond):
    # with no stop from the objective, the run ends where no step decreases
    # it: f carries rounding of about eps * cond * |x*|^2, which limits |x - x*|
    # to about 1e-6 |x*| at condition 1e4
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.logspace(0.0, log_cond, n)) @ q.T
    b = rng.normal(size=n)
    x, stop = _lbfgs(lambda v: (0.5 * v @ a @ v - b @ v, a @ v - b), np.zeros(n))
    assert stop == "line search made no progress"
    x_star = np.linalg.solve(a, b)
    assert np.linalg.norm(x - x_star) <= 1e-5 * max(1.0, np.linalg.norm(x_star))


def test_stop_names_why_the_probe_ended():
    povm = bb84_qubit_measurement("Z")
    feasible = choi_feasibility(bb84_squashed_dark_matrix(0.05), povm, povm)
    assert feasible.stop == "tol" and feasible.grad_norm < 1e-5
    infeasible = choi_feasibility(ADVERSARIAL, povm, povm)
    assert infeasible.stop == "farkas" and infeasible.verdict == "infeasible-at-tol"
    capped = choi_feasibility(bb84_squashed_dark_matrix(0.05), povm, povm, max_iter=3)
    assert capped.stop == "cap" and capped.verdict == "undetermined"
    assert capped.iterations == 3
    assert capped.witness is None and capped.ray is None
    assert capped.grad_norm > 1e-6
    # below the precision floor the solver stops on its own and says why
    floored = choi_feasibility(bb84_squashed_dark_matrix(0.05), povm, povm, tol=1e-300)
    assert floored.verdict == "undetermined" and floored.stop not in ("tol", "farkas", "cap")
    assert floored.witness is None and floored.ray is None
    for bad in ({"tol": 0.0}, {"tol": float("nan")}, {"max_iter": 0}):
        with pytest.raises(ValueError, match="tol > 0 and max_iter >= 1"):
            choi_feasibility(bb84_squashed_dark_matrix(0.05), povm, povm, **bad)
    # the iterates do not depend on tol, so a tol equal to the last residual
    # stops at the same point: the probe passes at residual <= tol, as every report
    at_residual = choi_feasibility(bb84_squashed_dark_matrix(0.05), povm, povm, tol=feasible.residual)
    assert (at_residual.stop, at_residual.iterations) == ("tol", feasible.iterations)
    assert at_residual.residual == feasible.residual


def test_choi_check_is_byte_deterministic(tmp_path):
    descriptor = Path(__file__).resolve().parents[1] / "descriptors" / "active_bb84.json"
    outs = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for out in outs:
        assert cli.main(["choi-check", str(descriptor), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_trace_preservation_scores_an_off_diagonal_fault_like_every_identity():
    # Tr_out J picks up delta at (a, b) and its conjugate at (b, a): on the
    # Hermitian matrix-unit basis the worst mismatch is 2 max(|Re|, |Im|)
    d = 0.05
    channel = bb84_simple_noise_channel(d)
    povm = bb84_qubit_measurement("Z")
    d_in = d_out = channel.input_layout.total_dim
    delta = (1 + 2j) * 1e-7
    j = channel.choi.copy()
    a, b, i = 0, 2, 1
    j[a * d_out + i, b * d_out + i] += delta
    j[b * d_out + i, a * d_out + i] += np.conj(delta)
    want = 2 * max(abs(delta.real), abs(delta.imag))
    faulty = QuantumChannel.from_choi(j, channel.input_layout, channel.output_layout)
    assert verify_cptp(faulty, 1e-9).trace_preservation_dev == pytest.approx(want, rel=1e-12)
    report = verify_choi_witness(j, bb84_squashed_dark_matrix(d), povm, povm, 1e-9)
    assert report.trace_preservation_dev == pytest.approx(want, rel=1e-12)
    assert not report.passed
