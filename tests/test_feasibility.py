import numpy as np
import pytest
from helpers import hermitian_basis, random_squashed_povm, reference_probe
from hypothesis import given, settings
from hypothesis import strategies as st

from detcert import (
    FeasibilityResult,
    bb84_qubit_measurement,
    bb84_simple_noise_channel,
    bb84_squashed_dark_matrix,
    build_threshold_povm,
    choi_feasibility,
    flag_state_target,
    passive_bb84_setup,
    verify_choi_witness,
)
from detcert.channels import (
    QuantumChannel,
    _hermitian_score,
    verify_cptp,
    verify_statistics_equivalence,
)
from detcert.feasibility import ChoiConstraintSystem
from detcert.report import active_swap_lp, descriptor_from_dict

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
    result = choi_feasibility(p_dc, povm, povm, tol=1e-6, max_iter=10_000, seed=0)
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
    result = choi_feasibility(np.eye(3), povm, povm, tol=1e-6, seed=0)
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
            result = choi_feasibility(p_dc, povm, povm, tol=1e-6, seed=0)
            assert result.verdict == "feasible-at-tol"
            explicit = bb84_simple_noise_channel(d).choi
            report = verify_choi_witness(explicit, p_dc, povm, povm, 1e-9)
            assert report.passed


def test_adversarial_demand_never_feasible():
    # columns sum to one but demand a negative outcome probability, which
    # no PSD Choi matrix can produce
    povm = bb84_qubit_measurement("Z")
    result = choi_feasibility(ADVERSARIAL, povm, povm, tol=1e-6, max_iter=4000, seed=0)
    assert result.verdict in ("infeasible-at-tol", "undetermined")
    assert result.verdict != "feasible-at-tol"
    assert result.witness is None
    assert result.residual > 0.1


def test_determinism_under_fixed_seed():
    p_dc = bb84_squashed_dark_matrix(0.05)
    povm = bb84_qubit_measurement("Z")
    a = choi_feasibility(p_dc, povm, povm, tol=1e-6, seed=42)
    b = choi_feasibility(p_dc, povm, povm, tol=1e-6, seed=42)
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
    result = choi_feasibility(np.eye(16), sq, sq, tol=1e-6, max_iter=1, restarts=1)
    assert isinstance(result, FeasibilityResult)
    assert result.iterations == 1
    assert np.isfinite(result.residual)


@pytest.fixture(scope="module")
def coarse_dark_case():
    from detcert import (
        apply_postprocessing,
        build_threshold_povm,
        coarse_grained_dc_ansatz,
        dark_count_channel,
        dark_count_matrix,
        flag_state_target,
        multiclick_coarse_graining,
        passive_bb84_setup,
    )

    povm = build_threshold_povm(passive_bb84_setup([0.8, 0.85, 0.9, 0.75]), 1)
    cg = multiclick_coarse_graining(povm.events)
    squashed = flag_state_target(apply_postprocessing(cg, povm), 1)
    p_dc = coarse_grained_dc_ansatz(dark_count_matrix([0.08, 0.05, 0.1, 0.07]), cg)
    channel = dark_count_channel(p_dc, squashed)
    return p_dc, squashed, channel


def test_dark_channel_choi_passes_witness_check(coarse_dark_case):
    p_dc, squashed, channel = coarse_dark_case
    report = verify_choi_witness(channel.choi, p_dc, squashed, squashed, 1e-9)
    assert report.passed


def test_probe_agrees_with_dark_channel_construction(coarse_dark_case):
    # the probe must report feasible wherever the explicit channel exists,
    # here on the coarse-grained four-detector setup
    p_dc, squashed, _ = coarse_dark_case
    result = choi_feasibility(p_dc, squashed, squashed, tol=1e-6, seed=0)
    assert result.verdict == "feasible-at-tol"
    assert verify_choi_witness(result.witness, p_dc, squashed, squashed, 1e-6).passed


def _dense_row_projection(p, before, after, j):
    """Reference: one constraint row ``Tr[H J] = b`` per Hermitian basis element.

    Rows ``rho^T (x) F_i`` with ``b = sum_j P_ij Tr[F_before_j rho]`` and
    ``sigma (x) I`` with ``b = Tr[sigma]``; the projection pseudo-inverts the
    dense Gram matrix of all rows.
    """
    d_in, d_out = before[0].shape[0], after[0].shape[0]
    rows, rhs = [], []
    for rho in hermitian_basis(d_in):
        probs = np.array([np.trace(f @ rho).real for f in before])
        for f, target in zip(after, p @ probs):
            rows.append(np.kron(rho.T, f))
            rhs.append(target)
    for sigma in hermitian_basis(d_in):
        rows.append(np.kron(sigma, np.eye(d_out)))
        rhs.append(np.trace(sigma).real)
    h = np.array(rows)
    gram = np.einsum("rab,sba->rs", h, h).real
    gap = np.einsum("rab,ba->r", h, j).real - np.array(rhs)
    coeffs = np.linalg.pinv(gram, rcond=1e-12) @ gap
    return j - np.einsum("r,rab->ab", coeffs, h)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_heisenberg_projection_equals_dense_rows(seed):
    rng = np.random.default_rng(seed)
    f_before = random_squashed_povm(rng)
    f_after = random_squashed_povm(rng)
    n = len(f_after)
    p = rng.dirichlet(np.ones(n), size=n).T  # column-stochastic
    system = ChoiConstraintSystem(p, f_before, f_after)
    g = rng.normal(size=(system.dim,) * 2) + 1j * rng.normal(size=(system.dim,) * 2)
    j = (g + g.conj().T) / 2.0
    y = system.project_affine(j, system.defect(j))
    before = [el.to_dense() for el in f_before.elements]
    after = [el.to_dense() for el in f_after.elements]
    assert np.abs(y - _dense_row_projection(p, before, after, j)).max() <= 1e-12
    assert np.abs(system.project_affine(y, system.defect(y)) - y).max() <= 1e-12
    assert _hermitian_score(system.defect(y)).max() <= 1e-12
    report = verify_choi_witness(y, p, f_before, f_after, 1e-12)
    assert report.linear_residual <= 1e-12
    assert report.trace_preservation_dev <= 1e-12


@pytest.mark.parametrize(
    "log_d,basis,iterations",
    [(-1.25, "Z", 151), (-1.25, "X", 113), (-1.75, "Z", 980), (-1.75, "X", 760),
     (-2.25, "Z", 4708), (-2.25, "X", 3664)],
)
def test_probe_iterations_pinned_on_active_strata(log_d, basis, iterations):
    # the choi-check probe on the benchmark's active strata (seed 7)
    d = 10.0**log_d
    desc = descriptor_from_dict({"setup": "active-bb84", "dark_range": [[0, d], [0, d]], "seed": 7})
    _, lp = active_swap_lp(desc)
    povm = bb84_qubit_measurement(basis)
    result = choi_feasibility(lp.matrix, povm, povm, tol=desc.feas_tol, seed=desc.seed)
    assert result.verdict == "feasible-at-tol"
    assert result.iterations == iterations


def test_capped_probe_pinned_on_active_stratum():
    # the benchmark's known-defect op: every restart runs to the iteration cap
    d = 10.0**-2.75
    desc = descriptor_from_dict({"setup": "active-bb84", "dark_range": [[0, d], [0, d]], "seed": 7})
    _, lp = active_swap_lp(desc)
    povm = bb84_qubit_measurement("Z")
    result = choi_feasibility(lp.matrix, povm, povm, tol=desc.feas_tol, seed=desc.seed)
    assert result.verdict == "undetermined"
    assert result.iterations == 30000
    assert result.stops == ("cap", "cap", "cap")
    assert result.witness is None
    assert result.residual == pytest.approx(9.13874925906528e-06, rel=1e-9)
    gaps = (7.3237725801770415, 9.986458005712, 6.49714486667369)
    assert result.cone_gaps == pytest.approx(gaps, rel=1e-9)


def test_stops_name_why_each_restart_ended():
    povm = bb84_qubit_measurement("Z")
    feasible = choi_feasibility(bb84_squashed_dark_matrix(0.05), povm, povm, seed=0)
    assert feasible.stops[-1] == "tol" and len(feasible.stops) == len(feasible.cone_gaps)
    assert set(feasible.stops[:-1]) <= {"plateau", "cap"}
    adversarial = choi_feasibility(ADVERSARIAL, povm, povm, max_iter=4000, seed=0)
    assert adversarial.stops == ("plateau",) * 3
    capped = choi_feasibility(ADVERSARIAL, povm, povm, max_iter=100, seed=0, restarts=2)
    assert capped.verdict == "undetermined"
    assert capped.stops == ("cap", "cap")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_probe_loop_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    f_before = random_squashed_povm(rng)
    # a rotated output measurement gives the face a complex basis
    f_after = random_squashed_povm(rng)
    d = f_after.layout.total_dim
    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    f_after = [v @ el.to_dense() @ v.conj().T for el in f_after.elements]
    n = len(f_after)
    # column-stochastic; its zeros make the face proper
    p = rng.dirichlet(np.ones(n), size=n).T * (rng.random((n, n)) < 0.6)
    p[rng.integers(n, size=n), range(n)] += 1e-3
    p /= p.sum(axis=0)
    iterates = []
    project = ChoiConstraintSystem.project_face_psd

    def recording(self, mat):
        iterates.append(project(self, mat))
        return iterates[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ChoiConstraintSystem, "project_face_psd", recording)
        result = choi_feasibility(p, f_before, f_after, max_iter=50, seed=seed, restarts=1)
    system = ChoiConstraintSystem(p, f_before, f_after)
    ref_iterates, ref_residuals, ref_gaps = reference_probe(
        system, max_iter=50, seed=seed, restarts=1
    )
    assert len(iterates) == len(ref_iterates) == result.iterations
    assert max(np.abs(a - b).max() for a, b in zip(iterates, ref_iterates)) <= 1e-12
    residuals = [_hermitian_score(system.defect(z), system.score_weight).max() for z in iterates]
    assert np.abs(np.subtract(residuals, ref_residuals)).max() <= 1e-12
    assert abs(result.residual - min(ref_residuals)) <= 1e-12
    assert result.cone_gaps == pytest.approx(ref_gaps, abs=1e-12)
