"""End-to-end acceptance checks, one per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion, including the measured runtime.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from helpers import deviation_q_oracle, mix_povms, random_density, random_squashed_povm

import detcert as dc
from detcert import cli

DESCRIPTOR = Path(__file__).resolve().parents[1] / "descriptors" / "passive_bb84.json"


@contextmanager
def criterion(num, text, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL  {text}")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {num}: PASS  {text}  ({elapsed:.2f}s)"
    print(line)
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def test_criterion_1_swap_lp_reproduction():
    with criterion(1, "swap LP reproduces the squashed dark-count map", 0.015):
        squasher = dc.bb84_qubit_squasher()
        for d in (0.01, 0.05, 0.1):
            result = dc.solve_swap_lp(dc.dark_count_matrix([d, d]), squasher)
            assert result.feasible
            expected = dc.bb84_squashed_dark_matrix(d).entries
            assert np.abs(result.matrix.entries - expected).max() <= 1e-9
        unequal = dc.solve_swap_lp(dc.dark_count_matrix([0.01, 0.02]), squasher)
        assert not unequal.feasible


def test_criterion_2_bb84_channel_identity():
    with criterion(2, "simple BB84 noise channel certified in both bases", 1.0):
        for d in (0.01, 0.05, 0.1):
            channel = dc.bb84_simple_noise_channel(d)
            assert dc.verify_cptp(channel, 1e-9).passed
            p_dc = dc.bb84_squashed_dark_matrix(d)
            for basis in ("Z", "X"):
                povm = dc.bb84_qubit_measurement(basis)
                report = dc.verify_statistics_equivalence(
                    p_dc, povm, povm, channel, tol=1e-10
                )
                assert report.passed, report


def test_criterion_3_dark_count_channel_certification():
    with criterion(3, "dark-count channel certified over random rates", 5.0):
        setup = dc.passive_bb84_setup([0.8, 0.85, 0.9, 0.75])
        squashed = dc.flag_state_target(dc.build_threshold_povm(setup, 1), 1)
        proj = squashed.layout.projector(("m=0", "m=1"))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p_db = dc.dark_count_matrix(rng.uniform(0.0, 0.1, 4))
            channel = dc.dark_count_channel(p_db, squashed)
            assert dc.verify_cptp(channel, 1e-9).passed
            stats = dc.verify_statistics_equivalence(
                p_db, squashed, squashed, channel, tol=1e-9
            )
            assert stats.passed
            p00 = p_db.entries[0, 0]
            for _ in range(50):
                rho = random_density(squashed.layout, rng)
                lhs = np.trace(proj @ channel.apply_dense(rho)).real
                rhs = p00 * np.trace(proj @ rho).real
                assert abs(lhs - rhs) <= 1e-12


def test_criterion_4_loss_channel_certification():
    with criterion(4, "loss channel certified at both admissible extremes", 0.5):
        eta = np.array([0.5, 0.55, 0.6, 0.52])
        setup = dc.passive_bb84_setup(1.0)
        lo, hi = dc.eta_star_range(0.5, 0.6)
        f_lossless = dc.flag_state_target(dc.build_threshold_povm(setup, 1), 1)
        f_eta = dc.flag_state_target(
            dc.build_threshold_povm(setup.with_eta(eta), 1), 1
        )
        layout = f_lossless.layout
        rng = np.random.default_rng(99)
        for eta_star in (lo, hi):
            channel = dc.loss_channel(eta, eta_star, f_lossless)
            assert dc.verify_cptp(channel, 1e-9).passed
            f_star = dc.flag_state_target(
                dc.build_threshold_povm(setup.with_eta(eta_star), 1), 1
            )
            stats = dc.verify_statistics_equivalence(
                None, f_eta, f_star, channel, tol=1e-9
            )
            assert stats.passed
            ratio = 0.5 / eta_star
            p0 = layout.projector("m=0")
            p1 = layout.projector("m=1")
            p01 = layout.projector(("m=0", "m=1"))
            for _ in range(50):
                rho = random_density(layout, rng)
                lhs = np.trace(p01 @ channel.apply_dense(rho)).real
                rhs = np.trace(p0 @ rho).real + ratio * np.trace(p1 @ rho).real
                assert abs(lhs - rhs) <= 1e-12


def test_criterion_5_deviation_and_generic_channel():
    with criterion(5, "minimum deviation q and the generic channel agree", 10.0):
        for q0 in (0.1, 0.3, 0.7):
            rng = np.random.default_rng(int(q0 * 10))
            f_ideal = random_squashed_povm(rng)
            q_povm = random_squashed_povm(rng)
            f_noise = mix_povms(f_ideal, q_povm, q0)
            q_min = dc.min_deviation_q(f_noise, f_ideal)
            assert q_min <= q0 + 1e-7
            oracle = deviation_q_oracle(f_noise, f_ideal)
            assert abs(q_min - oracle) <= 1e-7
            channel = dc.generic_channel(f_noise, f_ideal, q_min)
            stats = dc.verify_statistics_equivalence(
                None, f_noise, f_ideal, channel, tol=1e-9
            )
            assert stats.passed
            proj = f_ideal.layout.projector(("m=0", "m=1"))
            for _ in range(20):
                rho = random_density(f_ideal.layout, rng)
                lhs = np.trace(proj @ channel.apply_dense(rho)).real
                rhs = (1.0 - q_min) * np.trace(proj @ rho).real
                assert abs(lhs - rhs) <= 1e-12


def test_criterion_6_coarse_graining_algebra():
    with criterion(6, "coarse-grained dark-count map satisfies the swap", 5.0):
        for k in (2, 3, 4):
            rng = np.random.default_rng(k)
            events = dc.enumerate_events(k)
            cg = dc.multiclick_coarse_graining(events)
            for _ in range(50):
                p_db = dc.dark_count_matrix(rng.uniform(0.0, 1.0, k))
                p_dc = dc.coarse_grained_dc_ansatz(p_db, cg)
                swap_gap = np.abs(
                    cg.entries @ p_db.entries - p_dc.entries @ cg.entries
                ).max()
                assert swap_gap <= 1e-12
                assert dc.validate_dark_count_pp(p_dc, cg.row_table).passed


def test_criterion_7_weight_propagation():
    with criterion(7, "weight propagation reproduces the combined relation", 5.0):
        p00 = (1.0 - 0.01) ** 2
        value = dc.propagate_weight(0.0, p00, 0.9, 1.0)
        assert abs(value - 0.11791) <= 1e-12
        rng = np.random.default_rng(77)
        for _ in range(200):
            w = rng.uniform(0, 1)
            p = rng.uniform(0, 1)
            eta_star = rng.uniform(0.2, 1.0)
            eta_min = rng.uniform(0, eta_star)
            direct = 1.0 - p * (eta_min / eta_star) * (1.0 - w)
            assert abs(dc.propagate_weight(w, p, eta_min, eta_star) - direct) <= 1e-12


def test_criterion_8_choi_feasibility():
    with criterion(8, "Choi feasibility probe with verified witness", 1.0):
        p_dc = dc.bb84_squashed_dark_matrix(0.05)
        for basis in ("Z", "X"):
            povm = dc.bb84_qubit_measurement(basis)
            result = dc.choi_feasibility(
                p_dc, povm, povm, tol=1e-6, max_iter=10_000
            )
            assert result.verdict == "feasible-at-tol"
            assert result.iterations <= 10_000
            witness = dc.verify_choi_witness(result.witness, p_dc, povm, povm, 1e-6)
            assert witness.passed
        adversarial = np.array(
            [[1.0, 0.0, 0.0], [0.0, -0.2, 1.2], [0.0, 1.2, -0.2]]
        )
        povm = dc.bb84_qubit_measurement("Z")
        for _ in range(3):
            result = dc.choi_feasibility(
                adversarial, povm, povm, tol=1e-6, max_iter=4000
            )
            assert result.verdict == "infeasible-at-tol"


def test_criterion_9_deterministic_certificates(tmp_path):
    with criterion(9, "analyze is byte-deterministic at fixed seed", 0.25):
        out1 = tmp_path / "run1.json"
        out2 = tmp_path / "run2.json"
        assert cli.main(["analyze", str(DESCRIPTOR), "--out", str(out1)]) == 0
        assert cli.main(["analyze", str(DESCRIPTOR), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["status"] == "reducible"
        assert payload["descriptor"]["seed"] == 7
