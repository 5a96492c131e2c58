"""Self-tests of the benchmark: seeded inputs and the outcome checker.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import checker
from checker import MISSING, OK, WRONG, grade
from workloads import (
    FEASIBLE,
    LP_INFEASIBLE,
    NOT_REDUCIBLE,
    REDUCIBLE,
    WORKLOADS,
    op_stream,
    plan,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_descriptors(workload):
    make = WORKLOADS[workload]["round"]
    for r in range(3):
        assert make(5, r) == make(5, r)
    assert make(5, 0) != make(6, 0)
    assert make(5, 0) != make(5, 1)
    assert WORKLOADS[workload]["warmup"](5) == WORKLOADS[workload]["warmup"](5)
    stream = op_stream(workload, 5)
    assert [next(stream)[1] for _ in range(len(make(5, 0)))] == make(5, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plan_depends_only_on_its_arguments(workload):
    """Same seed, same schedule; other seeds, the same number of each op kind."""
    assert plan(workload, 5, 50) == plan(workload, 5, 50)

    def counts(seed):
        schedule = plan(workload, seed, 50)
        return (
            Counter(activity for activity, _ in schedule),
            Counter((op.cmd, op.expect, op.slot) for activity, op in schedule if activity == "inproc"),
        )

    assert counts(5) == counts(6) == counts(7)
    assert set(counts(5)[0]) == {"setup", "cli", "inproc"}


def test_active_light_rounds_skip_only_costly_probes():
    light = WORKLOADS["active-mixed"]["light_round"](3, 0)
    full = WORKLOADS["active-mixed"]["round"](3, 0)
    skipped = [op for op in full if op not in light]
    assert skipped and all(op.cmd == "choi-check" and op.expect == FEASIBLE for op in skipped)
    assert {(op.cmd, op.expect) for op in light} == {(op.cmd, op.expect) for op in full}


def test_plan_runs_every_full_round_op_once():
    ops = [op for activity, op in plan("active-mixed", 4, 50) if activity == "inproc"]
    assert len({op.tag for op in ops}) == len(ops)
    full = WORKLOADS["active-mixed"]["round"](4, 0)
    assert all(op in ops for op in full)


def test_active_round_expectations_follow_the_rates():
    ops = WORKLOADS["active-mixed"]["round"](3, 0)
    assert len({op.tag for op in ops}) == len(ops)
    for op in ops:
        (_, d0), (_, d1) = op.descriptor["dark_range"]
        assert 1e-3 <= min(d0, d1) and max(d0, d1) <= 1e-1
        if d0 == d1:
            assert op.expect in (REDUCIBLE, FEASIBLE)
        else:
            assert op.expect in (NOT_REDUCIBLE, LP_INFEASIBLE)
    assert sorted({op.expect for op in ops}) == sorted({REDUCIBLE, NOT_REDUCIBLE, FEASIBLE, LP_INFEASIBLE})


def _analyze_cert(status="reducible", residual=1e-12, passed=True):
    return {
        "checks": [
            {"name": "dark-channel-cptp-corner0", "residual": 1e-15, "tolerance": 1e-9, "passed": True},
            {"name": "dark-channel-statistics-corner0", "residual": residual,
             "tolerance": 1e-9, "passed": passed},
        ],
        "status": status,
        "failed_requirement": None if status == "reducible" else "swap equation",
    }


def _choi_payload(verdict="feasible-at-tol", witness_passed=True, linear=1e-9):
    report = {
        "hermiticity_dev": 0.0, "psd_residual": 0.0, "trace_preservation_dev": 1e-12,
        "linear_residual": linear, "passed": witness_passed,
    }
    bases = {}
    for basis in ("Z", "X"):
        entry = {"verdict": verdict, "residual": 1e-7, "iterations": 40}
        if verdict == "feasible-at-tol":
            entry["witness_report"] = report
        bases[basis] = entry
    return {"dark": [0.01, 0.01], "bases": bases}


DESC = {"setup": "active-bb84"}


def _grade(cmd, expect, exit_code, payload):
    return grade(cmd, expect, DESC, exit_code, json.dumps(payload))


def test_checker_accepts_expected_outcomes():
    assert _grade("analyze", REDUCIBLE, 0, _analyze_cert()).grade == OK
    infeasible = _analyze_cert(status=checker.NOT_REDUCIBLE_STATUS, residual=0.01, passed=False)
    assert _grade("analyze", NOT_REDUCIBLE, 2, infeasible).grade == OK
    assert _grade("choi-check", FEASIBLE, 0, _choi_payload()).grade == OK
    lp = {"verdict": "swap equation infeasible", "residual": 0.004, "dark": [0.01, 0.02]}
    assert _grade("choi-check", LP_INFEASIBLE, 2, lp).grade == OK


def test_checker_counts_a_flipped_verdict():
    flipped = _analyze_cert(status=checker.NOT_REDUCIBLE_STATUS, residual=0.01, passed=False)
    g = _grade("analyze", REDUCIBLE, 2, flipped)
    assert (g.grade, g.failed) == (WRONG, True)
    g = _grade("analyze", NOT_REDUCIBLE, 0, _analyze_cert())
    assert (g.grade, g.failed) == (WRONG, True)
    lp_claims_feasible = _choi_payload()
    g = _grade("choi-check", LP_INFEASIBLE, 0, lp_claims_feasible)
    assert (g.grade, g.failed) == (WRONG, True)
    g = _grade("choi-check", FEASIBLE, 2, _choi_payload(verdict="infeasible-at-tol"))
    assert (g.grade, g.failed) == (WRONG, True)


def test_checker_counts_a_residual_above_tolerance():
    g = _grade("analyze", REDUCIBLE, 0, _analyze_cert(residual=2e-9))
    assert (g.grade, g.failed) == (WRONG, True)
    g = _grade("choi-check", FEASIBLE, 0, _choi_payload(linear=1e-5))
    assert (g.grade, g.failed) == (WRONG, True)


def test_checker_counts_a_wrong_exit_code():
    for exit_code in (1, 2, None, -9):
        g = _grade("analyze", REDUCIBLE, exit_code, _analyze_cert())
        assert (g.grade, g.failed) == (WRONG, True), exit_code
    g = _grade("choi-check", FEASIBLE, 2, _choi_payload())
    assert (g.grade, g.failed) == (WRONG, True)


def test_checker_counts_a_failed_witness_and_missing_output():
    g = _grade("choi-check", FEASIBLE, 0, _choi_payload(witness_passed=False))
    assert (g.grade, g.failed) == (WRONG, True)
    g = grade("analyze", REDUCIBLE, DESC, 0, None)
    assert (g.grade, g.failed) == (WRONG, True)


def test_checker_grades_undetermined_as_missing():
    g = _grade("choi-check", FEASIBLE, 2, _choi_payload(verdict="undetermined"))
    assert (g.grade, g.failed) == (MISSING, True)


def test_checker_on_real_certificates(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from detcert.cli import main

    op = WORKLOADS["passive-multiclick"]["round"](1, 0)[0]
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps(op.descriptor))
    out = tmp_path / "cert.json"
    exit_code = main([op.cmd, str(desc), "--out", str(out)])
    text = out.read_text()
    assert grade(op.cmd, op.expect, op.descriptor, exit_code, text).grade == OK

    cert = json.loads(text)
    raised = copy.deepcopy(cert)
    raised["checks"][-1]["residual"] = 10 * raised["checks"][-1]["tolerance"] + 1e-9
    assert grade(op.cmd, op.expect, op.descriptor, exit_code, json.dumps(raised)).grade == WRONG
    flipped = copy.deepcopy(cert)
    flipped["status"] = checker.NOT_REDUCIBLE_STATUS
    assert grade(op.cmd, op.expect, op.descriptor, 2, json.dumps(flipped)).grade == WRONG
    assert grade(op.cmd, op.expect, op.descriptor, 2, text).grade == WRONG


def test_reference_speed_covers_a_span_as_long_as_the_sample():
    from run import reference_speed

    refs = [(float(t), float(t)) for t in range(60)]  # one reference run a second, taking t s
    # A short sample is set against the runs within the fixed margin around it.
    assert reference_speed(refs, 30.0, 0.5) == 30.0
    # A 10 s sample, from 30 to 40 s, against the runs from 20 to 50 s.
    assert reference_speed(refs, 30.0, 10.0) == 35.0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
