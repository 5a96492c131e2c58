"""Outcome checker: does one op's output match how its descriptor was built?

Each op ends in one of three grades:

- ``ok``: the exit code, status or verdict is the expected one, and every
  reported residual is consistent with its verdict and tolerance.
- ``missing``: the program gave no verdict where one was expected (the
  feasibility probe answered ``undetermined``).  The op failed, but
  nothing it printed is false.
- ``wrong``: a flipped verdict, a wrong exit code, a check marked passed
  above its tolerance, a witness that failed re-verification, a crash or
  unreadable output.

``failed`` counts ``missing`` and ``wrong``; a run is ``correct`` only if no
op is ``wrong``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import FEASIBLE, LP_INFEASIBLE, NOT_REDUCIBLE, REDUCIBLE

OK, MISSING, WRONG = "ok", "missing", "wrong"

EXIT_OK, EXIT_TOOL_ERROR, EXIT_NOT_REDUCIBLE = 0, 1, 2
REDUCIBLE_STATUS = "reducible"
NOT_REDUCIBLE_STATUS = "not reducible under this framework"
WITNESS_RESIDUALS = (
    "hermiticity_dev", "psd_residual", "trace_preservation_dev", "linear_residual",
)
# Defaults of the descriptor format for fields the generators leave out.
DEFAULT_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-6


@dataclass(frozen=True)
class Grade:
    grade: str
    reason: str

    @property
    def failed(self) -> bool:
        return self.grade != OK


def _check_analyze(expect: str, exit_code: int, cert: dict) -> Grade:
    for check in cert.get("checks", []):
        residual, tol = check["residual"], check["tolerance"]
        if check["passed"] and not residual <= tol:
            return Grade(WRONG, f"check {check['name']} passed with residual {residual} > {tol}")
        if not check["passed"] and residual <= tol:
            return Grade(WRONG, f"check {check['name']} failed with residual {residual} <= {tol}")
    all_passed = all(c["passed"] for c in cert.get("checks", []))
    status = cert.get("status")
    if expect == REDUCIBLE:
        if status != REDUCIBLE_STATUS or not all_passed or cert.get("failed_requirement"):
            return Grade(WRONG, f"expected reducible, got status {status!r}")
        if exit_code != EXIT_OK:
            return Grade(WRONG, f"reducible certificate but exit {exit_code}")
        if not cert.get("checks"):
            return Grade(WRONG, "reducible certificate without checks")
        return Grade(OK, "")
    if expect == NOT_REDUCIBLE:
        if status != NOT_REDUCIBLE_STATUS or all_passed or not cert.get("failed_requirement"):
            return Grade(WRONG, f"expected not reducible, got status {status!r}")
        if exit_code != EXIT_NOT_REDUCIBLE:
            return Grade(WRONG, f"not-reducible certificate but exit {exit_code}")
        return Grade(OK, "")
    raise ValueError(f"analyze cannot expect {expect!r}")


def _check_choi(expect: str, exit_code: int, payload: dict, feas_tol: float, tol: float) -> Grade:
    if expect == LP_INFEASIBLE:
        if payload.get("verdict") != "swap equation infeasible":
            return Grade(WRONG, f"expected infeasible swap LP, got {payload.get('verdict', payload.get('bases'))!r}")
        if not payload["residual"] > tol:
            return Grade(WRONG, f"infeasible swap LP with residual {payload['residual']} <= {tol}")
        if exit_code != EXIT_NOT_REDUCIBLE:
            return Grade(WRONG, f"infeasible swap LP but exit {exit_code}")
        return Grade(OK, "")
    if expect != FEASIBLE:
        raise ValueError(f"choi-check cannot expect {expect!r}")
    bases = payload.get("bases")
    if not bases or set(bases) != {"Z", "X"}:
        return Grade(WRONG, f"expected a witness per basis, got {payload.get('verdict')!r}")
    undetermined = []
    for basis, entry in sorted(bases.items()):
        verdict = entry["verdict"]
        if verdict == "undetermined":
            undetermined.append(f"{basis} after {entry['iterations']} iterations")
            continue
        if verdict != "feasible-at-tol":
            return Grade(WRONG, f"basis {basis}: expected feasible, got {verdict!r}")
        report = entry.get("witness_report")
        if report is None or not report["passed"]:
            return Grade(WRONG, f"basis {basis}: witness failed re-verification")
        for key in WITNESS_RESIDUALS:
            if not report[key] <= feas_tol:
                return Grade(WRONG, f"basis {basis}: witness {key} {report[key]} > {feas_tol}")
        if not entry["residual"] <= feas_tol:
            return Grade(WRONG, f"basis {basis}: feasible with residual {entry['residual']} > {feas_tol}")
    if undetermined:
        if exit_code != EXIT_NOT_REDUCIBLE:
            return Grade(WRONG, f"undetermined verdict but exit {exit_code}")
        return Grade(MISSING, "undetermined: " + ", ".join(undetermined))
    if exit_code != EXIT_OK:
        return Grade(WRONG, f"verified witnesses but exit {exit_code}")
    return Grade(OK, "")


def grade(cmd: str, expect: str, descriptor: dict, exit_code, text) -> Grade:
    """Grade one op from its exit code (None if it raised) and output text."""
    if exit_code is None:
        return Grade(WRONG, "raised")
    if exit_code == EXIT_TOOL_ERROR:
        return Grade(WRONG, "tool error (exit 1)")
    if exit_code not in (EXIT_OK, EXIT_NOT_REDUCIBLE):
        return Grade(WRONG, f"unexpected exit {exit_code}")
    try:
        payload = json.loads(text)
    except (TypeError, ValueError):
        return Grade(WRONG, "output is missing or not JSON")
    tol = descriptor.get("tol", DEFAULT_TOL)
    try:
        if cmd == "analyze":
            return _check_analyze(expect, exit_code, payload)
        if cmd == "choi-check":
            feas_tol = descriptor.get("feas_tol", DEFAULT_FEAS_TOL)
            return _check_choi(expect, exit_code, payload, feas_tol, tol)
    except (KeyError, TypeError) as exc:
        return Grade(WRONG, f"output lacks a field: {exc!r}")
    raise ValueError(f"no checker for {cmd!r}")
