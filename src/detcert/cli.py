"""Command line interface.

Every subcommand reads the same JSON setup descriptor and emits JSON
(stdout or ``--out``).  Exit codes: 0 all checks pass, 2 framework
preconditions unmet or checks failed, 1 tool error (usage, descriptor, I/O).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, fields, replace

from .channels import bb84_qubit_measurement
from .descriptor import DescriptorError, load_descriptor
from .feasibility import measure_prepare_witness, verify_choi_witness
from .report import (
    EXIT_NOT_REDUCIBLE,
    EXIT_OK,
    EXIT_TOOL_ERROR,
    active_swap_lp,
    emit_certificate,
    run_analysis,
    run_weight,
    write_json,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="detcert",
        description=(
            "Construct and certify the post-processing maps and noise channels "
            "that reduce an imperfect threshold-detector setup to an ideal one."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "run the full build/squash/channel/certify pipeline"),
        ("swap-lp", "solve the swap equation for the dark-count post-processing"),
        ("verify-channel", "construct the noise channels and report residuals"),
        ("weight", "bound the weight outside the preserved blocks"),
        ("choi-check", "certify noise-channel existence with a re-verified Choi witness"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("descriptor", help="path to the JSON setup descriptor")
        cmd.add_argument("--tol", type=float, default=None, help="certification tolerance")
        cmd.add_argument(
            "--seed", type=int, default=None,
            help="seed override; only echoed into the certificate, changes no computation",
        )
        cmd.add_argument("--eta-star", type=float, default=None, help="common efficiency")
        cmd.add_argument(
            "--coarse-grain", choices=("none", "multiclick"), default=None,
            help="coarse graining of the click patterns",
        )
        cmd.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def _apply_overrides(desc, args):
    """The descriptor with each flag that was given in place of its field of the same name."""
    names = {f.name for f in fields(desc)}
    updates = {n: v for n, v in vars(args).items() if n in names and v is not None}
    return replace(desc, **updates) if updates else desc


def _cmd_analyze(desc, args) -> int:
    cert = run_analysis(desc)
    emit_certificate(cert, args.out)
    return cert.exit_code


def _cmd_swap_lp(desc, args) -> int:
    d_vec, result = active_swap_lp(desc)
    payload = {
        "dark": d_vec.tolist(),
        "feasible": result.feasible,
        "residual": result.residual,
        "tolerance": result.tolerance,
        "matrix": result.matrix.entries.tolist() if result.matrix is not None else None,
    }
    write_json(payload, args.out)
    return EXIT_OK if result.feasible else EXIT_NOT_REDUCIBLE


def _cmd_verify_channel(desc, args) -> int:
    cert = run_analysis(desc)
    payload = {
        "checks": [c for c in cert.checks if "channel" in c["name"]],
        "status": cert.status,
        "failed_requirement": cert.failed_requirement,
    }
    write_json(payload, args.out)
    return cert.exit_code


def _cmd_weight(desc, args) -> int:
    write_json(run_weight(desc), args.out)
    return EXIT_OK


def _cmd_choi_check(desc, args) -> int:
    d_vec, result = active_swap_lp(desc)
    if not result.feasible:
        payload = {"verdict": "swap equation infeasible", "residual": result.residual, "dark": d_vec.tolist()}
        write_json(payload, args.out)
        return EXIT_NOT_REDUCIBLE
    payload = {"dark": d_vec.tolist(), "bases": {}}
    for basis in ("Z", "X"):
        povm = bb84_qubit_measurement(basis)
        witness = measure_prepare_witness(result.matrix, povm, povm)
        report = verify_choi_witness(witness, result.matrix, povm, povm, desc.feas_tol)
        verdict = "feasible-at-tol" if report.passed else "undetermined"
        payload["bases"][basis] = {"verdict": verdict, "residual": report.residual, "witness_report": asdict(report)}
    write_json(payload, args.out)
    ok = all(entry["witness_report"]["passed"] for entry in payload["bases"].values())
    return EXIT_OK if ok else EXIT_NOT_REDUCIBLE


_COMMANDS = {
    "analyze": _cmd_analyze,
    "swap-lp": _cmd_swap_lp,
    "verify-channel": _cmd_verify_channel,
    "weight": _cmd_weight,
    "choi-check": _cmd_choi_check,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_TOOL_ERROR
    try:
        desc = _apply_overrides(load_descriptor(args.descriptor), args)
        if args.command in ("swap-lp", "choi-check") and desc.setup != "active-bb84":
            raise DescriptorError(
                f"setup: {args.command} supports only the active-bb84 qubit squasher, got {desc.setup!r}"
            )
        return _COMMANDS[args.command](desc, args)
    except DescriptorError as exc:
        print(f"descriptor error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR


if __name__ == "__main__":
    sys.exit(main())
