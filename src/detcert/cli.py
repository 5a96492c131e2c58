"""Command line interface.

Every subcommand reads the same JSON setup descriptor and emits JSON
(stdout or ``--out``).  ``_COMMANDS`` is the one table of subcommands: each
name's help text and its :mod:`detcert.report` function, which turns the
descriptor into the payload and the exit code.  ``main`` parses, loads the
descriptor, applies the flags, calls that function and writes its payload.
Exit codes: 0 all checks pass, 2 framework preconditions unmet or checks
failed, 1 tool error (usage, descriptor, I/O).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .descriptor import FIELD_NAMES, DescriptorError, load_descriptor
from .report import EXIT_OK, EXIT_TOOL_ERROR, analyze, choi_check, swap_lp, verify_channel, weight, write_json

# Subcommand -> (help text, ``desc -> (payload, exit code)``), in the order ``--help`` lists them.
_COMMANDS = {
    "analyze": ("run the full build/squash/channel/certify pipeline", analyze),
    "swap-lp": ("solve the swap equation for the dark-count post-processing", swap_lp),
    "verify-channel": ("construct the noise channels and report residuals", verify_channel),
    "weight": ("bound the weight outside the preserved blocks", weight),
    "choi-check": ("certify noise-channel existence with a re-verified Choi witness", choi_check),
}


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
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, description=help_text)
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
    updates = {n: v for n, v in vars(args).items() if n in FIELD_NAMES and v is not None}
    return desc.replace(**updates) if updates else desc


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_TOOL_ERROR
    try:
        desc = _apply_overrides(load_descriptor(args.descriptor), args)
        payload, code = _COMMANDS[args.command][1](desc)
        write_json(payload, args.out)
        return code
    except DescriptorError as exc:
        print(f"descriptor error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR


if __name__ == "__main__":
    sys.exit(main())
