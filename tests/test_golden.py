"""``analyze`` on the shipped descriptors against pinned certificates.

A refactor that claims no output change is checked here: the exit code,
status, check names and verdicts must match exactly, every residual and
derived number to 1e-15 absolute, and the evaluated points exactly.  The
outputs of each case in ``CASES`` are pinned the same way: every command
on a shipped descriptor, and paths the shipped descriptors miss (fine
grained passive ``analyze``, two custom setups, unequal active rates and a
cutoff-2 ``weight``).  After a change that is meant to move the numbers,
regenerate each golden file with

    detcert <command> descriptors/<name>.json --out tests/golden/<command>_<name>.json

and each case of ``CASES`` by writing its descriptor to a file and running
``detcert <command> <file> <flags> --out tests/golden/<command>_<name>.json``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from detcert import cli
from detcert.report import EXIT_NOT_REDUCIBLE, EXIT_OK

ROOT = Path(__file__).resolve().parents[1]


def _numbers(value):
    """The numbers of a JSON value, flattened in order."""
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    return [value]


@pytest.mark.parametrize("name", ["passive_bb84", "active_bb84"])
def test_analyze_matches_golden_certificate(tmp_path, name):
    out = tmp_path / "certificate.json"
    assert cli.main(["analyze", str(ROOT / "descriptors" / f"{name}.json"), "--out", str(out)]) == EXIT_OK
    got = json.loads(out.read_text())
    want = json.loads((ROOT / "tests" / "golden" / f"analyze_{name}.json").read_text())

    assert (got["status"], got["failed_requirement"]) == (want["status"], want["failed_requirement"])
    assert [(c["name"], c["passed"]) for c in got["checks"]] == [
        (c["name"], c["passed"]) for c in want["checks"]
    ]
    np.testing.assert_allclose(
        [c["residual"] for c in got["checks"]],
        [c["residual"] for c in want["checks"]],
        rtol=0.0, atol=1e-15,
    )
    assert [c["inputs"] for c in got["checks"]] == [c["inputs"] for c in want["checks"]]
    assert got["derived"].keys() == want["derived"].keys()
    for key, value in want["derived"].items():
        np.testing.assert_allclose(
            _numbers(got["derived"][key]), _numbers(value), rtol=0.0, atol=1e-15, err_msg=key
        )


# The evaluated points: compared exactly wherever they appear.
_POINTS = ("eta", "dark", "eta_star")


def _assert_matches(got, want, exact=False, path=""):
    """``got`` has ``want``'s structure and values; numbers to 1e-15 absolute unless ``exact``."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key, value in want.items():
            _assert_matches(got[key], value, exact or key in _POINTS, f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, exact, f"{path}/{i}")
    elif isinstance(want, (int, float)) and not isinstance(want, bool) and not exact:
        assert abs(got - want) <= 1e-15, path
    else:
        assert got == want, path


def _shipped(name: str, **edits) -> dict:
    return {**json.loads((ROOT / "descriptors" / f"{name}.json").read_text()), **edits}


_CUSTOM = {"setup": "custom", "k": 2, "eta_range": [[0.6, 0.7], [0.5, 0.8]], "dark_range": [[0, 0.01], [0, 0.03]]}
_UNEQUAL = _shipped("active_bb84", dark_range=[[0, 0.01], [0, 0.02]])

# (command, golden name, descriptor, extra flags, exit code)
CASES = [
    ("swap-lp", "active_bb84", _shipped("active_bb84"), [], EXIT_OK),
    ("weight", "passive_bb84", _shipped("passive_bb84", observed={"event": "multi", "probability": 0.01}), [], EXIT_OK),
    ("choi-check", "active_bb84", _shipped("active_bb84"), [], EXIT_OK),
    ("verify-channel", "passive_bb84", _shipped("passive_bb84"), [], EXIT_OK),
    ("verify-channel", "active_bb84", _shipped("active_bb84"), [], EXIT_OK),
    ("analyze", "passive_bb84_fine", _shipped("passive_bb84"), ["--coarse-grain", "none"], EXIT_OK),
    ("analyze", "custom_identity", {**_CUSTOM, "mode_map": [[1, 0], [0, 1]]}, [], EXIT_OK),
    ("analyze", "custom_complex", {**_CUSTOM, "mode_map": [[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]]}, [], EXIT_OK),
    ("swap-lp", "active_unequal", _UNEQUAL, [], EXIT_NOT_REDUCIBLE),
    ("choi-check", "active_unequal", _UNEQUAL, [], EXIT_NOT_REDUCIBLE),
    (
        "weight", "passive_bb84_cutoff2",
        _shipped("passive_bb84", cutoff=2, observed={"event": "multi", "probability": 0.001}), [], EXIT_OK,
    ),
]


@pytest.mark.parametrize(
    "command, name, descriptor, flags, code", CASES, ids=[f"{command}-{name}" for command, name, *_ in CASES]
)
def test_command_matches_golden_output(tmp_path, command, name, descriptor, flags, code):
    path, out = tmp_path / "descriptor.json", tmp_path / "output.json"
    path.write_text(json.dumps(descriptor))
    assert cli.main([command, str(path), *flags, "--out", str(out)]) == code
    want = json.loads((ROOT / "tests" / "golden" / f"{command}_{name}.json").read_text())
    _assert_matches(json.loads(out.read_text()), want)
