"""``analyze`` on the shipped descriptors against pinned certificates.

A refactor that claims no output change is checked here: the exit code,
status, check names and verdicts must match exactly, every residual and
derived number to 1e-15 absolute.  After a change that is meant to move
the numbers, regenerate a golden file with

    detcert analyze descriptors/<name>.json --out tests/golden/analyze_<name>.json
"""

import json
from pathlib import Path

import numpy as np
import pytest

from detcert import cli
from detcert.report import EXIT_OK

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
    assert got["derived"].keys() == want["derived"].keys()
    for key, value in want["derived"].items():
        np.testing.assert_allclose(
            _numbers(got["derived"][key]), _numbers(value), rtol=0.0, atol=1e-15, err_msg=key
        )
