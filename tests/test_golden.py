"""Every pinned ``detcert`` case, compared with the output it wrote.

The cases are one list, ``helpers.CASES``.  A case is one command on one
descriptor, with its flags and exit code.  A case that exits 0 or 2 has one
golden file, ``golden/<command>_<name>.json``: the ``--out`` bytes a fresh
``python -m detcert.cli`` process wrote.  A case that exits 1 pins its
stderr up to the field name.  On the build recorded in
``golden/BUILD.json`` (numpy, its BLAS build, the SIMD extensions found, the
machine) the output must equal its file byte for byte; on another build,
structure and evaluated points exactly and other numbers to 1e-15.  A change
that claims no output change cites this test.  After a change meant to move
the output, ``python tests/test_golden.py`` (package installed, or
``PYTHONPATH=src``) rewrites every golden file and ``BUILD.json``.
``tests/test_caches.py`` and CI run the same cases.
"""

import json
import platform
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from detcert.report import EXIT_NOT_REDUCIBLE, EXIT_OK, EXIT_TOOL_ERROR
from helpers import CASES, GOLDEN, run_fresh, run_in_process

BUILD = GOLDEN / "BUILD.json"


def build_key() -> dict | None:
    """What fixes the last bits of a float result: numpy, its BLAS build, the SIMD extensions found, the machine."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # an older numpy's show_config takes no mode
        return None
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": config["SIMD Extensions"]["found"],
        "machine": platform.machine(),
    }


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


def compare(got: str, want: str, exact: bool) -> None:
    """``got`` is ``want`` byte for byte if ``exact``, else by :func:`_assert_matches`."""
    if exact:
        assert got == want
    else:
        _assert_matches(json.loads(got), json.loads(want))


@pytest.mark.parametrize("case", CASES, ids=[f"{case.command}-{case.name}" for case in CASES])
def test_command_matches_golden_output(tmp_path, case):
    code, _, stderr, text = run_in_process(case, tmp_path)
    case.check(code, stderr)
    if case.golden is None:
        assert text is None
    else:
        compare(text, case.golden.read_text(), build_key() == json.loads(BUILD.read_text()))


def test_cases_cover_every_command_setup_and_exit_code():
    assert {case.command for case in CASES} == {"analyze", "swap-lp", "verify-channel", "weight", "choi-check"}
    assert {case.descriptor["setup"] for case in CASES} == {"passive-bb84", "active-bb84", "custom"}
    assert {case.code for case in CASES} == {EXIT_OK, EXIT_TOOL_ERROR, EXIT_NOT_REDUCIBLE}
    # each golden file belongs to exactly one case, and each case that writes --out has its file
    files = sorted(path.name for path in GOLDEN.iterdir() if path != BUILD)
    assert sorted(case.golden.name for case in CASES if case.golden) == files


def test_exact_rule_rejects_a_last_digit_the_tolerance_rule_accepts():
    want = (GOLDEN / "analyze_passive_bb84.json").read_text()
    # the first nonzero residual, its last digit moved by one
    got, n = re.subn(r'("residual": [1-9]\.\d*)(\d)e', lambda m: f"{m[1]}{(int(m[2]) + 1) % 10}e", want, count=1)
    assert n == 1
    with pytest.raises(AssertionError):
        compare(got, want, exact=True)
    compare(got, want, exact=False)


def regenerate() -> None:
    """Write every case's golden file, each from a fresh interpreter, and ``BUILD.json``."""
    with tempfile.TemporaryDirectory() as work:
        for case in CASES:
            text = run_fresh(case, Path(work))[3]
            if case.golden is not None:
                case.golden.write_text(text)
    BUILD.write_text(json.dumps(build_key(), indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
