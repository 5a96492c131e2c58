"""The package's public namespace and its import footprint."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import detcert
from detcert.descriptor import SetupDescriptor

ROOT = Path(__file__).resolve().parents[1]
# a fresh interpreter sees only the imports of the code it runs: this session has every module loaded
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=ENV, capture_output=True, text=True, timeout=120
    )


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from detcert import *", namespace)
    assert sorted(n for names in detcert._EXPORTS.values() for n in names) == detcert.__all__  # each once
    assert set(detcert.__all__) <= set(dir(detcert))
    for name in detcert.__all__:
        obj = getattr(detcert, name)
        assert namespace[name] is obj
        assert obj.__module__.startswith("detcert.")
        assert vars(sys.modules[obj.__module__])[name] is obj  # the defining module's object
    with pytest.raises(AttributeError, match="'nope'"):
        detcert.nope
    with pytest.raises(ImportError, match="'nope'"):
        exec("from detcert import nope", {})


LOADED = "import sys\n{}\nprint(' '.join(sorted(n for n in sys.modules if n.split('.')[0] == 'detcert')))"
# every module whose functions the benchmark's tracer wraps (bench/spans.py)
TRACED = {f"detcert.{m}" for m in ("fock", "detectors", "postprocessing", "squashing", "channels", "feasibility", "report")}


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import detcert; assert detcert.__version__", {"detcert"}),
        (
            "import detcert; detcert.load_descriptor(sys.argv[1])",
            {"detcert", "detcert.fock", "detcert.detectors", "detcert.descriptor"},
        ),
        ("import detcert.cli", {"detcert", "detcert.cli", "detcert.descriptor"} | TRACED),
    ],
    ids=["version", "load_descriptor", "cli"],
)
def test_import_footprint(code, loaded):
    proc = _python(LOADED.format(code), str(ROOT / "descriptors" / "passive_bb84.json"))
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loaded


SOLVER_FREE_RUN = """
import sys
import detcert
from detcert import cli

descriptor, out = sys.argv[1], sys.argv[2]
codes = [cli.main([cmd, descriptor, "--out", out]) for cmd in ("analyze", "choi-check", "swap-lp")]
assert codes == [0, 0, 0], codes
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:3]}"
"""


def test_active_commands_import_no_scipy(tmp_path):
    # the test session itself has scipy loaded
    descriptor = ROOT / "descriptors" / "active_bb84.json"
    proc = _python(SOLVER_FREE_RUN, str(descriptor), str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr


def test_readme_names_exactly_the_descriptor_fields():
    # README's descriptor section is the one place besides SetupDescriptor
    # that lists the schema: the keys of its JSON block plus the fields
    # quoted in backticks in its "Optional fields" paragraph
    readme = (ROOT / "README.md").read_text()
    block = readme.split("All subcommands share one JSON descriptor:", 1)[1].split("```", 2)[1]
    paragraph = readme.split("Optional fields:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r'^\s*"(\w+)"\s*:', block, re.M)) | set(re.findall(r'`"(\w+)"`', paragraph))
    assert named == {f.name for f in fields(SetupDescriptor)}


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first ``main`` call, so set-up time stays import time
    proc = _python("from detcert import cli; assert cli._build_parser.cache_info().currsize == 0")
    assert proc.returncode == 0, proc.stderr
