"""The package's public namespace and its import footprint."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import detcert
from detcert.report import SetupDescriptor

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from detcert import *", namespace)
    assert len(set(detcert.__all__)) == len(detcert.__all__)
    for name in detcert.__all__:
        assert namespace[name] is getattr(detcert, name)


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
    # a fresh interpreter: the test session itself has scipy loaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    descriptor = ROOT / "descriptors" / "active_bb84.json"
    proc = subprocess.run(
        [sys.executable, "-c", SOLVER_FREE_RUN, str(descriptor), str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = "from detcert import cli; assert cli._build_parser.cache_info().currsize == 0"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
