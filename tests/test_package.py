"""The package's public namespace and its import footprint."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import detcert
from detcert.descriptor import FIELD_NAMES

from helpers import _BENCH_EQUAL, _BENCH_PASSIVE, _BENCH_UNEQUAL

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


def _names_used(path: Path) -> set:
    """Every identifier the code of ``path`` names: names, attributes and imports, not its definitions or text."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_exported_function_is_reached_beyond_its_own_tests():
    # an exported function is named, not only defined, by another library
    # module (the command layer report and cli among them), an acceptance
    # criterion or a demo, not only by its own tests; classes are exempt
    library = {path.stem: _names_used(path) for path in (ROOT / "src" / "detcert").glob("*.py")}
    del library["__init__"]  # it names every export
    reach = _names_used(ROOT / "tests" / "test_acceptance.py").union(
        *map(_names_used, (ROOT / "demos").glob("*.py"))
    )
    unreached = [
        name
        for module, names in detcert._EXPORTS.items()
        for name in names
        if not isinstance(getattr(detcert, name), type)
        and name not in reach.union(*(used for other, used in library.items() if other != module))
    ]
    assert unreached == []


LOADED = "import sys\n{}\nprint(' '.join(sorted(n for n in sys.modules if n.split('.')[0] == 'detcert')))"
# every module whose functions the benchmark's tracer wraps (bench/spans.py)
TRACED = {f"detcert.{m}" for m in ("fock", "detectors", "postprocessing", "squashing", "channels", "feasibility", "report")}


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import detcert; assert detcert.__version__", {"detcert"}),
        ("import detcert; detcert.load_descriptor(sys.argv[1])", {"detcert", "detcert.descriptor"}),
        ("import detcert.cli", {"detcert", "detcert.cli", "detcert.descriptor"} | TRACED),
    ],
    ids=["version", "load_descriptor", "cli"],
)
def test_import_footprint(code, loaded):
    proc = _python(LOADED.format(code), str(ROOT / "descriptors" / "passive_bb84.json"))
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loaded


NO_NUMPY_LOAD = """
import json, sys
import detcert
for path in sys.argv[1:]:
    detcert.load_descriptor(path)
print(json.dumps(sorted(n for n in sys.modules if n.split(".")[0] in ("detcert", "numpy", "dataclasses", "inspect"))))
"""


def test_loading_a_fixed_setup_imports_no_numpy(tmp_path):
    # the shipped descriptors and the benchmark's traffic: their rules are the schema's own,
    # and the descriptor is a plain class, so neither ``dataclasses`` nor its ``inspect`` loads
    paths = [ROOT / "descriptors" / f"{name}_bb84.json" for name in ("passive", "active")]
    for name, data in (("passive", _BENCH_PASSIVE), ("equal", _BENCH_EQUAL), ("unequal", _BENCH_UNEQUAL)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    proc = _python(NO_NUMPY_LOAD, *map(str, paths))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["detcert", "detcert.descriptor"]


CUSTOM_FAILURE = """
import json, sys
from detcert.descriptor import DescriptorError, descriptor_from_dict
try:
    descriptor_from_dict(json.loads(sys.argv[1]))
except DescriptorError as exc:
    print(json.dumps([str(exc), "detcert.detectors" in sys.modules]))
"""


@pytest.mark.parametrize("data, message", [
    ({"setup": "custom", "k": 2, "mode_map": [[1.0, 0.0], [0.0, 2.0]]},
     "mode_map: columns are not orthonormal (not an isometry)"),
    ({"setup": "custom", "k": 5, "mode_map": [[1.0]] + [[0.0]] * 4},
     "k: custom setups need a detector count in [1, 4], got 5"),
    ({"setup": "custom", "k": 2, "mode_map": [[1.0], [0.0]], "observed": {"event": "bogus", "probability": 0.1}},
     "observed: no event labelled 'bogus'; expected one of ['00', '01', '10', '11', 'multi']"),
], ids=["isometry", "too-many-detectors", "observed-label"])
def test_a_custom_descriptor_is_held_to_the_detectors_rules(data, message):
    # from a fresh interpreter: the rule is imported from ``detectors`` by the branch that applies it
    proc = _python(CUSTOM_FAILURE, json.dumps(data))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [message, True]


def test_cli_imports_only_the_descriptor_and_the_report():
    # the command table reads every payload and exit code from the report
    tree = ast.parse((ROOT / "src" / "detcert" / "cli.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "detcert"}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "detcert"):
            module = ("." * node.level) + (node.module or "")
            if module in (".", "detcert"):  # ``from . import x`` names modules
                imported |= {f"detcert.{a.name}" for a in node.names}
            else:
                imported.add("detcert." + module.lstrip(".").removeprefix("detcert."))
    assert imported == {"detcert.descriptor", "detcert.report"}


def test_only_the_keeping_rule_turns_arrays_into_bytes_and_back():
    # one rule keys an array on its bytes and rebuilds it: ``fock._kept``
    sites = []
    for path in sorted((ROOT / "src" / "detcert").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "tobytes" or (node.func.attr == "frombuffer"
                                                       and getattr(node.func.value, "id", None) == "np"):
                        sites.append((path.stem, getattr(top, "name", None), node.func.attr))
    assert sorted(sites) == [("fock", "_kept", "frombuffer"), ("fock", "_kept", "tobytes")]


def test_only_the_rounding_radius_reads_the_machine_epsilon():
    # every deviation decision reads one radius: ``channels._rounding_radius``
    sites = []
    for path in sorted((ROOT / "src" / "detcert").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) == "finfo":
                    sites.append((path.stem, getattr(top, "name", None)))
    assert sites == [("channels", "_rounding_radius")]


def test_only_the_click_bits_read_an_event_tables_masks():
    # which detectors click in which event is one kept table: ``detectors._click_bits``
    sites = []
    for path in sorted((ROOT / "src" / "detcert").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "masks":
                    sites.append((path.stem, getattr(top, "name", None)))
    assert sites == [("detectors", "_click_bits")]


def test_only_the_descriptor_constructor_refuses_unknown_fields():
    # the unknown-field rule is stated once, in ``SetupDescriptor.__init__``, which every path builds through
    def sites(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Constant) and "unknown descriptor fields" in str(node.value):
            yield ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from sites(child, scope)

    found = [
        (path.stem, site)
        for path in sorted((ROOT / "src" / "detcert").glob("*.py"))
        for site in sites(ast.parse(path.read_text()), ())
    ]
    assert found == [("descriptor", "SetupDescriptor.__init__")]


def test_only_the_box_reads_a_descriptors_ranges():
    # the descriptor's rules check the ranges and ``corner_limit``; every command reads them through ``report.Box``
    def sites(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr in ("eta_range", "dark_range", "corner_limit"):
            yield ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from sites(child, scope)

    found = {
        (path.stem, site)
        for path in sorted((ROOT / "src" / "detcert").glob("*.py"))
        for site in sites(ast.parse(path.read_text()), ())
    }
    assert found == {("descriptor", "SetupDescriptor.__init__"), ("report", "Box.__init__"), ("report", "Box.corners")}


SOLVER_FREE_RUN = """
import sys
import detcert
from detcert import cli

descriptor, out, *commands = sys.argv[1:]
codes = [cli.main([cmd, descriptor, "--out", out]) for cmd in commands]
assert codes == [0] * len(commands), codes
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:3]}"
"""


def test_active_commands_import_no_scipy(tmp_path):
    # the test session itself has scipy loaded
    descriptor = ROOT / "descriptors" / "active_bb84.json"
    proc = _python(SOLVER_FREE_RUN, str(descriptor), str(tmp_path / "out.json"), "analyze", "choi-check", "swap-lp")
    assert proc.returncode == 0, proc.stderr


def test_passive_commands_import_no_scipy(tmp_path):
    # the shipped passive descriptor plus an observed event, which the weight command needs
    descriptor = json.loads((ROOT / "descriptors" / "passive_bb84.json").read_text())
    descriptor["observed"] = {"event": "multi", "probability": 0.01}
    path = tmp_path / "observed.json"
    path.write_text(json.dumps(descriptor))
    proc = _python(SOLVER_FREE_RUN, str(path), str(tmp_path / "out.json"), "analyze", "verify-channel", "weight")
    assert proc.returncode == 0, proc.stderr


def test_readme_names_exactly_the_descriptor_fields():
    # README's descriptor section is the one place besides SetupDescriptor
    # that lists the schema: the keys of its JSON block plus the fields
    # quoted in backticks in its "Optional fields" paragraph
    readme = (ROOT / "README.md").read_text()
    block = readme.split("All subcommands share one JSON descriptor:", 1)[1].split("```", 2)[1]
    paragraph = readme.split("Optional fields:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r'^\s*"(\w+)"\s*:', block, re.M)) | set(re.findall(r'`"(\w+)"`', paragraph))
    assert named == FIELD_NAMES


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first ``main`` call, so set-up time stays import time
    proc = _python("from detcert import cli; assert cli._build_parser.cache_info().currsize == 0")
    assert proc.returncode == 0, proc.stderr


NOTHING_BUILT_AT_IMPORT = """
import sys
import detcert.detectors as detectors
build, calls = detectors.build_threshold_povm, []
detectors.build_threshold_povm = lambda *args: calls.append(args) or build(*args)
import detcert.cli
kept = {f"{f.__module__}.{f.__qualname__}": f.cache_info().currsize
        for name, module in list(sys.modules.items()) if name.split(".")[0] == "detcert"
        for f in vars(module).values() if hasattr(f, "cache_info")}
assert not calls, f"{len(calls)} threshold POVMs built at import"
assert not any(kept.values()), kept
print(*sorted(kept))
"""


def test_importing_the_cli_builds_nothing_kept():
    # every kept object, the BB84 measurements and squasher among them, is built on first use
    proc = _python(NOTHING_BUILT_AT_IMPORT)
    assert proc.returncode == 0, proc.stderr
    assert {
        "detcert.channels._bb84_measurements", "detcert.postprocessing.bb84_qubit_squasher",
        "detcert.detectors.enumerate_events", "detcert.postprocessing.multiclick_coarse_graining",
        "detcert.fock.SpaceLayout", "detcert.fock._projector",
    } <= set(proc.stdout.split())
