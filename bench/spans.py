"""Spans around calls into detcert's modules, installed from outside ``src/``.

``Instrumentation`` replaces each public function of the library modules,
in every ``detcert`` namespace that holds it, with a wrapper that records
a span ``(id, parent, op, name, start, end)``.  ``QuantumChannel.choi`` and
``QuantumChannel.apply_dense`` are wrapped on the class.  Spans stay in
memory; ``layer_metrics`` folds them into per-op layer times and counts.

A *boundary* span is the outermost call into a library layer from the
report and CLI code of an op.  Boundary spans do not nest, so their sum
over an op is the op time the layers account for (the trace coverage);
the rest is report and CLI self time.
"""

from __future__ import annotations

import functools
import inspect
import re
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("fock", "detectors", "postprocessing", "squashing", "channels", "feasibility", "report", "cli")
LIBRARY = ("fock", "detectors", "postprocessing", "squashing", "channels", "feasibility")
SERIALIZE = ("report.canonical_json", "report.emit_certificate")

# Boundary span name -> metric bucket; other names fall back by layer.
BUCKETS = {
    "channels.QuantumChannel.choi": "channels.choi",
    "channels.verify_cptp": "channels.cptp",
    "channels.verify_statistics_equivalence": "channels.statistics",
    # The report's weight-relation spot checks apply the channel to random
    # states directly; inside choi and statistics apply_dense is nested.
    "channels.QuantumChannel.apply_dense": "fock.spot_check",
    "postprocessing.solve_swap_lp": "postprocessing.swap_lp",
    "feasibility.choi_feasibility": "feasibility.probe",
    "feasibility.verify_choi_witness": "feasibility.witness",
    "report.canonical_json": "report.serialize",
    "report.emit_certificate": "report.serialize",
}
LAYER_BUCKET = {
    "fock": "fock.spot_check",
    "detectors": "detectors.povm",
    "postprocessing": "postprocessing.maps",
    "squashing": "squashing.target",
    "channels": "channels.construct",
    "feasibility": "feasibility.probe",
}
TIME_BUCKETS = (
    "channels.choi", "channels.cptp", "channels.statistics", "channels.construct",
    "fock.spot_check", "detectors.povm", "squashing.target", "postprocessing.maps",
    "postprocessing.swap_lp", "feasibility.probe", "feasibility.witness",
    "report.serialize", "report.self",
)
CHOI = "channels.QuantumChannel.choi"
# Span name -> counter incremented per call.
CALL_COUNTERS = {
    CHOI: "channels.choi_calls",
    "channels.verify_statistics_equivalence": "channels.statistics_calls",
    "fock.random_density": "fock.random_density_calls",
    "detectors.build_threshold_povm": "detectors.povm_calls",
}


def _observe(name, args, result):
    """Values read off a call's arguments or result: ``[(key, value)]``."""
    if name == "channels.verify_cptp":
        return [("channels.layout_dim", args[0].input_layout.total_dim)]
    if name == "postprocessing.solve_swap_lp":
        return [("swap_lp.calls", 1), ("swap_lp.feasible", int(result.feasible))]
    if name == "feasibility.choi_feasibility":
        return [
            ("feasibility.calls", 1),
            ("feasibility.iterations", result.iterations),
            ("feasibility.feasible", int(result.verdict == "feasible-at-tol")),
        ]
    return []


class Tracer:
    """In-memory span and observation store for one traced run."""

    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end)
        self.notes = []  # (op, key, value)
        self._stack = []
        self._op = None

    @contextmanager
    def op(self, tag: str):
        """Root span of one op; library spans inside it belong to ``tag``."""
        self._op = tag
        span_id, parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(span_id, parent, "op", start)
            self._op = None

    def _enter(self):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _exit(self, span_id, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[span_id] = (span_id, parent, self._op, name, start, end)

    def wrap(self, name: str, fn):
        """``fn`` with a span per call; the wrapper avoids a context manager per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span_id, parent, name, start)
            for key, value in _observe(name, args, result):
                tracer.notes.append((tracer._op, key, value))
            return result

        return traced


class Instrumentation:
    """Installs and removes a tracer's wrappers in the loaded detcert modules."""

    def __init__(self, tracer: Tracer):
        import detcert.cli  # noqa: F401  (loads every module to patch)
        from detcert.channels import QuantumChannel

        modules = [m for n, m in sorted(sys.modules.items()) if n == "detcert" or n.startswith("detcert.")]
        wrappers = {}
        for layer in LIBRARY + ("report",):
            module = sys.modules[f"detcert.{layer}"]
            for name, obj in vars(module).items():
                qualified = f"{layer}.{name}"
                if layer == "report" and qualified not in SERIALIZE:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, tracer.wrap(qualified, obj))
        self._patches = []  # (owner, attribute, original, replacement)
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj, hit[1]))
        choi = QuantumChannel.__dict__["choi"]
        self._patches.append(
            (QuantumChannel, "choi", choi, property(tracer.wrap(CHOI, choi.fget)))
        )
        apply_dense = QuantumChannel.__dict__["apply_dense"]
        self._patches.append(
            (QuantumChannel, "apply_dense", apply_dense,
             tracer.wrap("channels.QuantumChannel.apply_dense", apply_dense))
        )

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _is_boundary_name(name: str) -> bool:
    return _layer(name) in LIBRARY or name in SERIALIZE


def layer_metrics(tracer: Tracer) -> dict:
    """Per-op means of layer times (ms), shares of op time and counts.

    Returns ``{name: (value, unit)}``; times and counts are summed over the
    traced ops and divided by their number.
    """
    spans = tracer.spans
    children = defaultdict(list)
    roots = []
    for span in spans:
        if span[1] is None:
            roots.append(span)
        else:
            children[span[1]].append(span)

    def outermost(span_id, wanted):
        """Outermost descendants of ``span_id`` satisfying ``wanted``."""
        found, todo = [], list(children[span_id])
        while todo:
            span = todo.pop()
            if wanted(span[3]):
                found.append(span)
            else:
                todo.extend(children[span[0]])
        return found

    times = defaultdict(float)
    op_wall = 0.0
    for root in roots:
        wall = root[5] - root[4]
        op_wall += wall
        covered = 0.0
        for span in outermost(root[0], _is_boundary_name):
            duration = span[5] - span[4]
            covered += duration
            choi = 0.0
            if span[3] != CHOI:
                choi = sum(s[5] - s[4] for s in outermost(span[0], lambda n: n == CHOI))
            bucket = BUCKETS.get(span[3], LAYER_BUCKET.get(_layer(span[3])))
            times[bucket] += duration - choi
            times["channels.choi"] += choi
        times["report.self"] += wall - covered
        times["trace.covered"] += covered
    n_ops = max(1, len(roots))

    metrics = {}
    for bucket in TIME_BUCKETS:
        metrics[f"{bucket}_ms"] = (1e3 * times[bucket] / n_ops, "ms")
        metrics[f"{bucket}_share"] = (times[bucket] / op_wall if op_wall else 0.0, "ratio")
    metrics["trace.op_ms"] = (1e3 * op_wall / n_ops, "ms")
    metrics["trace.coverage"] = (times["trace.covered"] / op_wall if op_wall else 0.0, "ratio")

    counts = defaultdict(int)
    for span in spans:
        counter = CALL_COUNTERS.get(span[3])
        if counter:
            counts[counter] += 1
    notes = defaultdict(list)
    for _, key, value in tracer.notes:
        notes[key].append(value)
    for counter in CALL_COUNTERS.values():
        metrics[counter] = (counts[counter] / n_ops, "count")
    metrics["channels.layout_dim"] = (max(notes["channels.layout_dim"], default=0), "dim")
    metrics["feasibility.iterations"] = (sum(notes["feasibility.iterations"]) / n_ops, "count")
    for key, calls in (("postprocessing.swap_lp_feasible_ratio", "swap_lp"),
                       ("feasibility.feasible_ratio", "feasibility")):
        n = sum(notes[f"{calls}.calls"])
        metrics[key] = (sum(notes[f"{calls}.feasible"]) / n if n else 0.0, "ratio")
    return metrics


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of each ``detcert`` module in ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and (match.group(2) == "detcert" or match.group(2).startswith("detcert.")):
            out[match.group(2)] = int(match.group(1)) * 1e-6
    return out


def import_times(python: str, env: dict, cwd) -> dict:
    """Cumulative import seconds per detcert module in one fresh interpreter."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import detcert.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import of detcert.cli failed: {proc.stderr[-500:]}")
    return parse_importtime(proc.stderr)


def median_imports(runs: list) -> dict:
    """Per-module median of ``import_times`` results."""
    names = sorted(set().union(*runs))
    return {name: sorted(r.get(name, 0.0) for r in runs)[len(runs) // 2] for name in names}
