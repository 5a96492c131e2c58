"""detcert benchmark: time to a correct certificate, cold and in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload generator (``workloads.py``)
turns the seed into setup descriptors; the program only sees those files.
One closed-loop client runs one op at a time: fresh interpreters for
set-up time and for ``python -m detcert.cli <cmd> <descriptor> --out
<file>``, and, after a warm-up, ``detcert.cli.main`` in this process.
Every output is graded by ``checker.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run that wraps the library's public functions from this directory (no
edit under ``src/``), runs every op once untraced and once traced, and
prints per-layer times, counts, import attribution and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child.  One thread: a single
# closed-loop client leaves no core for BLAS to win, and unpinned OpenBLAS
# threads spread run-to-run timings about twice as wide.
BLAS_THREADS = 1
BLAS_ENV = {
    var: str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from checker import WRONG, grade  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

CHILD_TIMEOUT_S = 120.0
# The reference kernel: about 10 ms in a quiet phase of the reference
# machine (2 vCPU Xeon 2.1 GHz), 15 to 40 ms in loaded ones.  Timings are
# reported as if it took REFERENCE_S.
REFERENCE_MATRIX = numpy.add.outer(numpy.arange(40.0), numpy.cos(numpy.arange(40.0)))
REFERENCE_MATRIX = REFERENCE_MATRIX + REFERENCE_MATRIX.T
REFERENCE_EIGH, REFERENCE_LOOP = 60, 40000
REFERENCE_S = 0.0125
REFERENCE_MARGIN_S = 2.0
REFERENCE_WARMUP = 5
TRACE_CHILDREN = 5  # importtime, set-up and CLI samples in a traced run
# A traced run spends this share of ``--seconds``, at nominal cost, on
# rounds in which every op runs twice; the children take most of the rest.
TRACE_FILL = 0.4

SETUP_CODE = (
    "import sys, time\n"
    "import detcert\n"
    "detcert.load_descriptor(sys.argv[1])\n"
    "print(repr(time.monotonic()))\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken child)."""


@dataclass
class OpRecord:
    phase: str  # "warmup" | "cli" | "inproc" | "traced"
    tag: str
    cmd: str
    expect: str
    slot: str
    wall: float
    grade: str
    reason: str


class Client:
    """One closed-loop client: one op or child process at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"run-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=pythonpath, **BLAS_ENV)
        self.records: list[OpRecord] = []
        self.outputs: dict[tuple[str, str], str] = {}  # (phase, tag) -> text, first op only
        self._paths: dict[str, Path] = {}
        from detcert.cli import main

        self._cli_main = main

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def descriptor_path(self, op) -> Path:
        path = self._paths.get(op.tag)
        if path is None:
            path = self.dir / f"desc-{len(self._paths)}.json"
            path.write_text(json.dumps(op.descriptor))
            self._paths[op.tag] = path
        return path

    def _record(self, phase, op, wall, exit_code, text, keep):
        g = grade(op.cmd, op.expect, op.descriptor, exit_code, text)
        self.records.append(OpRecord(phase, op.tag, op.cmd, op.expect, op.slot, wall, g.grade, g.reason))
        if keep:
            self.outputs[(phase, op.tag)] = text

    def setup_child(self, op) -> float:
        """Seconds from spawn until ``import detcert`` and the descriptor load return."""
        path = self.descriptor_path(op)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(path)], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr[-500:]}")
        return float(proc.stdout.strip().splitlines()[-1]) - start

    def cli_child(self, op, keep=False) -> tuple[float, float]:
        """Run one op in a fresh ``python -m detcert.cli``; returns (wall s, maxrss MB)."""
        path = self.descriptor_path(op)
        out = self.dir / "cli-out.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "detcert.cli", op.cmd, str(path), "--out", str(out)]
        with open(self.dir / "cli-stderr.txt", "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out.read_text() if out.exists() else None
        exit_code = proc.returncode if proc.returncode >= 0 else None
        self._record("cli", op, wall, exit_code, text, keep)
        return wall, usage.ru_maxrss / 1024.0

    def inproc(self, op, phase="inproc", keep=False, around=contextlib.nullcontext) -> float:
        """Run one op through ``detcert.cli.main`` in this process; returns wall s.

        ``around(tag)`` is entered just around the call (the traced run's op span).
        """
        path = self.descriptor_path(op)
        out = self.dir / "inproc-out.json"
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            with around(op.tag):
                exit_code = self._cli_main([op.cmd, str(path), "--out", str(out)])
        except Exception as exc:  # graded as a failed op, the run goes on
            print(f"# {op.tag} raised {exc!r}", file=sys.stderr)
            exit_code = None
        wall = time.perf_counter() - start
        text = out.read_text() if out.exists() else None
        self._record(phase, op, wall, exit_code, text, keep)
        return wall

    def determinism(self, phase_a, phase_b):
        """Compare the certificates two phases kept for the same op.

        Returns ``(tag, phase_a, phase_b, byte_identical)``.
        """
        tags = {tag for phase, tag in self.outputs if phase == phase_a}
        tags &= {tag for phase, tag in self.outputs if phase == phase_b}
        if not tags:
            raise BenchError("no op ran in both phases to compare certificates")
        tag = min(tags)
        return tag, phase_a, phase_b, self.outputs[(phase_a, tag)] == self.outputs[(phase_b, tag)]


def reference_kernel() -> float:
    """Seconds for a fixed mix of small dense eigensolves and interpreter work.

    It touches no detcert code, so no change to the program moves it; it
    only tracks how fast the machine runs at the moment.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_EIGH):
        numpy.linalg.eigh(REFERENCE_MATRIX)
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i
    return time.perf_counter() - start


def reference_speed(refs: list, start: float, wall: float) -> float:
    """Median time of the reference runs around one sample.

    ``refs`` holds ``(start, seconds)`` of every reference run, in order.
    The runs counted start within ``max(REFERENCE_MARGIN_S, wall)`` before
    the sample or after it ends, so a long sample is set against a stretch
    of the run as long as itself; the runs just before and after it are
    always among them.
    """
    margin = max(REFERENCE_MARGIN_S, wall)
    starts = [t for t, _ in refs]
    lo = bisect.bisect_left(starts, start - margin)
    hi = bisect.bisect_right(starts, start + wall + margin)
    return statistics.median(seconds for _, seconds in refs[lo:hi])


def run_e2e(client: Client, seconds: float):
    """End-to-end metrics: set-up, cold CLI and warm in-process ops, interleaved.

    The run follows ``workloads.plan``: its ops, their number and their
    order depend only on the workload, the seed and ``seconds``, never on
    timing.  Returns ``(metrics, determinism checks)``.

    On a shared host the same work runs up to twice as slow while other
    tenants load the machine, in phases of seconds to several minutes, and
    a phase can fill a whole run.  So ``reference_kernel`` runs after every
    timed sample, and each sample is reported at reference speed: its wall
    time times ``REFERENCE_S`` over ``reference_speed`` around it.  Over
    ten active-mixed runs of 50 s (2-vCPU Intel Xeon VM), the run-to-run
    spread (interquartile range over median) of set-up, cold, warm and
    throughput figures was 0.12 to 0.19 raw and 0.02 to 0.07 at reference
    speed.  Each note gives the raw median too.
    """
    w = WORKLOADS[client.workload]
    warmup = w["warmup"](client.seed)
    client.setup_child(warmup[0])  # also fills the bytecode caches under src/
    for op in warmup:
        client.inproc(op, phase="warmup")
    for _ in range(REFERENCE_WARMUP):
        reference_kernel()
    schedule = plan(client.workload, client.seed, seconds)
    # The first cold op also runs in-process; its two certificates are compared.
    compared = next(op.tag for activity, op in schedule if activity == "cli")
    refs = [(time.perf_counter(), reference_kernel())]  # (start, seconds)
    timed = []  # (activity, start, wall, in-process record)
    rss_mb = []
    for activity, op in schedule:
        record = None
        start = time.perf_counter()
        if activity == "setup":
            wall = client.setup_child(op)
        elif activity == "cli":
            wall, rss = client.cli_child(op, keep=op.tag == compared)
            rss_mb.append(rss)
        else:
            wall = client.inproc(op, keep=op.tag == compared)
            record = client.records[-1]
        timed.append((activity, start, wall, record))
        refs.append((time.perf_counter(), reference_kernel()))
    samples = {"setup": [], "cli": [], "inproc": []}  # activity -> [(wall, scaled wall, record)]
    for activity, start, wall, record in timed:
        samples[activity].append((wall, wall * REFERENCE_S / reference_speed(refs, start, wall), record))

    def median_s(activity, what):
        raw, scaled, _ = zip(*samples[activity])
        note = f"median of {len(raw)} {what}; raw median {statistics.median(raw):.4g} s"
        return statistics.median(scaled), "s", note

    inproc = samples["inproc"]
    ok_inproc = sum(r.grade == "ok" for _, _, r in inproc)
    # A mixed workload runs its op kinds in fixed proportions.  The median
    # over kinds of each kind's median cannot fall in the gap between two
    # kinds, where the plain median over all ops would jump with noise.
    kinds, slots = {}, {}
    for _, scaled, r in inproc:
        kinds.setdefault((r.cmd, r.expect), []).append(scaled)
        slots.setdefault(r.slot, []).append((scaled, r.grade == "ok"))
    p50 = statistics.median(statistics.median(v) for v in kinds.values())
    # A round runs each slot once: its typical time is the sum of the slots'
    # medians, and it yields each slot's share of correct outcomes.
    round_s = sum(statistics.median(s for s, _ in v) for v in slots.values())
    per_round = sum(sum(ok for _, ok in v) / len(v) for v in slots.values())
    metrics = {
        "setup_s": median_s("setup", "fresh interpreters"),
        "cli_wall_s": median_s("cli", "fresh CLI runs"),
        "cert_s_p50": (p50, "s", f"median over {len(kinds)} op kinds of each kind's median; "
                       + median_s("inproc", "warm in-process ops")[2]),
        "certs_per_s": (per_round / round_s, "1/s",
                        f"{per_round:.4g} correct ops per round of {len(slots)} slots / "
                        f"{round_s:.4f} s (raw: {ok_inproc} correct in "
                        f"{sum(wall for wall, _, _ in inproc):.3f} s)"),
        "peak_rss_mb": (max(rss_mb), "MB", f"max ru_maxrss of {len(rss_mb)} CLI processes"),
    }
    print(f"# reference kernel: median {statistics.median(r for _, r in refs) * 1e3:.4g} ms over {len(refs)} runs; "
          f"times are scaled to {REFERENCE_S * 1e3:g} ms")
    return metrics, [client.determinism("cli", "inproc")]


def run_trace(client: Client, seconds: float):
    """Per-layer metrics from spans, import attribution and tracing overhead.

    Each op runs untraced and traced back to back, in alternating order.
    The number of rounds follows from ``seconds`` and the ops' nominal
    costs, not from timing.  Returns ``(metrics, determinism checks)``.
    """
    from spans import LAYERS, Instrumentation, Tracer, import_times, layer_metrics, median_imports

    w = WORKLOADS[client.workload]
    round_cost = sum(op.cost for op in w["round"](client.seed, 0))
    n_rounds = max(1, round(TRACE_FILL * seconds / (2 * round_cost)))
    first = w["round"](client.seed, 0)[0]
    # Interleaved, so that the differences taken below compare samples of
    # the same stretches of the run.
    import_runs, setup_s, cli_s = [], [], []
    for i in range(TRACE_CHILDREN):
        import_runs.append(import_times(sys.executable, client.env, ROOT))
        setup_s.append(client.setup_child(first))
        cli_s.append(client.cli_child(first, keep=i == 0)[0])
    imports = median_imports(import_runs)

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)

    @contextlib.contextmanager
    def traced(tag):
        instrumentation.install()
        try:
            with tracer.op(tag):
                yield
        finally:
            instrumentation.uninstall()

    for op in w["warmup"](client.seed):
        client.inproc(op, phase="warmup")
    n_ops = 0
    for r in range(n_rounds):
        for op in w["round"](client.seed, r):
            keep = n_ops == 0
            if n_ops % 2:
                client.inproc(op, phase="traced", keep=keep, around=traced)
                client.inproc(op, phase="inproc", keep=keep)
            else:
                client.inproc(op, phase="inproc", keep=keep)
                client.inproc(op, phase="traced", keep=keep, around=traced)
            n_ops += 1

    layers = layer_metrics(tracer)
    untraced = [r.wall for r in client.records if r.phase == "inproc"]
    traced_walls = [r.wall for r in client.records if r.phase == "traced"]
    # Untraced in-process ops of the CLI op's kind, the same work at every round.
    first_op = statistics.median(
        r.wall for r in client.records
        if r.phase == "inproc" and (r.cmd, r.expect) == (first.cmd, first.expect)
    )
    cli_wall, setup = statistics.median(cli_s), statistics.median(setup_s)
    # ``import detcert.cli`` loads the package inside it: its cumulative time is the total.
    import_total = imports.get("detcert.cli", 0.0)
    imports["detcert.cli"] = import_total - imports.get("detcert", 0.0)

    metrics = {name: (value, unit, "") for name, (value, unit) in layers.items()}
    # Each op ran traced and untraced back to back: the median ratio of a
    # pair is steadier than a ratio of sums, which one slow stretch can swing.
    walls = {(r.phase, r.tag): r.wall for r in client.records}
    ratios = [walls["traced", tag] / walls["inproc", tag] for phase, tag in walls if phase == "traced"]
    metrics["trace.overhead_frac"] = (
        statistics.median(ratios) - 1.0, "ratio",
        f"median traced/untraced of {len(ratios)} op pairs; sums {sum(traced_walls):.3f} s "
        f"vs {sum(untraced):.3f} s",
    )
    for layer in LAYERS:
        metrics[f"{layer}.import_s"] = (
            imports.get(f"detcert.{layer}", 0.0), "s",
            f"cumulative{' less the package' if layer == 'cli' else ''}, "
            f"median of {TRACE_CHILDREN} -X importtime runs",
        )
    metrics["import.total_s"] = (import_total, "s", "import detcert.cli, cumulative")
    metrics["cli.wall_s"] = (cli_wall, "s", f"median of {TRACE_CHILDREN} fresh CLI runs of {first.tag}")
    metrics["cli.wall_noimport_s"] = (cli_wall - import_total, "s", "cli.wall_s - import.total_s")
    metrics["cli.self_s"] = (
        cli_wall - setup - first_op, "s",
        f"cli.wall_s - setup {setup:.4f} s - median in-process {first.cmd} {first_op:.4f} s",
    )
    return metrics, [client.determinism("cli", "inproc"), client.determinism("inproc", "traced")]


def environment() -> list[str]:
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return [
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}",
        f"blas={blas_text} pinned_threads={BLAS_THREADS} ({', '.join(BLAS_ENV)})",
    ]


def report(client: Client, metrics: dict, determinism: list, trace: bool) -> dict:
    measured = [r for r in client.records if r.phase != "warmup"]
    failed = [r for r in measured if r.grade != "ok"]
    wrong = [r for r in client.records if r.grade == WRONG]
    deterministic = all(same for *_, same in determinism)
    if not trace:
        metrics["ok_frac"] = (
            1.0 - len(failed) / len(measured), "ratio", f"{len(measured) - len(failed)} of {len(measured)} ops"
        )
    for line in environment():
        print(f"# {line}")
    width = max(len(name) for name in metrics)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} {note}")
    by_phase = {}
    for r in measured:
        total, bad = by_phase.get(r.phase, (0, 0))
        by_phase[r.phase] = (total + 1, bad + (r.grade != "ok"))
    per_phase = ", ".join(f"{phase} {bad}/{total}" for phase, (total, bad) in sorted(by_phase.items()))
    print(f"failed_frac = {len(failed) / len(measured):.6g} ({len(failed)} of {len(measured)} ops; {per_phase})")
    for r in client.records:
        if r.grade == WRONG or (r.phase != "warmup" and r.grade != "ok"):
            print(f"FAILED {r.phase} {r.tag} {r.cmd}: {r.grade}: {r.reason}")
    for tag, a, b, same in determinism:
        state = "byte-identical" if same else "DIFFER"
        print(f"determinism: certificates of {tag} from {a} and {b} are {state}")
    return {
        "correct": not wrong and deterministic,
        "attempted": len(measured),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "detcert" / "__init__.py").is_file():
        print(f"error: no detcert source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import detcert

    if Path(detcert.__file__).resolve().parent != SRC / "detcert":
        print(f"error: imported detcert from {detcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"# detcert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    client = Client(args.workload, args.seed)
    try:
        run = run_trace if args.trace else run_e2e
        metrics, determinism = run(client, args.seconds)
        result = report(client, metrics, determinism, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
