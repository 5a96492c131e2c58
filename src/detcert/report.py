"""Analysis pipeline, command payloads and their serialization.

``run_analysis`` takes a :class:`~detcert.descriptor.SetupDescriptor`, builds
the POVMs at the range corners and records every verdict with reproducible
inputs in a certificate.  A passive or custom setup gets one noise channel
per corner, the generic deviation channel from the corner's noisy
measurement to the ideal one at ``q = 1 - p_no_dark * efficiency_ratio``,
the weight the certificate records; at cutoff 1 that channel exists at
every point of the box (README, Certificates).  The active setup gets the
BB84 dark-count channel at the swap LP's matrix.  Each subcommand of
:mod:`detcert.cli` is one function here, ``desc -> (payload, exit code)``:
:func:`analyze`, :func:`verify_channel`, :func:`swap_lp`, :func:`weight`
and :func:`choi_check`.  Serialization (:func:`write_json`) is deterministic:
stable key order and fixed 17-significant-digit floats.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channels import (
    ChoiConstraintSystem,
    bb84_qubit_measurement,
    bb84_simple_noise_channel,
    certify_choi,
    generic_channel,
)
from .descriptor import DescriptorError, SetupDescriptor
from .detectors import MAX_CUTOFF, DetectionSetup, _Verdict, build_threshold_povm, enumerate_events, passive_bb84_setup
from .feasibility import measure_prepare_witness, verify_choi_witness
from .postprocessing import (
    StochasticMatrix,
    apply_postprocessing,
    bb84_qubit_squasher,
    dark_count_matrix,
    multiclick_coarse_graining,
    solve_swap_lp,
)
from .squashing import (
    check_eta_star,
    eta_star_range,
    flag_state_target,
    propagate_weight,
    weight_bound,
)

EXIT_OK = 0
EXIT_TOOL_ERROR = 1
EXIT_NOT_REDUCIBLE = 2

# The weight relations are exact linear identities of the constructions,
# so they are held to rounding, not to the descriptor's tolerance.
_WEIGHT_TOL = 1e-12


class _Stop(ValueError):
    """Ends an analysis: the setup is not reducible, for the requirement this names."""


def build_setup(desc: SetupDescriptor, eta) -> DetectionSetup:
    """The descriptor's setup at efficiencies ``eta``, a custom one with ``desc.mode_map`` as it is."""
    if desc.setup == "passive-bb84":
        return passive_bb84_setup(eta)
    if desc.setup == "custom":
        return DetectionSetup(k=desc.k, mode_map=desc.mode_map, eta=eta)
    raise DescriptorError(f"setup: no single-table setup for {desc.setup!r}")


class Box:
    """The ``(eta, d)`` box a descriptor declares, and the one point the point commands evaluate.

    Each attribute but ``corner_limit`` is a read-only ``(k,)`` array:
    ``eta_lo`` and ``eta_hi`` the ends of each ``eta_range``, ``dark_hi``
    the top of each ``dark_range``, ``eta`` the given ``eta``, else
    ``eta_lo``, and ``dark`` the given ``dark``, else ``dark_hi``.
    ``analyze`` and ``verify-channel`` read the efficiency ends, the
    :meth:`corners` and ``dark_hi``; ``swap-lp`` and ``choi-check`` read
    ``dark``; ``weight`` reads ``eta`` and ``dark``, and the efficiency ends
    when ``eta`` is unset.
    """

    def __init__(self, desc: SetupDescriptor):
        (eta_lo, eta_hi), dark_hi = zip(*desc.eta_range), [hi for _, hi in desc.dark_range]
        rows = np.array([eta_lo, eta_hi, dark_hi, desc.eta or eta_lo, desc.dark or dark_hi])
        rows.flags.writeable = False  # and with it each row, a view
        self.__dict__.update(zip(("eta_lo", "eta_hi", "dark_hi", "eta", "dark"), rows), corner_limit=desc.corner_limit)

    def corners(self) -> np.ndarray:
        """Up to ``corner_limit`` corners of the efficiency box, an ``(n, k)`` stack.

        All-low, all-high, then mixed corners in binary-counter order over the
        detectors whose range is not a single point (detector 1 first), so no
        corner repeats.  Exact for quantities monotone in each efficiency, a
        sample otherwise.
        """
        free = np.flatnonzero(self.eta_lo < self.eta_hi)
        last = 2**free.size - 1
        patterns = np.array(([0, last, *range(1, last)] if last else [0])[: self.corner_limit])
        high = np.zeros((patterns.size, self.eta_lo.size), dtype=bool)
        high[:, free] = (patterns[:, None] >> np.arange(free.size)) & 1
        return np.where(high, self.eta_hi, self.eta_lo)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {name!r}")

    __delattr__ = __setattr__


@dataclass
class Certificate:
    """Machine-readable record of every verdict of one analysis run."""

    descriptor: dict
    derived: dict
    checks: list = field(default_factory=list)
    status: str = "reducible"
    failed_requirement: str | None = None
    tool: dict = field(default_factory=lambda: {"name": "detcert", "version": __version__})

    def add_check(
        self, name: str, operation: str, inputs: dict, residual: float, tolerance: float,
        requirement: str | None = None,
    ):
        """Record a check; it passes iff ``residual <= tolerance`` (:meth:`_Verdict.passes`; NaN fails).

        A failed check ends the analysis by :class:`_Stop` if it carries a ``requirement``,
        else downgrades a certificate that is not yet downgraded.
        """
        passed = _Verdict.passes(residual, tolerance)
        self.checks.append(
            {
                "name": name,
                "operation": operation,
                "inputs": inputs,
                "residual": residual,
                "tolerance": tolerance,
                "passed": passed,
            }
        )
        if not passed and requirement is not None:
            raise _Stop(requirement)
        if not passed and self.status == "reducible":
            self.downgrade(f"check {name} failed: residual {residual:.3e} exceeds tolerance {tolerance:.3e}")

    def downgrade(self, requirement: str):
        """Mark the setup not reducible, for ``requirement``: a precondition replaces a failed check's."""
        self.status = "not reducible under this framework"
        self.failed_requirement = requirement

    @property
    def all_passed(self) -> bool:
        return self.status == "reducible"

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, in their order

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.all_passed else EXIT_NOT_REDUCIBLE


def _finite_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize {x}")
    return format(x, ".17g")


_escape = json.encoder.encode_basestring_ascii  # what ``json.dumps(str)`` calls
# Exact type -> text of a scalar.
_SCALAR_TEXT = {
    float: _finite_text,
    str: _escape,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    type(None): lambda _: "null",
}
_scalar_text = _SCALAR_TEXT.get
_CONTAINERS = (dict, list, tuple)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Takes the JSON types payloads hold: dict, list, tuple, str, int, float,
    bool and None, by exact type; any other value, a numpy one included,
    raises ``TypeError``.  Keys are sorted and ASCII-escaped, one item per
    line at a 2-space indent; floats are ``.17g`` and NaN or infinity raises
    ``ValueError``; empty containers are ``[]`` and ``{}``.  A dict, list or
    tuple that the tree holds at several places is rendered once per depth.
    """
    return _render(obj, 0, {})


def _render(obj, level: int, memo: dict) -> str:
    """``obj`` at indent ``level``; ``memo`` maps ``(id, level)`` to ``(obj, text)``.

    The memo holds each container it keys, so no id in it is reused
    while it lives.
    """
    kind = type(obj)
    scalar = _scalar_text(kind)
    if scalar is not None:
        return scalar(obj)
    if kind in _CONTAINERS:
        key = (id(obj), level)
        hit = memo.get(key)
        if hit is None:
            text = _render_dict(obj, level, memo) if kind is dict else _render_items(obj, level, memo)
            hit = memo[key] = (obj, text)
        return hit[1]
    raise TypeError(f"cannot serialize {type(obj)}")


# The item loops render exact-type scalars inline, without a frame each.


def _render_items(items, level: int, memo: dict) -> str:
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    texts = [
        scalar(v) if (scalar := _scalar_text(type(v))) else _render(v, level + 1, memo)
        for v in items
    ]
    return "[" + inner + ("," + inner).join(texts) + "\n" + "  " * level + "]"


def _render_dict(obj, level: int, memo: dict) -> str:
    if not obj:
        return "{}"
    inner = "\n" + "  " * (level + 1)
    texts = [
        _escape(str(key)) + ": "
        + (scalar(v) if (scalar := _scalar_text(type(v := obj[key]))) else _render(v, level + 1, memo))
        for key in sorted(obj)
    ]
    return "{" + inner + ("," + inner).join(texts) + "\n" + "  " * level + "}"


def write_json(payload, path=None) -> Path | None:
    """Write ``canonical_json(payload)`` and a newline to ``path``, or to stdout; returns the path written."""
    text = canonical_json(payload) + "\n"
    if path is None:
        sys.stdout.write(text)
        return None
    out = Path(path)
    out.write_text(text)
    return out


def _weight_relation(desc: SetupDescriptor, eta_lo, eta_hi, dark, derived: dict) -> tuple[float, float, float]:
    """``(p_no_dark, eta_min, eta_star)`` of ``W' = 1 - p_no_dark * (eta_min / eta_star) * (1 - W)``, for every command.

    ``eta_star`` is the descriptor's (else 1), admissible over the
    efficiencies from ``eta_lo`` to ``eta_hi``.  At one ``eta`` the loss split is
    stochastic iff ``eta_star`` lies in ``[f, 1]``, ``f = eta_min / D`` with
    ``D = (1 - eta_max) + eta_min`` (:func:`eta_star_range`).
    ``df/deta_min = (1 - eta_max) / D^2`` and ``df/deta_max = eta_min / D^2``
    are nonnegative and one rounding keeps the order, so the all-high corner
    binds, given a positive ``eta_lo``.  ``p_no_dark = prod(1 - dark)``, bit
    for bit the dark-count map's no-click entry at rates ``dark``, and
    ``eta_min`` is the least of ``eta_lo``.  ``eta_star`` and its interval go
    to ``derived``, then ``p_no_dark``, ``efficiency_ratio``, ``weight_in`` and
    ``weight_out`` (:func:`propagate_weight`); raises :class:`_Stop`, a
    ``ValueError``, if the interval is empty or excludes ``eta_star``
    (:func:`check_eta_star`).
    """
    if not eta_lo.min() > 0.0:
        raise _Stop("admissible common-efficiency interval is empty: need 0 < eta_min <= eta_max <= 1")
    interval = eta_star_range(float(eta_hi.min()), float(eta_hi.max()))
    eta_star = desc.eta_star if desc.eta_star is not None else interval[1]
    derived.update(eta_star=eta_star, eta_star_range=list(interval))
    try:
        check_eta_star(eta_hi, eta_star, interval)
    except ValueError as exc:
        raise _Stop(str(exc)) from exc
    p_no_dark, eta_min = float(np.prod(1.0 - dark)), float(eta_lo.min())
    derived.update(p_no_dark=p_no_dark, efficiency_ratio=eta_min / eta_star, weight_in=desc.weight_in,
                   weight_out=propagate_weight(desc.weight_in, p_no_dark, eta_min, eta_star))
    return p_no_dark, eta_min, eta_star


def _analyze_flag_state(desc: SetupDescriptor, cert: Certificate):
    box = Box(desc)
    corners = box.corners()
    p_no_dark, eta_min, eta_star = _weight_relation(desc, box.eta_lo, box.eta_hi, box.dark_hi, cert.derived)
    # One measurement stack: the corners, then the common efficiency.  Each
    # corner takes the dark counts at the top of the rate range, the ideal
    # entry a zero row of rates, whose map is the identity; then the graining.
    n = len(corners)
    p = dark_count_matrix(np.vstack([np.tile(box.dark_hi, (n, 1)), np.zeros(desc.k)]))
    q = propagate_weight(0.0, p_no_dark, eta_min, eta_star)
    if desc.coarse_grain == "multiclick":
        cg = multiclick_coarse_graining(enumerate_events(desc.k))
        p = StochasticMatrix(cg.entries @ p.entries, cg.row_table)
    povms = build_threshold_povm(build_setup(desc, np.vstack([corners, np.full(desc.k, eta_star)])), desc.cutoff)
    targets = flag_state_target(apply_postprocessing(p, povms), desc.cutoff)
    f_noise, f_ideal = targets.take(slice(0, n)), targets.take(n)

    # Every corner's channel in one certify_choi pass: CPTP, the statistics
    # Phi^dag(F_ideal_i) = F_noise_i and the weight relation Phi^dag(P01) = (1 - q) P01.
    proj01 = f_ideal.layout.projector(f_ideal.layout.photon_labels)
    identities = ChoiConstraintSystem((None, f_noise, f_ideal), ([[1.0 - q]], [proj01], [proj01]))
    cptp, scores = certify_choi(generic_channel(f_noise, f_ideal, q).support, identities, desc.tol)
    statistics, weights = scores[:, :-1].max(axis=1).tolist(), scores[:, -1].tolist()
    for idx, eta_vec in enumerate(corners):
        suffix = f"-corner{idx}"
        inputs = {"eta": eta_vec.tolist(), "dark": box.dark_hi.tolist(), "eta_star": eta_star, "q": q}
        cert.add_check(f"generic-channel-cptp{suffix}", "verify_cptp", inputs, cptp[idx].residual, desc.tol)
        cert.add_check(
            f"generic-channel-statistics{suffix}", "verify_statistics_equivalence", inputs, statistics[idx], desc.tol,
        )
        cert.add_check(
            f"generic-channel-weight-relation{suffix}", "verify_statistics_equivalence", inputs, weights[idx],
            _WEIGHT_TOL,
        )


def _swap_lp(d_vec, tol: float):
    """The qubit squasher's swap LP at dark rates ``d_vec``; a ``tol`` it cannot decide is a descriptor error."""
    try:
        return solve_swap_lp(dark_count_matrix(d_vec), bb84_qubit_squasher(), tol=tol)
    except RuntimeError as exc:
        raise DescriptorError(f"tol: the swap LP cannot decide at {tol:g}: {exc}") from exc


def _analyze_active_bb84(desc: SetupDescriptor, cert: Certificate):
    # The swap LP and the channel read the top of the dark box; the eta_star interval its efficiency ends.
    box = Box(desc)
    result = _swap_lp(box.dark_hi, desc.tol)
    cert.add_check(
        "swap-equation-lp", "solve_swap_lp", {"dark": box.dark_hi.tolist()},
        result.residual, result.tolerance,
        "the swap equation P_sq' P_db = P_dc P_sq has no stochastic solution "
        "for the qubit squasher (it requires equal dark count rates)",
    )
    _weight_relation(desc, box.eta_lo, box.eta_hi, box.dark_hi, cert.derived)
    d = float(box.dark_hi[0])
    # Both bases' statistics and trace preservation, scored in one contraction.
    bases = [(result.matrix, povm, povm) for povm in map(bb84_qubit_measurement, "ZX")]
    (cptp,), (scores,) = certify_choi(bb84_simple_noise_channel(d).support, ChoiConstraintSystem(*bases), desc.tol)
    cert.add_check("bb84-channel-cptp", "verify_cptp", {"dark": d}, cptp.residual, desc.tol)
    for basis, stats in zip("ZX", np.split(scores, len(bases))):
        cert.add_check(
            f"bb84-channel-statistics-{basis}", "verify_statistics_equivalence",
            {"dark": d, "basis": basis}, float(stats.max()), desc.tol,
        )


def run_analysis(desc: SetupDescriptor) -> Certificate:
    """Full pipeline: build, squash, post-process, construct, certify; a :class:`_Stop` ends it, downgraded."""
    if desc.cutoff != 1:
        raise DescriptorError(
            "cutoff: the channel constructions act on vacuum + one photon + "
            "flags; analyze needs cutoff 1 (higher cutoffs serve weight estimation)"
        )
    cert = Certificate(descriptor=desc.to_dict(), derived={"seed": desc.seed})
    route = _analyze_active_bb84 if desc.setup == "active-bb84" else _analyze_flag_state
    try:
        route(desc, cert)
    except _Stop as stop:
        cert.downgrade(str(stop))
    return cert


def weight(desc: SetupDescriptor) -> tuple[dict, int]:
    """Weight bound from one observed event probability, plus propagation, at the :class:`Box` point; exit 0.

    ``eta_star`` must be admissible there, and over the ``eta_range`` box
    when ``eta`` is unset, as in :func:`run_analysis`.
    """
    if desc.observed is None:
        raise DescriptorError("observed: the weight command needs an observed event")
    if desc.cutoff + 1 > MAX_CUTOFF:  # the bound is read on the POVM one photon above the cutoff
        raise DescriptorError(f"cutoff: weight estimation needs cutoff <= {MAX_CUTOFF - 1}")
    event, prob = desc.observed
    box = Box(desc)
    eta_lo, eta_hi = (box.eta_lo, box.eta_hi) if desc.eta is None else (box.eta, box.eta)
    try:
        p_no_dark, eta_min, eta_star = _weight_relation(desc, eta_lo, eta_hi, box.dark, {})
    except ValueError as exc:  # an empty interval is the efficiencies', an excluded eta_star its own
        blamed = "eta_star" if eta_lo.min() > 0.0 else "eta_range" if desc.eta is None else "eta"
        raise DescriptorError(f"{blamed}: {exc}") from exc
    setup = build_setup(desc, box.eta)
    try:  # a map within the isometry rule can lift to a non-measurement on more photons
        povm = build_threshold_povm(setup, desc.cutoff + 1)
    except ValueError as exc:
        raise DescriptorError(f"mode_map: its {desc.cutoff + 1}-photon lift is not a measurement: {exc}") from exc
    try:
        wb = weight_bound(povm, event, prob, desc.cutoff)
    except ValueError as exc:
        raise DescriptorError(f"observed: {exc}") from exc
    propagated = propagate_weight(wb.value, p_no_dark, eta_min, eta_star)
    return {
        "event": list(wb.event),
        "cutoff": wb.cutoff,
        "p_observed": wb.p_observed,
        "lambda_inside": wb.lambda_inside,
        "lambda_outside": wb.lambda_outside,
        "weight_bound": wb.value,
        "p_no_dark": p_no_dark,
        "eta_star": eta_star,
        "weight_propagated": propagated,
    }, EXIT_OK


def analyze(desc: SetupDescriptor) -> tuple[dict, int]:
    """The certificate of :func:`run_analysis` and its exit code."""
    cert = run_analysis(desc)
    return cert.to_dict(), cert.exit_code


def verify_channel(desc: SetupDescriptor) -> tuple[dict, int]:
    """The channel checks of :func:`run_analysis`, with its status and exit code."""
    cert = run_analysis(desc)
    checks = [c for c in cert.checks if "channel" in c["name"]]
    return {"checks": checks, "status": cert.status, "failed_requirement": cert.failed_requirement}, cert.exit_code


def _active_point(desc: SetupDescriptor, command: str):
    """The qubit squasher's ``(rates, SwapLPResult)`` at the :class:`Box` point, for active BB84 only."""
    if desc.setup != "active-bb84":
        raise DescriptorError(f"setup: {command} supports only the active-bb84 qubit squasher, got {desc.setup!r}")
    d_vec = Box(desc).dark
    return d_vec, _swap_lp(d_vec, desc.tol)


def swap_lp(desc: SetupDescriptor) -> tuple[dict, int]:
    """The swap LP's verdict and solution at the descriptor's point; exit 0 iff feasible."""
    d_vec, result = _active_point(desc, "swap-lp")
    matrix = result.matrix.entries.tolist() if result.matrix is not None else None
    payload = {"dark": d_vec.tolist(), "feasible": result.feasible, "matrix": matrix,
               "residual": result.residual, "tolerance": result.tolerance}
    return payload, EXIT_OK if result.feasible else EXIT_NOT_REDUCIBLE


def choi_check(desc: SetupDescriptor) -> tuple[dict, int]:
    """Each basis's measure-and-prepare witness, re-verified at ``feas_tol``; exit 0 iff both pass."""
    d_vec, result = _active_point(desc, "choi-check")
    if not result.feasible:
        payload = {"verdict": "swap equation infeasible", "residual": result.residual, "dark": d_vec.tolist()}
        return payload, EXIT_NOT_REDUCIBLE
    bases = {}
    for basis in ("Z", "X"):
        povm = bb84_qubit_measurement(basis)
        witness = measure_prepare_witness(result.matrix, povm, povm)
        report = verify_choi_witness(witness, result.matrix, povm, povm, desc.feas_tol)
        verdict = "feasible-at-tol" if report.passed else "undetermined"
        bases[basis] = {"verdict": verdict, "residual": report.residual, "witness_report": asdict(report)}
    ok = all(entry["witness_report"]["passed"] for entry in bases.values())
    return {"dark": d_vec.tolist(), "bases": bases}, EXIT_OK if ok else EXIT_NOT_REDUCIBLE
