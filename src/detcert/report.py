"""Analysis pipeline and certificate emission.

``run_analysis`` takes a :class:`~detcert.descriptor.SetupDescriptor`, builds
the POVMs at the range corners, constructs the dark-count and loss noise
channels, certifies them, and records every verdict with reproducible
inputs in a certificate.  Serialization is deterministic: stable key order
and fixed 17-significant-digit floats.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .channels import (
    ChoiConstraintSystem,
    ChoiSupport,
    _dark_count_channel,
    _loss_channel,
    bb84_qubit_measurement,
    bb84_simple_noise_channel,
    certify_choi,
)
from .descriptor import DescriptorError, SetupDescriptor
from .detectors import (
    DetectionSetup,
    _Verdict,
    build_threshold_povm,
    enumerate_events,
    passive_bb84_setup,
    verify_single_photon_assumption,
)
from .fock import photon_label
from .postprocessing import (
    _ENTRY_TOL,
    _coarse_grained_dc,
    bb84_qubit_squasher,
    dark_count_matrix,
    multiclick_coarse_graining,
    apply_postprocessing,
    solve_swap_lp,
    swap_residual,
    validate_dark_count_pp,
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
_CLICK_COUNT = "threshold POVM violates the click-count assumption"


class _Stop(ValueError):
    """Ends an analysis: the setup is not reducible, for the requirement this names."""


def build_setup(desc: SetupDescriptor, eta) -> DetectionSetup:
    """The descriptor's setup at efficiencies ``eta``, a custom one with ``desc.mode_map`` as it is."""
    if desc.setup == "passive-bb84":
        return passive_bb84_setup(eta)
    if desc.setup == "custom":
        return DetectionSetup(k=desc.k, mode_map=desc.mode_map, eta=eta)
    raise DescriptorError(f"setup: no single-table setup for {desc.setup!r}")


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.all_passed else EXIT_NOT_REDUCIBLE


def _finite_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize {x}")
    return format(x, ".17g")


_escape = json.encoder.encode_basestring_ascii  # what ``json.dumps(str)`` calls
# Exact type -> text of a scalar; numpy scalars are rendered as the Python scalar they hold.
_SCALAR_TEXT = {
    float: _finite_text,
    str: _escape,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    type(None): lambda _: "null",
}
_scalar_text = _SCALAR_TEXT.get
_CONTAINERS = (dict, list, tuple)


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Keys are sorted and ASCII-escaped, one item per line at a 2-space indent
    from ``indent``; floats are ``.17g`` and NaN or infinity raises
    ``ValueError``; empty containers are ``[]`` and ``{}``.  A dict, list or
    tuple that the tree holds at several places is rendered once per indent.
    """
    return _render(obj, indent, {})


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
    if isinstance(obj, np.generic):
        scalar = _scalar_text(type(value := obj.item()))
        if scalar is not None:
            return scalar(value)
    elif isinstance(obj, np.ndarray):
        return _render_items(list(obj), level, memo)  # a 0-d array raises TypeError here
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


def emit_certificate(cert: Certificate, path=None) -> Path | None:
    """Write the certificate deterministically (:func:`write_json`); returns the path written."""
    return write_json(cert.to_dict(), path)


def _common_efficiency(desc: SetupDescriptor, etas, derived: dict) -> float:
    """The descriptor's ``eta_star`` (else 1), admissible over the evaluated ``(n, k)`` stack ``etas``.

    The stack holds its ends ``eta_lo = etas.min(0)`` and ``eta_hi = etas.max(0)``
    (:meth:`SetupDescriptor.points`).  At one ``eta`` the loss split is
    stochastic iff ``eta_star`` lies in ``[f, 1]``, ``f = eta_min / D`` with
    ``D = (1 - eta_max) + eta_min`` (:func:`eta_star_range`).
    ``df/deta_min = (1 - eta_max) / D^2`` and ``df/deta_max = eta_min / D^2``
    are nonnegative and one rounding keeps the order, so the all-high corner
    binds, given a positive ``eta_lo``.  ``eta_star``
    and the interval go to ``derived``; raises :class:`_Stop`, a ``ValueError``, if
    the interval is empty or excludes it (:func:`check_eta_star`).
    """
    eta_hi = etas.max(axis=0)
    if not etas.min() > 0.0:
        raise _Stop(
            "admissible common-efficiency interval is empty: need 0 < eta_min <= eta_max <= 1"
        )
    star_lo, star_hi = eta_star_range(float(np.min(eta_hi)), float(np.max(eta_hi)))
    eta_star = desc.eta_star if desc.eta_star is not None else star_hi
    derived.update(eta_star=eta_star, eta_star_range=[star_lo, star_hi])
    try:
        check_eta_star(eta_hi, eta_star)
    except ValueError as exc:
        raise _Stop(str(exc)) from exc
    return eta_star


def _record_weight(desc: SetupDescriptor, cert: Certificate, etas, p00: float, eta_star: float):
    """Record ``p00``, the ratio ``eta_min / eta_star`` over ``etas`` and the weight after both channels."""
    eta_min = float(etas.min())
    cert.derived["p_no_dark"] = p00
    cert.derived["efficiency_ratio"] = eta_min / eta_star
    cert.derived["weight_in"] = desc.weight_in
    cert.derived["weight_out"] = propagate_weight(desc.weight_in, p00, eta_min, eta_star)


def _analyze_flag_state(desc: SetupDescriptor, cert: Certificate):
    corners, (d_max,) = desc.points(box=True)
    eta_star = _common_efficiency(desc, corners, cert.derived)

    cg = multiclick_coarse_graining(enumerate_events(desc.k)) if desc.coarse_grain == "multiclick" else None

    # Dark-count post-processing at the top of the rate range.
    p_fine = dark_count_matrix(d_max)
    if cg is not None:
        p_db = _coarse_grained_dc(p_fine, cg)
        cert.add_check(
            "coarse-grain-swap", "coarse_grained_dc_ansatz", {"dark": d_max.tolist()},
            swap_residual(p_db.entries, cg.entries, p_fine.entries), _ENTRY_TOL,
            "the coarse graining has no swap solution: no stochastic P_dc has M P_db = P_dc M",
        )
        table = cg.row_table
    else:
        p_db = p_fine
        table = enumerate_events(desc.k)
    conditions = validate_dark_count_pp(p_db, table)
    cert.add_check(
        "dark-count-conditions", "validate_dark_count_pp",
        {"dark": d_max.tolist()}, conditions.residual, conditions.tolerance,
        "dark-count post-processing violates the structural conditions "
        "(single-to-single, click erasure, or survival ordering)",
    )

    p00 = float(p_db.entries[0, 0])
    _record_weight(desc, cert, corners, p00, eta_star)

    # One threshold build for every efficiency vector: the corners, then
    # the lossless and common-efficiency targets, which are corner
    # independent.
    n_corners = len(corners)
    etas = np.vstack([corners, np.ones(desc.k), np.full(desc.k, eta_star)])
    povms = build_threshold_povm(build_setup(desc, etas), desc.cutoff)
    if cg is not None:
        povms = apply_postprocessing(cg, povms)
    reports = verify_single_photon_assumption(povms)
    if not reports[n_corners].passed:
        raise _Stop(_CLICK_COUNT)
    targets = flag_state_target(povms, desc.cutoff)
    # Every corner is certified; recording stops at the first that violates the assumption.
    residuals = _certify_corners(p_db, p00, corners, eta_star, targets, desc.tol)

    for idx, eta_vec in enumerate(corners):
        suffix = f"-corner{idx}"
        inputs = {"eta": eta_vec.tolist(), "dark": d_max.tolist(), "eta_star": eta_star}
        report = reports[idx]
        cert.add_check(
            f"single-photon-assumption{suffix}", "verify_single_photon_assumption",
            inputs, report.max_violation, report.tolerance, _CLICK_COUNT,
        )
        for kind, (cptp, statistics, weight) in zip(("dark", "loss"), residuals[idx]):
            cert.add_check(f"{kind}-channel-cptp{suffix}", "verify_cptp", inputs, cptp, desc.tol)
            cert.add_check(
                f"{kind}-channel-statistics{suffix}", "verify_statistics_equivalence", inputs,
                statistics, desc.tol,
            )
            cert.add_check(
                f"{kind}-channel-weight-relation{suffix}", "verify_statistics_equivalence", inputs,
                weight, _WEIGHT_TOL,
            )


def _certify_corners(p_db, p00, etas, eta_star, targets, tol):
    """CPTP, statistics and weight-relation residuals of the dark and loss channels per corner.

    ``targets`` stacks the targets at the efficiency vectors ``etas``, then the
    lossless and the ``eta_star`` target.  Both channel stacks share one support,
    scored in one :func:`certify_choi` pass: one component eigensolve for CPTP and
    one contraction for every identity of each channel, ``Phi^dag(F_after_i) =
    sum_j P_ij F_before_j`` over all input operators, its weight relation, then trace
    preservation.  The weight relations are ``Phi_dark^dag(P01) = p00 P01``, ``p00 = P_db[0, 0]``, and
    ``Phi_loss^dag(P01) = P0 + (eta_min / eta_star) P1``.  Returns, per
    corner, ``((cptp, statistics, weight) dark, (...) loss)``.
    """
    n = len(etas)
    f_eta, f_lossless, f_star = targets.take(slice(0, n)), targets.take(n), targets.take(n + 1)
    proj0, proj1 = (targets.layout.projector(photon_label(m)) for m in (0, 1))
    proj01 = proj0 + proj1
    dark = _dark_count_channel(p_db, f_eta)
    loss = _loss_channel(etas, eta_star, f_lossless)
    ratios = etas.min(axis=1) / eta_star
    loss_weights = np.stack([np.ones_like(ratios), ratios], axis=-1)[:, None, :]
    identities = ChoiConstraintSystem.stack(
        ChoiConstraintSystem((p_db, f_eta, f_eta), ([[p00]], [proj01], [proj01])),
        ChoiConstraintSystem((None, f_eta, f_star), (loss_weights, [proj0, proj1], [proj01])),
    )
    cptp, scores = certify_choi(ChoiSupport.of([dark, loss]), identities, tol)
    channels = list(zip([r.residual for r in cptp], scores[:, :-1].max(axis=1).tolist(), scores[:, -1].tolist()))
    return list(zip(channels[:n], channels[n:]))


def _swap_lp(d_vec, tol: float):
    """The qubit squasher's swap LP at dark rates ``d_vec``; a ``tol`` it cannot decide is a descriptor error."""
    try:
        return solve_swap_lp(dark_count_matrix(d_vec), bb84_qubit_squasher(), tol=tol)
    except RuntimeError as exc:
        raise DescriptorError(f"tol: the swap LP cannot decide at {tol:g}: {exc}") from exc


def active_swap_lp(desc: SetupDescriptor):
    """``(rates, SwapLPResult)`` of the active-BB84 qubit squasher at the one point of ``desc.points``."""
    _, (d_vec,) = desc.points(box=False)
    return d_vec, _swap_lp(d_vec, desc.tol)


def _analyze_active_bb84(desc: SetupDescriptor, cert: Certificate):
    # The swap LP and the channel read the box's dark row; the eta_star interval reads its corners.
    etas, (d_vec,) = desc.points(box=True)
    result = _swap_lp(d_vec, desc.tol)
    cert.add_check(
        "swap-equation-lp", "solve_swap_lp", {"dark": d_vec.tolist()},
        result.residual, result.tolerance,
        "the swap equation P_sq' P_db = P_dc P_sq has no stochastic solution "
        "for the qubit squasher (it requires equal dark count rates)",
    )
    eta_star = _common_efficiency(desc, etas, cert.derived)
    _record_weight(desc, cert, etas, float(result.matrix.entries[0, 0]), eta_star)
    d = float(d_vec[0])
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
    analyze = _analyze_active_bb84 if desc.setup == "active-bb84" else _analyze_flag_state
    try:
        analyze(desc, cert)
    except _Stop as stop:
        cert.downgrade(str(stop))
    return cert


def run_weight(desc: SetupDescriptor) -> dict:
    """Weight bound from one observed event probability, plus propagation."""
    if desc.observed is None:
        raise DescriptorError("observed: the weight command needs an observed event")
    if desc.cutoff > 2:
        raise DescriptorError("cutoff: weight estimation needs cutoff <= 2")
    event, prob = desc.observed
    etas, (d_vec,) = desc.points(box=False)
    try:
        eta_star = _common_efficiency(desc, etas, {})
    except ValueError as exc:
        raise DescriptorError(f"eta_star: {exc}") from exc
    setup = build_setup(desc, etas[0])
    try:  # a map within the isometry rule can lift to a non-measurement on more photons
        povm = build_threshold_povm(setup, desc.cutoff + 1)
    except ValueError as exc:
        raise DescriptorError(f"mode_map: its {desc.cutoff + 1}-photon lift is not a measurement: {exc}") from exc
    try:
        wb = weight_bound(povm, event, prob, desc.cutoff)
    except ValueError as exc:
        raise DescriptorError(f"observed: {exc}") from exc
    p00 = float(dark_count_matrix(d_vec).entries[0, 0])
    propagated = propagate_weight(wb.value, p00, float(etas.min()), eta_star)
    return {
        "event": list(wb.event),
        "cutoff": wb.cutoff,
        "p_observed": wb.p_observed,
        "lambda_inside": wb.lambda_inside,
        "lambda_outside": wb.lambda_outside,
        "weight_bound": wb.value,
        "p_no_dark": p00,
        "eta_star": eta_star,
        "weight_propagated": propagated,
    }
