"""Existence of a noise channel at fixed device parameters, by Choi witnesses.

The statistics requirement ``P_dc Tr[F_before rho] = Tr[F_after Phi(rho)]``
for every ``rho`` is, in the Heisenberg picture, the set of operator
identities ``Phi_J^dag(F_k) = G_k`` with ``G_k = sum_j P_kj F_before_j``
(``F_k = F_after_k``), plus ``Phi_J^dag(I_out) = I_in`` for trace
preservation: a semidefinite feasibility question on the Choi matrix
``J``, posed by the ``ChoiConstraintSystem`` that the channel certificates
read too.  A measure-and-prepare channel answers it in closed form when
``F_after`` is orthogonal rank-one projectors (:func:`measure_prepare_witness`);
in general L-BFGS on the dual of the nearest-point problem (Malick, SIAM J.
Matrix Anal. Appl. 26, 272 (2004)) ends in a witness ``J`` or a Farkas ray
``Y``.  Each is re-verified without the solver: a witness by the kernel that
certifies channels, on its nonzeros (:func:`verify_choi_witness`), the ray
by the component eigensolve of that kernel (:func:`verify_farkas_ray`).
The probe reads the kernel's maps: the adjoint is a measure-prepare term on its support and
``Phi_J^dag`` is ``ChoiSupport.heisenberg``; only the face and its projection are its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import ChoiConstraintSystem, ChoiSupport, _MeasurePrepare, certify_choi
from .channels import _hermitian_part, _hermitian_score
from .detectors import _Verdict


@dataclass(frozen=True)
class FeasibilityResult:
    """Three-way verdict of the dual feasibility probe.

    ``residual`` and ``grad_norm`` score the last primal point's defect, the
    dual gradient; ``iterations`` counts primal points.  ``witness`` is set
    exactly on a feasible verdict, ``ray`` (the dual iterate) on an
    infeasible one.  ``stop``: ``"tol"``, ``"farkas"``, ``"cap"`` or why the
    L-BFGS run ended on its own.
    """

    verdict: str  # "feasible-at-tol" | "infeasible-at-tol" | "undetermined"
    residual: float
    iterations: int
    witness: np.ndarray | None
    tolerance: float
    ray: np.ndarray | None
    stop: str
    grad_norm: float


class _Decided(Exception):
    """Ends the minimisation from inside the objective, naming why."""


_LBFGS_MEMORY = 10
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


def _lbfgs(fun, x: np.ndarray) -> tuple[np.ndarray, str]:
    """Minimise ``fun`` (returning value and gradient) by limited-memory BFGS.

    The two-loop recursion (Nocedal, Math. Comp. 35, 773 (1980)) over the
    last ``_LBFGS_MEMORY`` pairs scales its initial inverse Hessian by
    ``1 / ||g||`` on the first step, then by ``s^T y / y^T y``; pairs with
    ``s^T y <= 1e-12 y^T y`` are skipped.  Each step backtracks by halving
    until the Armijo condition holds with a strict decrease; when no step
    does, the memory is cleared and the scaled gradient tried, and when that
    fails too the run stops.  Returns the last accepted point and why it
    stopped; ``fun`` may also end the run by raising.
    """
    f, g = fun(x)
    pairs = deque(maxlen=_LBFGS_MEMORY)
    scale = 1.0 / np.linalg.norm(g)
    while True:
        d = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        d *= scale
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        d = -d
        slope = g @ d
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if f_new < f and f_new <= f + _ARMIJO * step * slope:
                break
            step /= 2.0
        else:
            if not pairs:
                return x, "line search made no progress"
            pairs.clear()  # retry along the scaled gradient
            continue
        s, y = x_new - x, g_new - g
        sy, yy = s @ y, y @ y
        if sy > 1e-12 * yy:
            pairs.append((s, y, 1.0 / sy))
            scale = sy / yy
        x, f, g = x_new, f_new, g_new


def _measure_prepare(system: ChoiConstraintSystem, y: np.ndarray) -> ChoiSupport:
    """The adjoint ``sum_k Y_k^T (x) F_k`` of the identities, for ``y`` shaped like ``targets``, on its support."""
    keys, values = _MeasurePrepare(ops=y, preps=system.ops).entries(system.d_in, system.d_out)
    return ChoiSupport(system.d_in, system.d_out, len(values), [(slice(None), keys, values)])


def measure_prepare_witness(p_dc, f_before, f_after) -> np.ndarray:
    """Choi matrix of "measure ``f_before``, prepare ``F_after_k`` with probability ``P_kj``".

    ``J = sum_k G_k^T (x) F_k``, the adjoint of the system's identities at their targets
    with no trace-preservation term.  For ``f_after`` orthogonal rank-one projectors
    ``Phi_J^dag(F_k) = G_k``.  ``J`` is a channel when ``P`` is column-stochastic
    and ``f_before`` a POVM; when ``f_before = f_after``, no channel exists otherwise.
    """
    system = ChoiConstraintSystem((p_dc, f_before, f_after))
    return _measure_prepare(system, np.concatenate([system.targets[:-1], 0.0 * system.targets[-1:]])).dense()[0]


def _face_basis(system: ChoiConstraintSystem) -> np.ndarray:
    """Orthonormal basis of the face: the joint kernel of the homogeneous PSD constraints.

    A target with ``<a|G_k|a> = 0`` for PSD ``F_k`` puts a PSD ``J`` in the kernel of ``|a><a| (x) F_k``;
    without the face every feasible point is on the cone boundary, where the dual has no minimiser.
    """
    after, targets = system.ops[:-1], system.targets[:-1]
    psd = np.linalg.eigvalsh(after)[:, 0] > -1e-12
    zero = (np.abs(np.diagonal(targets, axis1=1, axis2=2)) < 1e-14) & psd[:, None]
    face = np.zeros((system.dim, system.dim), dtype=complex)
    for pairs, f_k in zip(zero, after):
        face += np.kron(np.diag(pairs), f_k)
    vals, vecs = np.linalg.eigh(face)
    return vecs[:, vals <= 1e-12 * max(1.0, float(vals[-1]))]


def _project_face_psd(face: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Project onto the PSD matrices supported on the span of the orthonormal columns ``face``."""
    compressed = face.conj().T @ mat @ face
    vals, vecs = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
    w = face @ vecs
    return (w * np.maximum(vals, 0.0)) @ w.conj().T


def _dual(system: ChoiConstraintSystem, face: np.ndarray, y: np.ndarray):
    """The probe's ``theta(Y)``, its primal point ``J`` and the defect of ``J`` (the gradient), by the kernel."""
    j = _project_face_psd(face, _measure_prepare(system, y).dense()[0])
    image = ChoiSupport.from_dense(j, system.d_in, system.d_out).heisenberg(system.ops)[0]
    value = 0.5 * np.vdot(j, j).real - np.vdot(system.targets, y).real
    return value, j, _hermitian_part(image - system.targets)


def choi_feasibility(p_dc, f_eta, f_target, tol: float = 1e-6, max_iter: int = 10_000) -> FeasibilityResult:
    """Probe for a Choi matrix reproducing the post-processed statistics.

    L-BFGS from ``Y = 0`` minimises, over Hermitian ``Y_k`` (real and
    imaginary parts as the vector), ``theta(Y) = 1/2 ||J||^2 - sum_k Re
    Tr[G_k Y_k]`` with ``J = Pi(sum_k Y_k^T (x) F_k)`` projected onto the PSD
    matrices on the face; its gradient is the defect of ``J``.  Feasible once
    ``J`` meets every identity to ``tol``, infeasible once ``Y`` passes
    :func:`verify_farkas_ray`, else undetermined.
    """
    if not (tol > 0 and max_iter >= 1):
        raise ValueError(f"need tol > 0 and max_iter >= 1, got {tol} and {max_iter}")
    system = ChoiConstraintSystem((p_dc, f_eta, f_target))
    face = _face_basis(system)
    # A feasible J has ||J|| <= Tr J = d_in, so theta >= -d_in^2 / 2 on a
    # feasible system: only below that is an iterate tested as a Farkas ray.
    floor = -0.5 * system.d_in**2
    last = {"count": 0, "ray": None}

    def theta(x):
        y = x.view(complex).reshape(system.targets.shape)
        value, j, defect = _dual(system, face, y)
        residual = float(_hermitian_score(defect).max())
        last.update(count=last["count"] + 1, j=j, defect=defect, residual=residual)
        if residual <= tol:
            raise _Decided("tol")
        if value < floor and _farkas(system, y, tol).passed:
            last["ray"] = y.copy()
            raise _Decided("farkas")
        if last["count"] >= max_iter:
            raise _Decided("cap")
        return value, defect.view(float).ravel()

    try:
        _, stop = _lbfgs(theta, np.zeros(2 * system.targets.size))
    except _Decided as reason:
        stop = str(reason)
    j, defect = last["j"], last["defect"]
    return FeasibilityResult(
        verdict={"tol": "feasible-at-tol", "farkas": "infeasible-at-tol"}.get(stop, "undetermined"),
        residual=last["residual"],
        iterations=last["count"],
        witness=(j + j.conj().T) / 2.0 if stop == "tol" else None,
        tolerance=tol,
        ray=last["ray"],
        stop=stop,
        grad_norm=float(np.linalg.norm(defect)),
    )


@dataclass(frozen=True)
class ChoiWitnessReport(_Verdict):
    """Solver-independent residuals of a candidate Choi matrix."""

    hermiticity_dev: float
    psd_residual: float
    trace_preservation_dev: float
    linear_residual: float
    tolerance: float
    passed: bool = field(init=False)

    @cached_property
    def residual(self) -> float:
        """The largest of the four residuals, NaN if any is."""
        violations = (self.hermiticity_dev, self.psd_residual, self.trace_preservation_dev, self.linear_residual)
        return float(np.max(violations))


def verify_choi_witness(j, p_dc, f_eta, f_target, tol: float) -> ChoiWitnessReport:
    """Re-check a Choi matrix against all defining constraints.

    Residuals are computed from the matrix's nonzeros by the function that
    certifies channels (:func:`certify_choi`): Hermiticity, most negative
    eigenvalue, trace preservation, and the worst statistics constraint
    over the full operator space.
    """
    system = ChoiConstraintSystem((p_dc, f_eta, f_target))
    j = np.asarray(j, dtype=complex)
    if j.shape != (system.dim, system.dim):
        raise ValueError("Choi matrix shape does not match the measurements")
    (cptp,), (linear,) = certify_choi(ChoiSupport.from_dense(j, system.d_in, system.d_out), system, tol)
    return ChoiWitnessReport(
        hermiticity_dev=cptp.hermiticity_dev,
        psd_residual=float(np.maximum(0.0, 0.0 - cptp.min_choi_eigenvalue)),  # +0.0 at a zero row
        trace_preservation_dev=cptp.trace_preservation_dev,
        linear_residual=float(linear.max()),
        tolerance=tol,
    )


@dataclass(frozen=True)
class FarkasReport:
    """Solver-independent check of a Farkas ray against the identities."""

    lambda_max: float
    margin: float
    tolerance: float
    passed: bool


def verify_farkas_ray(ray, p_dc, f_eta, f_target, tol: float) -> FarkasReport:
    """Re-check that ``ray`` proves no PSD Choi matrix meets the identities.

    ``ray`` stacks ``n + 1`` multipliers ``Y_k``, trace preservation last, of
    which the Hermitian part is checked.  ``lambda_max`` of
    ``M = sum_k Y_k^T (x) F_k`` comes from the component eigensolve of
    :meth:`ChoiSupport.psd_residuals`, with no face and no solver: lowering
    ``Y_tp`` by ``max(0, lambda_max(M))`` makes ``M`` NSD, so every PSD
    ``J`` has ``sum_k Re Tr[(G_k - Phi_J^dag(F_k)) Y_k] >= sum_k Re Tr[G_k Y_k]``
    for the lowered ``Y``.  Divided by the dual norm of the per-event score,
    ``sum_k sum_{a<=b} |Re Y_ab| + |Im Y_ab|``, that margin bounds the
    residual of every PSD ``J`` from below.  Passes when the margin exceeds
    ``tol``.
    """
    system = ChoiConstraintSystem((p_dc, f_eta, f_target))
    ray = np.asarray(ray, dtype=complex)
    if ray.shape != system.targets.shape:
        raise ValueError(f"Farkas ray shape {ray.shape} does not match {system.targets.shape}")
    return _farkas(system, ray, tol)


def _farkas(system: ChoiConstraintSystem, ray: np.ndarray, tol: float) -> FarkasReport:
    """:func:`verify_farkas_ray` on a built system and a ray of its shape."""
    y = _hermitian_part(ray)
    (low,) = _measure_prepare(system, -y).psd_residuals()[1]
    lam = 0.0 - float(low)  # +0.0, not -0.0, when the spectrum tops out at a zero row
    y[-1] -= max(lam, 0.0) * np.eye(system.d_in)
    norm = float(np.abs(np.triu(y).view(float)).sum())
    margin = float(np.vdot(system.targets, y).real) / norm if norm > 0 else 0.0
    return FarkasReport(lambda_max=lam, margin=margin, tolerance=tol, passed=margin > tol)
