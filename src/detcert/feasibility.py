"""Numeric existence check for a noise channel at fixed device parameters.

The statistics requirement ``P_dc Tr[F_before rho] = Tr[F_after Phi(rho)]``
for every ``rho`` is, in the Heisenberg picture, the set of operator
identities ``Phi_J^dag(F_k) = G_k`` with ``G_k = sum_j P_kj F_before_j``
(``F_k = F_after_k``), plus ``Phi_J^dag(I_out) = I_in`` for trace
preservation.  They are linear in the Choi matrix ``J``, the same identities
the channel certificates check, so existence is a semidefinite feasibility
question.  It is probed with alternating projections between that affine
set and a face of the PSD cone (Dykstra correction on the cone side).  This
is an intuition-building check, not a proof: the verdict is three-way and a
returned witness is always re-verifiable independently of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    _cptp_residuals,
    _hermitian_part,
    _hermitian_score,
    _heisenberg,
    _identity_residuals,
    _identity_targets,
    _transpose_kron_sum,
)

_PLATEAU_WINDOW = 500
_PLATEAU_REL = 1e-3
_SEPARATION_FACTOR = 10.0


class ChoiConstraintSystem:
    """The affine set ``Phi_J^dag(F_k) = G_k`` of a candidate Choi matrix ``J``.

    The stacks ``ops`` and ``targets`` hold the ``n`` events and, last,
    trace preservation as ``F = I_out``, ``G = I_in``.

    The map ``J -> Phi_J^dag(F)`` has adjoint ``M -> M^T (x) F``, so the
    Gram operator of the constraints is ``Gram_HS(F_1..F_n, I) (x) id`` and
    projecting onto the set needs only the pseudo-inverse of the
    ``(n+1) x (n+1)`` Gram matrix ``Tr[F_k F_l]``.

    A target ``G_k`` with ``<a|G_k|a> = 0`` for PSD ``F_k`` is the
    homogeneous constraint ``Tr[(|a><a| (x) F_k) J] = 0``, which forces any
    PSD solution onto a face of the cone (``J`` supported in the kernel of
    ``|a><a| (x) F_k``); the joint face is extracted once so projections can
    target it directly.  Without the face reduction every feasible point
    sits on the cone boundary and alternating projections stall.
    """

    def __init__(self, p, f_before, f_after):
        after, targets = _identity_targets(p, f_before, f_after)
        self.d_in = d_in = targets.shape[-1]
        self.d_out = d_out = after.shape[-1]
        self.ops = np.concatenate([after, np.eye(d_out)[None]])
        self.targets = np.concatenate([targets, np.eye(d_in)[None]])
        gram = np.einsum("kab,lba->kl", self.ops, self.ops).real
        self._solver = np.linalg.pinv(gram, rcond=1e-12)
        psd = np.linalg.eigvalsh(after)[:, 0] > -1e-12
        zero = (np.abs(np.diagonal(targets, axis1=1, axis2=2)) < 1e-14) & psd[:, None]
        face = np.zeros((self.dim, self.dim), dtype=complex)
        for pairs, f_k in zip(zero, after):
            face += np.kron(np.diag(pairs), f_k)
        # Orthonormal basis of the joint kernel of the homogeneous PSD constraints.
        vals, vecs = np.linalg.eigh(face)
        cutoff = 1e-12 * max(1.0, float(vals[-1]))
        self.face_basis = vecs[:, vals <= cutoff]
        # Iterate-independent pieces of the projections and the score.
        self._ops_flat = self.ops.reshape(len(self.ops), -1)
        self._face_basis_h = self.face_basis.conj().T
        self.score_weight = 2.0 - np.eye(d_in)

    @property
    def dim(self) -> int:
        return self.d_in * self.d_out

    def defect(self, j: np.ndarray) -> np.ndarray:
        """Hermitian parts of ``Phi_J^dag(F_k) - G_k``, trace preservation last."""
        return _hermitian_part(_heisenberg(j, self.d_in, self.d_out, self._ops_flat) - self.targets)

    def project_affine(self, j: np.ndarray, defect: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``j`` onto the affine set, given ``self.defect(j)``."""
        coeffs = (self._solver @ defect.reshape(len(defect), -1)).reshape(defect.shape)
        return j - _transpose_kron_sum(coeffs, self.ops).reshape(self.dim, self.dim)

    def project_face_psd(self, mat: np.ndarray) -> np.ndarray:
        """Project onto the PSD matrices supported on the feasible face."""
        u = self.face_basis
        compressed = self._face_basis_h @ mat @ u
        vals, vecs = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
        proj_small = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
        return u @ proj_small @ self._face_basis_h


@dataclass(frozen=True)
class FeasibilityResult:
    """Three-way verdict of the alternating-projection feasibility probe.

    ``residual`` is the best combined constraint violation reached by any
    run; ``witness`` is present exactly when the verdict is feasible and
    then satisfies all constraints at the tolerance.  Per restart that ran,
    ``cone_gaps`` holds the final distance to the cone and ``stops`` why it
    stopped: ``"tol"``, ``"plateau"`` or ``"cap"`` (``max_iter`` reached).
    """

    verdict: str  # "feasible-at-tol" | "infeasible-at-tol" | "undetermined"
    residual: float
    iterations: int
    witness: np.ndarray | None
    tolerance: float
    cone_gaps: tuple[float, ...] = ()
    stops: tuple[str, ...] = ()


def choi_feasibility(
    p_dc,
    f_eta,
    f_target,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    seed: int = 0,
    restarts: int = 3,
) -> FeasibilityResult:
    """Probe for a Choi matrix reproducing the post-processed statistics.

    Runs cyclic alternating projections (Dykstra correction on the PSD
    cone) from ``restarts`` seeded PSD starting points.  Feasible as soon
    as one run drives the combined residual below ``tol``; infeasible when
    every run plateaus with the affine set separated from the cone by a
    clear margin; undetermined otherwise.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    system = ChoiConstraintSystem(p_dc, f_eta, f_target)
    d = system.dim
    rng = np.random.default_rng(seed)

    best_residual = np.inf
    total_iters = 0
    final_gaps = []
    stops = []
    for _ in range(max(1, restarts)):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = g @ g.conj().T
        x *= system.d_in / np.trace(x).real
        defect = system.defect(x)
        correction = np.zeros_like(x)
        history = []
        stop = "cap"
        for _ in range(max_iter):
            total_iters += 1
            m = system.project_affine(x, defect) + correction
            x = system.project_face_psd(m)
            correction = m - x
            defect = system.defect(x)
            residual = float(_hermitian_score(defect, system.score_weight).max())
            best_residual = min(best_residual, residual)
            if residual < tol:
                return FeasibilityResult(
                    verdict="feasible-at-tol",
                    residual=residual,
                    iterations=total_iters,
                    witness=(x + x.conj().T) / 2.0,
                    tolerance=tol,
                    cone_gaps=tuple(final_gaps) + (float(np.linalg.norm(correction)),),
                    stops=tuple(stops) + ("tol",),
                )
            history.append(residual)
            if len(history) > _PLATEAU_WINDOW:
                old = history[-_PLATEAU_WINDOW - 1]
                if old - residual < _PLATEAU_REL * old:
                    stop = "plateau"
                    break
        final_gaps.append(float(np.linalg.norm(correction)) if max_iter > 0 else np.inf)
        stops.append(stop)

    gap_floor = _SEPARATION_FACTOR * tol
    separated = set(stops) == {"plateau"} and all(g > gap_floor for g in final_gaps)
    verdict = "infeasible-at-tol" if separated else "undetermined"
    return FeasibilityResult(
        verdict=verdict,
        residual=float(best_residual),
        iterations=total_iters,
        witness=None,
        tolerance=tol,
        cone_gaps=tuple(final_gaps),
        stops=tuple(stops),
    )


@dataclass(frozen=True)
class ChoiWitnessReport:
    """Solver-independent residuals of a candidate Choi matrix."""

    hermiticity_dev: float
    psd_residual: float
    trace_preservation_dev: float
    linear_residual: float
    tolerance: float
    passed: bool


def verify_choi_witness(j, p_dc, f_eta, f_target, tol: float) -> ChoiWitnessReport:
    """Re-check a Choi matrix against all defining constraints.

    Residuals are computed directly from the matrix by the same kernel that
    certifies channels: Hermiticity, most negative eigenvalue, partial trace
    against the identity, and the worst statistics constraint over the full
    operator space.
    """
    after, targets = _identity_targets(p_dc, f_eta, f_target)
    d_in, d_out = targets.shape[-1], after.shape[-1]
    j = np.asarray(j, dtype=complex)
    if j.shape != (d_in * d_out, d_in * d_out):
        raise ValueError("Choi matrix shape does not match the measurements")

    herm, min_eig, tp_dev = _cptp_residuals(j, d_in, d_out)
    psd_residual = max(0.0, -min_eig)
    linear = float(_identity_residuals(j, d_in, d_out, after, targets).max())
    passed = herm <= tol and psd_residual <= tol and tp_dev <= tol and linear <= tol
    return ChoiWitnessReport(
        hermiticity_dev=herm,
        psd_residual=psd_residual,
        trace_preservation_dev=tp_dev,
        linear_residual=linear,
        tolerance=tol,
        passed=passed,
    )
