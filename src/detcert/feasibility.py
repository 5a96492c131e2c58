"""Numeric existence check for a noise channel at fixed device parameters.

The statistics requirement ``P_dc Tr[F_before rho] = Tr[F_after Phi(rho)]``
becomes, through the Choi isomorphism, a set of linear constraints
``Tr[(rho^T (x) F_after_i) J] = rhs`` on a PSD matrix ``J`` with
``Tr_out J = I``.  Feasibility of that semidefinite system is probed with
alternating projections between the affine constraint set and the PSD cone
(Dykstra correction on the cone side).  This is an intuition-building
check, not a proof: the verdict is three-way and a returned witness is
always re-verifiable independently of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _cptp_residuals, _element_list, _identity_residuals, hermitian_basis
from .fock import SpaceLayout

_PLATEAU_WINDOW = 500
_PLATEAU_REL = 1e-3
_SEPARATION_FACTOR = 10.0


def _hvec(mat: np.ndarray) -> np.ndarray:
    """Isometric real vectorization of a Hermitian matrix."""
    d = mat.shape[0]
    iu = np.triu_indices(d, 1)
    root2 = np.sqrt(2.0)
    return np.concatenate(
        [np.diag(mat).real, root2 * mat[iu].real, root2 * mat[iu].imag]
    )


def _unhvec(vec: np.ndarray, d: int) -> np.ndarray:
    iu = np.triu_indices(d, 1)
    n_off = iu[0].size
    mat = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(mat, vec[:d])
    upper = (vec[d : d + n_off] + 1j * vec[d + n_off :]) / np.sqrt(2.0)
    mat[iu] = upper
    mat[(iu[1], iu[0])] = upper.conj()
    return mat


_MAX_PRODUCT_DIM = 100


class ChoiConstraintSystem:
    """Affine constraints on the Choi matrix of a candidate noise channel.

    Homogeneous constraints ``Tr[H J] = 0`` with PSD ``H`` force any PSD
    solution onto a face of the cone (``J`` supported in ``ker H``); the
    joint face is extracted once so projections can target it directly.
    Without the face reduction every feasible point sits on the cone
    boundary and alternating projections stall.
    """

    def __init__(self, p_entries: np.ndarray, before, after,
                 in_layout: SpaceLayout, out_layout: SpaceLayout):
        d_in = in_layout.total_dim
        d_out = out_layout.total_dim
        if d_in * d_out > _MAX_PRODUCT_DIM:
            raise ValueError(
                f"product dimension {d_in * d_out} exceeds the desk-scale "
                f"limit {_MAX_PRODUCT_DIM} of the projection solver"
            )
        before_dense = [el.to_dense() for el in before]
        after_dense = [el.to_dense() for el in after]
        rows = []
        rhs = []
        face_accum = np.zeros((d_in * d_out,) * 2, dtype=complex)
        for rho in hermitian_basis(d_in):
            probs = np.array([np.trace(el @ rho).real for el in before_dense])
            lhs = p_entries @ probs
            for i, f_i in enumerate(after_dense):
                h = np.kron(rho.T, f_i)
                rows.append(_hvec(h))
                rhs.append(lhs[i])
                if abs(lhs[i]) < 1e-14 and np.linalg.eigvalsh(h)[0] > -1e-12:
                    face_accum += h
        eye_out = np.eye(d_out)
        for sigma in hermitian_basis(d_in):
            rows.append(_hvec(np.kron(sigma, eye_out)))
            rhs.append(np.trace(sigma).real)
        self.matrix = np.array(rows)
        self.rhs = np.array(rhs)
        self.d_in = d_in
        self.d_out = d_out
        gram = self.matrix @ self.matrix.T
        self._solver = np.linalg.pinv(gram, rcond=1e-12)
        # Orthonormal basis of the joint kernel of the homogeneous PSD rows.
        vals, vecs = np.linalg.eigh(face_accum)
        cutoff = 1e-12 * max(1.0, float(vals[-1]))
        self.face_basis = vecs[:, vals <= cutoff]

    @property
    def dim(self) -> int:
        return self.d_in * self.d_out

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        gap = self.matrix @ x - self.rhs
        return x - self.matrix.T @ (self._solver @ gap)

    def residual_vec(self, x: np.ndarray) -> float:
        return float(np.abs(self.matrix @ x - self.rhs).max())

    def residual(self, j: np.ndarray) -> float:
        return self.residual_vec(_hvec(j))

    def project_face_psd(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Project onto the PSD matrices supported on the feasible face.

        Also returns the distance from ``x`` to that face of the cone.
        """
        d = self.dim
        mat = _unhvec(x, d)
        u = self.face_basis
        compressed = u.conj().T @ mat @ u
        vals, vecs = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
        clipped = np.clip(vals, 0.0, None)
        proj_small = (vecs * clipped) @ vecs.conj().T
        proj = u @ proj_small @ u.conj().T
        gap = float(np.linalg.norm(mat - proj))
        return _hvec(proj), gap


@dataclass(frozen=True)
class FeasibilityResult:
    """Three-way verdict of the alternating-projection feasibility probe.

    ``residual`` is the best combined constraint violation reached by any
    run; ``witness`` is present exactly when the verdict is feasible and
    then satisfies all constraints at the tolerance.
    """

    verdict: str  # "feasible-at-tol" | "infeasible-at-tol" | "undetermined"
    residual: float
    iterations: int
    witness: np.ndarray | None
    tolerance: float
    cone_gaps: tuple[float, ...] = ()


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
    before, _ = _element_list(f_eta)
    after, _ = _element_list(f_target)
    if hasattr(p_dc, "entries"):
        p_entries = p_dc.entries
    else:
        p_entries = np.asarray(p_dc, dtype=float)
    if p_entries.shape != (len(after), len(before)):
        raise ValueError(
            f"post-processing shape {p_entries.shape} does not map "
            f"{len(before)} -> {len(after)} events"
        )
    system = ChoiConstraintSystem(
        p_entries, before, after, before[0].layout, after[0].layout
    )
    d = system.dim
    rng = np.random.default_rng(seed)

    best_residual = np.inf
    total_iters = 0
    final_gaps = []
    plateaued = []
    for _ in range(max(1, restarts)):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        start = g @ g.conj().T
        start *= system.d_in / np.trace(start).real
        x = _hvec(start)
        correction = np.zeros_like(x)
        history = []
        gap = np.inf
        hit_plateau = False
        for it in range(max_iter):
            total_iters += 1
            y = system.project_affine(x)
            z, gap = system.project_face_psd(y + correction)
            correction = (y + correction) - z
            x = z
            residual = system.residual_vec(z)
            best_residual = min(best_residual, residual)
            if residual < tol:
                witness = _unhvec(z, d)
                witness = (witness + witness.conj().T) / 2.0
                return FeasibilityResult(
                    verdict="feasible-at-tol",
                    residual=residual,
                    iterations=total_iters,
                    witness=witness,
                    tolerance=tol,
                    cone_gaps=tuple(final_gaps) + (gap,),
                )
            history.append(residual)
            if len(history) > _PLATEAU_WINDOW:
                old = history[-_PLATEAU_WINDOW - 1]
                if old - residual < _PLATEAU_REL * old:
                    hit_plateau = True
                    break
        final_gaps.append(gap)
        plateaued.append(hit_plateau)

    separated = all(plateaued) and all(
        g > _SEPARATION_FACTOR * tol for g in final_gaps
    )
    verdict = "infeasible-at-tol" if separated else "undetermined"
    return FeasibilityResult(
        verdict=verdict,
        residual=float(best_residual),
        iterations=total_iters,
        witness=None,
        tolerance=tol,
        cone_gaps=tuple(final_gaps),
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
    before, _ = _element_list(f_eta)
    after, _ = _element_list(f_target)
    j = np.asarray(j, dtype=complex)
    d_in = before[0].layout.total_dim
    d_out = after[0].layout.total_dim
    if j.shape != (d_in * d_out, d_in * d_out):
        raise ValueError("Choi matrix shape does not match the measurements")

    herm, min_eig, tp_dev = _cptp_residuals(j, d_in, d_out)
    psd_residual = max(0.0, -min_eig)
    linear = float(_identity_residuals(j, d_in, d_out, p_dc, before, after).max())
    passed = herm <= tol and psd_residual <= tol and tp_dev <= tol and linear <= tol
    return ChoiWitnessReport(
        hermiticity_dev=herm,
        psd_residual=psd_residual,
        trace_preservation_dev=tp_dev,
        linear_residual=linear,
        tolerance=tol,
        passed=passed,
    )
