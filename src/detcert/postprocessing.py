"""Classical post-processing of click statistics.

Stochastic matrices act on outcome probability vectors by ``p' = P p``; the
matrices are column-stochastic (each column is the outcome distribution for
one input event), matching how every displayed post-processing acts on
POVM vectors via ``G' = P G``.  This module builds the dark-count map, the
single-photon loss map, coarse grainings, and solves the swap equation

    P_sq . P_db = P_dc . P_sq

for ``P_dc``.  A coarse graining ``P_sq`` has one candidate, in closed
form (:func:`coarse_grained_dc_ansatz`); else ``P_dc`` is the stochastic
matrix of smallest worst-entry violation.  That optimum and its dual
weights come in closed form on ``P_sq``'s kernel, for a ``P_sq`` of full
row rank with at most a one-dimensional kernel, as the qubit squasher has;
one re-verification of the ``(matrix, weights)`` pair decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import (
    MULTI, NO_CLICK, SINGLE, EventTable, POVM, _click_bits, _require_unit, _Verdict, enumerate_events,
)
from .fock import _kept

_ENTRY_TOL = 1e-12
_COLSUM_TOL = 1e-10
SWAP_FEASIBILITY_TOL = 1e-9


class StochasticMatrix:
    """Column-stochastic real matrix, or a ``(..., n_out, n_in)`` stack of them on one row table.

    Entries must be nonnegative up to ``1e-12`` (tiny negatives are clamped
    to zero) and every column must sum to 1 within ``1e-10``.  ``row_table``,
    when given, names the output events: :func:`apply_postprocessing` reads it.
    A stack serves :func:`apply_postprocessing`; the swap LP, the coarse
    graining and the dark-count checks take one map and refuse a stack.
    """

    __slots__ = ("entries", "row_table")

    def __init__(self, entries, row_table: EventTable | None = None):
        a = np.asarray(entries, dtype=float)
        if a.ndim < 2:
            raise ValueError("entries must be a matrix or a stack of them")
        if not (a >= -_ENTRY_TOL).all():  # NaN fails too
            raise ValueError(f"negative or NaN entry: smallest {a.min():.3e}")
        a = np.clip(a, 0.0, None)
        colsums = a.sum(axis=-2)
        if np.abs(colsums - 1.0).max() > _COLSUM_TOL:
            raise ValueError(
                f"columns must sum to 1 (worst deviation {np.abs(colsums - 1.0).max():.3e})"
            )
        self.entries = a
        self.row_table = row_table

    @property
    def shape(self) -> tuple[int, ...]:
        return self.entries.shape


class CoarseGraining(StochasticMatrix):
    """Deterministic merge of outcomes: a 0/1 matrix with one 1 per column and no empty row."""

    __slots__ = ()

    def __init__(self, entries, row_table: EventTable | None = None):
        super().__init__(entries, row_table)
        a = self.entries
        if a.ndim != 2:
            raise ValueError(f"a coarse graining is one map, not a stack of shape {a.shape}")
        if not np.all((a == 0.0) | (a == 1.0)):  # so each column, summing to 1, holds one 1
            raise ValueError("coarse graining entries must be 0 or 1")
        if not a.any(axis=1).all():
            raise ValueError("each row must merge at least one outcome")


def dark_count_matrix(dark_rates) -> StochasticMatrix:
    """Post-processing of all ``2^k`` click patterns by independent dark counts.

    Column ``c`` holds the distribution over observed patterns ``c'`` given
    true pattern ``c``: clicks are never erased (zero unless ``c`` is a
    subset of ``c'``), and each dark detector fires independently with its
    rate ``d_i``.  For one detector this is ``[[1-d, 0], [d, 1]]``, and zero
    rates give exactly the identity.  A ``(depth, k)`` stack of rate rows
    gives the stack of maps, each bit for bit the map of its row alone.  Its
    rows are the events of :func:`enumerate_events`, its ``row_table``.
    """
    d = np.atleast_1d(np.asarray(dark_rates, dtype=float))
    _require_unit(d, "dark rates")
    k = d.shape[-1]
    bits = _click_bits(k).T  # refuses k outside [1, MAX_DETECTORS] before any (2^k, 2^k) allocation
    # P[c', c] = prod_i D_i[c'_i, c_i], multiplied in detector order, per row of rates.
    per_detector = np.stack([1.0 - d, np.zeros_like(d), d, np.ones_like(d)], axis=-2).reshape(*d.shape[:-1], 2, 2, k)
    factors = per_detector[..., bits[:, :, None], bits[:, None, :], np.arange(k)[:, None, None]]
    return StochasticMatrix(factors.prod(axis=-3), enumerate_events(k))


def _single_photon_loss_entries(eta: np.ndarray) -> np.ndarray:
    """Entries of the single-photon loss map for an efficiency vector ``eta`` of ``k`` detectors.

    Loss as post-processing, valid on at most one incident photon, on the
    ``k + 1`` outcomes {no-click} + singles: no-click stays put, and single
    click ``s`` survives with probability ``eta_s`` or decays to no-click.
    For one detector this is ``[[1, 1-eta], [0, eta]]``.
    """
    k = len(eta)
    p = np.zeros((k + 1, k + 1))
    p[0, 0] = 1.0
    p[range(1, k + 1), range(1, k + 1)] = eta
    p[0, 1:] = 1.0 - eta
    return p


@dataclass(frozen=True)
class DarkCountConditionsReport(_Verdict):
    """The three structural conditions a dark-count map obeys, and their violations.

    1. no single-click event becomes a different single-click event,
    2. no click event becomes the no-click event,
    3. each single-click event survives at least as often as no-click does.

    ``residual`` is the largest violation (entry of conditions 1 and 2,
    shortfall ``P[0,0] - P[s,s]`` of condition 3), floored at 0; the tuples
    list every violation above ``tolerance``.
    """

    residual: float
    tolerance: float
    single_to_single: tuple[tuple[int, int], ...]
    click_erased: tuple[tuple[int, int], ...]
    survival_violations: tuple[int, ...]


def validate_dark_count_pp(
    p: StochasticMatrix, events: EventTable, tol: float = 1e-9
) -> DarkCountConditionsReport:
    """Check the conditions required of a dark-count post-processing."""
    a = p.entries
    n = events.n_events
    if a.shape != (n, n):
        raise ValueError(f"dark-count map of shape {a.shape} does not match {n} events")
    singles = np.asarray(events.single_indices, dtype=int)
    to_single = np.where(np.eye(singles.size, dtype=bool), 0.0, a[np.ix_(singles, singles)])
    erased = a[0, 1:]
    shortfall = a[0, 0] - np.diag(a)[singles]
    return DarkCountConditionsReport(
        residual=float(np.concatenate(([0.0], to_single.ravel(), erased, shortfall)).max()),
        tolerance=tol,
        single_to_single=tuple(
            (int(singles[r]), int(singles[c])) for r, c in np.argwhere(to_single > tol)
        ),
        click_erased=tuple((0, int(i) + 1) for i in np.flatnonzero(erased > tol)),
        survival_violations=tuple(int(s) for s in singles[shortfall > tol]),
    )


@_kept(maxsize=16)
def multiclick_coarse_graining(events: EventTable) -> CoarseGraining:
    """Merge all multi-click patterns into a single multi event.

    The resulting ``(n_S + 2) x 2^k`` matrix is the identity on the no-click
    and single-click events and routes every multi-click column to one row.
    It is kept per event table (:func:`~detcert.fock._kept`), and read-only.
    """
    if events.k < 2:
        raise ValueError("coarse graining needs at least 2 detectors (no multi events)")
    singles = events.single_indices
    multis = events.multi_indices
    n_s = len(singles)
    n_in = events.n_events
    m = np.zeros((n_s + 2, n_in))
    m[0, 0] = 1.0
    for row, s in enumerate(singles, start=1):
        m[row, s] = 1.0
    for mu in multis:
        m[n_s + 1, mu] = 1.0
    row_labels = (events.labels[0],) + tuple(events.labels[s] for s in singles) + (MULTI,)
    row_classes = (NO_CLICK,) + (SINGLE,) * n_s + (MULTI,)
    table = EventTable(k=events.k, labels=row_labels, classes=row_classes, masks=())
    return CoarseGraining(m, row_table=table)


def apply_postprocessing(p: StochasticMatrix, povm: POVM) -> POVM:
    """Post-processed measurement ``G' = P G`` (element-wise mixing), per stack entry.

    A stack of maps and a stack of measurements broadcast: entry ``i`` of
    each gives entry ``i``, bit for bit as alone, validated in one pass.
    The output events are the row table of ``p``, which must carry one.
    The output keeps the dtype of ``povm``.
    """
    if p.shape[-1] != len(povm):
        raise ValueError("matrix columns must match the POVM element count")
    if p.row_table is None:
        raise ValueError("no event table for the output POVM")
    # einsum, not BLAS: it sums over the input elements in column order,
    # equal to the term-by-term sum bit for bit, where a real matmul rounds
    # otherwise.  P is real, so a complex stack is mixed as its float view.
    dense = povm.dense
    mixed = np.einsum("...ij,...jab->...iab", p.entries, dense.view(np.float64)).view(dense.dtype)
    return POVM(povm.layout, mixed, p.row_table)


@dataclass(frozen=True)
class SwapLPResult:
    """Outcome of the swap equation's best stochastic solution.

    ``residual`` is the worst-case violation of ``P_sq . P_db = P_dc . P_sq``
    by the closed form on ``P_sq``'s kernel, clipped and renormalised into a
    column-stochastic ``P_dc`` (``matrix`` on a feasible verdict): the
    smallest achievable up to rounding.  A residual far above tolerance
    signals structural infeasibility rather than numerical noise.
    ``dual_bound`` is set exactly on an infeasible verdict: a lower bound
    on that violation for every column-stochastic ``P_dc``, computed by
    :func:`_dual_bound` from the closed form's kernel weights
    ``-sign(c_i) e_i z^T`` alone.
    """

    feasible: bool
    matrix: StochasticMatrix | None
    residual: float
    tolerance: float = SWAP_FEASIBILITY_TOL
    dual_bound: float | None = None


def _dual_bound(w: np.ndarray, s: np.ndarray, target: np.ndarray) -> float:
    """Lower bound on ``max |P S - target|`` over column-stochastic ``P``.

    For any weights ``W``, ``<W, P S - target> >= sum_c min_i (W S^T)_ic -
    <W, target>`` because each column of ``P`` is a distribution, and the
    left side is at most ``||W||_1 max |P S - target|``.
    """
    norm = float(np.abs(w).sum())
    if norm == 0.0:
        return 0.0
    return float((w @ s.T).min(axis=0).sum() - np.vdot(w, target)) / norm


def swap_residual(p_dc: np.ndarray, p_sq: np.ndarray, p_db: np.ndarray) -> float:
    """Worst entry of ``|P_dc . P_sq - P_sq . P_db|``, the violation of the swap equation."""
    return float(np.abs(p_dc @ p_sq - p_sq @ p_db).max())


def _kernel_pair(s: np.ndarray, target: np.ndarray):
    """The optimal ``(P_dc, W)`` in closed form, or None where it does not apply.

    It applies when ``S`` has full row rank and a kernel of dimension at
    most 1.  With a kernel, its vector is ``z_j = (-1)^j det S_{-j}``
    (``S_{-j}`` drops column ``j``; ``S z = 0`` by Laplace expansion), and
    ``P S`` ranges over exactly the matrices that vanish on ``z``.  So row
    ``i`` of ``P S - target`` has ``z``-component ``-c_i`` for ``c = target
    z``, and its largest entry is at least ``|c_i| / ||z||_1``.  The row
    ``-c_i sign(z)^T / ||z||_1`` attains that bound.  The weights ``W =
    -sign(c_i) e_i z^T`` at the worst row ``i`` give :func:`_dual_bound`
    the same value, since ``W S^T = 0``.  ``P`` solves ``P S_{-j} = (target
    - c sign(z)^T / ||z||_1)_{-j}`` for the ``j`` of largest ``|z_j|``.
    Its columns sum to 1, as ``1^T S = 1^T`` and ``1^T c = 1^T z = 0``.
    Without a kernel ``P = target S^-1`` and ``W = 0``.  The pair is
    returned only if ``P`` is nonnegative up to ``_ENTRY_TOL``.  What
    depends on ``S`` alone comes from :func:`_kernel_plan`.
    """
    plan = _kernel_plan(np.asarray(s, dtype=float))
    if plan is None:
        return None
    kept, keep, z, sign_z, norm_z = plan
    w = np.zeros_like(target)
    if z is not None:
        c = target @ z
        target = target - np.outer(c, sign_z) / norm_z
        worst = np.argmax(np.abs(c))
        w[worst] = -np.sign(c[worst]) * z
    p_dc = np.linalg.solve(kept.T, target[:, keep].T).T
    return (p_dc, w) if (p_dc >= -_ENTRY_TOL).all() else None


@_kept(maxsize=16)
def _kernel_plan(s: np.ndarray):
    """The part of :func:`_kernel_pair` that reads the float array ``S`` alone, kept for reuse.

    None where the closed form does not apply, else ``(S_keep, keep, z,
    sign(z), ||z||_1)``: the kept columns of ``S`` and their mask, and
    ``z`` and its two reductions, all None without a kernel.
    """
    n_out, n_in = s.shape
    if n_in - n_out not in (0, 1) or np.linalg.matrix_rank(s) < n_out:
        return None
    keep = np.ones(n_in, dtype=bool)
    z = sign_z = norm_z = None
    if n_in > n_out:
        drop_one = np.nonzero(~np.eye(n_in, dtype=bool))[1].reshape(n_in, n_out)  # row j: all but j
        z = (-1.0) ** np.arange(n_in) * np.linalg.det(s[:, drop_one].swapaxes(0, 1))
        sign_z, norm_z = np.sign(z), np.abs(z).sum()
        keep[np.argmax(np.abs(z))] = False
    return s[:, keep], keep, z, sign_z, norm_z


def solve_swap_lp(
    p_db: StochasticMatrix,
    p_sq: StochasticMatrix,
    tol: float = SWAP_FEASIBILITY_TOL,
) -> SwapLPResult:
    """Find ``P_dc`` with ``P_sq . P_db = P_dc . P_sq``, or certify failure.

    Minimises the worst entry of ``|P_dc . P_sq - P_sq . P_db|`` over
    column-stochastic ``P_dc``.  The optimum and its dual weights come in
    closed form (:func:`_kernel_pair`), which needs ``P_sq`` of full row
    rank with a kernel of dimension at most 1, as the qubit squasher has,
    and a nonnegative closed-form ``P_dc``; any other ``P_sq`` is a
    ``ValueError``.  The pair is re-verified apart from the closed form:
    the matrix, clipped and renormalised, is returned with its
    :func:`swap_residual` as the residual, feasible iff that is within
    ``tol``; an infeasible verdict needs the weights to prove, by
    :func:`_dual_bound`, a violation above ``tol`` for every ``P_dc``.
    An undecided ``tol`` is a ``RuntimeError``.
    """
    if p_db.shape != (p_sq.shape[-1],) * 2 or len(p_sq.shape) != 2:
        raise ValueError("P_sq and P_db must be one map each, on the same input events")
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")

    s = p_sq.entries
    target = s @ p_db.entries
    pair = _kernel_pair(s, target)
    if pair is None:
        raise ValueError(
            "P_sq is outside the closed form's domain: it needs full row rank, "
            "a kernel of dimension at most 1 and a nonnegative closed-form P_dc"
        )
    p_dc, w = pair
    p_dc = np.clip(p_dc, 0.0, None)
    matrix = StochasticMatrix(p_dc / p_dc.sum(axis=0, keepdims=True))
    residual = swap_residual(matrix.entries, s, p_db.entries)
    if _Verdict.passes(residual, tol):
        return SwapLPResult(feasible=True, matrix=matrix, residual=residual, tolerance=tol)
    bound = _dual_bound(w, s, target)
    if not bound > tol:
        raise RuntimeError(
            f"residual {residual:.3e} above tolerance, "
            f"but the dual bound {bound:.3e} does not prove it"
        )
    return SwapLPResult(
        feasible=False, matrix=None, residual=residual, tolerance=tol, dual_bound=bound
    )


def coarse_grained_dc_ansatz(p_db: StochasticMatrix, cg: CoarseGraining) -> StochasticMatrix:
    """The unique ``P_dc`` with ``M . P_db = P_dc . M`` for a coarse graining ``M``, or ``ValueError``.

    ``M`` has full row rank, so the one candidate's column ``r`` is the mean
    of the columns of ``M . P_db`` that ``M`` merges into ``r``: a stochastic
    matrix.  It solves the swap iff those columns agree (to ``1e-12``), else
    the error names the column of ``M . P_db`` farthest from its mean.
    """
    if p_db.shape != (cg.shape[1],) * 2:
        raise ValueError(f"coarse graining does not match the dark-count map of shape {p_db.shape}")
    p_dc = StochasticMatrix((cg.entries @ p_db.entries @ cg.entries.T) / cg.entries.sum(axis=1))
    gaps = np.abs(cg.entries @ p_db.entries - p_dc.entries @ cg.entries).max(axis=0)
    worst = int(gaps.argmax())
    if gaps[worst] > _ENTRY_TOL:
        raise ValueError(
            f"no swap solution for this coarse graining: column {worst} of M P_db is "
            f"{gaps[worst]:.3e} from the mean of the columns merged with it"
        )
    return p_dc


@_kept(maxsize=1)
def bb84_qubit_squasher() -> StochasticMatrix:
    """Post-processing of the two-detector BB84 squasher, per basis.

    Maps a double click to a uniformly random single click in the same
    basis; no-click and single clicks pass through, and its row table names
    them as in :func:`enumerate_events`.  Built on first use and kept
    (:func:`~detcert.fock._kept`), read-only.
    """
    table = EventTable(k=2, labels=enumerate_events(2).labels[:3], classes=(NO_CLICK, SINGLE, SINGLE), masks=())
    return StochasticMatrix([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.5]], table)


def bb84_squashed_dark_matrix(d: float) -> StochasticMatrix:
    """The forced dark-count map on squashed BB84 outcomes at equal rates.

    This is the unique solution of the swap equation for the two-detector
    qubit squasher when both dark count rates equal ``d``.
    """
    _require_unit(d, "dark rate")
    entries = np.array(
        [
            [(1.0 - d) ** 2, 0.0, 0.0],
            [d * (1.0 - d / 2.0), 1.0 - d / 2.0, d / 2.0],
            [d * (1.0 - d / 2.0), d / 2.0, 1.0 - d / 2.0],
        ]
    )
    return StochasticMatrix(entries)
