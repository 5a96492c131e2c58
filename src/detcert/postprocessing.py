"""Classical post-processing of click statistics.

Stochastic matrices act on outcome probability vectors by ``p' = P p``; the
matrices are column-stochastic (each column is the outcome distribution for
one input event), matching how every displayed post-processing acts on
POVM vectors via ``G' = P G``.  This module builds the dark-count map, the
single-photon loss map, coarse grainings, and solves the swap equation

    P_sq . P_db = P_dc . P_sq

for ``P_dc``: in closed form when ``P_sq`` is a coarse graining, else as a
small linear program.  The program's optimum and dual weights come in
closed form when ``P_sq`` has full row rank and at most a one-dimensional
kernel, as the qubit squasher has, and from a dense simplex otherwise;
either way one re-verification of the ``(matrix, weights)`` pair decides.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .detectors import MULTI, NO_CLICK, SINGLE, EventTable, POVM, _Verdict, enumerate_events

_ENTRY_TOL = 1e-12
_COLSUM_TOL = 1e-10
SWAP_FEASIBILITY_TOL = 1e-9
_PIVOT_TOL = 1e-9
# Ratio-test ties: within this relative distance of the smallest ratio.  An
# absolute band would tie the ratios of rates below it, which differ.
_TIE_RTOL = 1e-13
_COST_TOL = 1e-9
_MAX_PIVOTS = 5000


class StochasticMatrix:
    """Column-stochastic real matrix.

    Entries must be nonnegative up to ``1e-12`` (tiny negatives are clamped
    to zero) and every column must sum to 1 within ``1e-10``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2:
            raise ValueError("entries must be a matrix")
        if not (a >= -_ENTRY_TOL).all():  # NaN fails too
            raise ValueError(f"negative or NaN entry: smallest {a.min():.3e}")
        a = np.clip(a, 0.0, None)
        colsums = a.sum(axis=0)
        if np.abs(colsums - 1.0).max() > _COLSUM_TOL:
            raise ValueError(
                f"columns must sum to 1 (worst deviation {np.abs(colsums - 1.0).max():.3e})"
            )
        self.entries = a

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def __matmul__(self, other: "StochasticMatrix") -> "StochasticMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("dimension mismatch in composition")
        return StochasticMatrix(self.entries @ other.entries)


class CoarseGraining(StochasticMatrix):
    """Deterministic merge of outcomes: a 0/1 matrix with one 1 per column and no empty row."""

    __slots__ = ("row_table",)

    def __init__(self, entries, row_table=None):
        super().__init__(entries)
        a = self.entries
        if not np.all((a == 0.0) | (a == 1.0)):  # so each column, summing to 1, holds one 1
            raise ValueError("coarse graining entries must be 0 or 1")
        if not a.any(axis=1).all():
            raise ValueError("each row must merge at least one outcome")
        self.row_table = row_table


def dark_count_matrix(dark_rates) -> StochasticMatrix:
    """Post-processing of all ``2^k`` click patterns by independent dark counts.

    Column ``c`` holds the distribution over observed patterns ``c'`` given
    true pattern ``c``: clicks are never erased (zero unless ``c`` is a
    subset of ``c'``), and each dark detector fires independently with its
    rate ``d_i``.  For one detector this is ``[[1-d, 0], [d, 1]]``.
    """
    d = np.atleast_1d(np.asarray(dark_rates, dtype=float))
    if not ((d >= 0) & (d <= 1)).all():  # NaN fails too
        raise ValueError("dark rates must lie in [0, 1]")
    k = d.size
    # P[c', c] = prod_i D_i[c'_i, c_i], multiplied in detector order.
    per_detector = np.array([[1.0 - d, np.zeros(k)], [d, np.ones(k)]])
    bits = (np.asarray(enumerate_events(k).masks) >> np.arange(k)[:, None]) & 1
    factors = per_detector[bits[:, :, None], bits[:, None, :], np.arange(k)[:, None, None]]
    return StochasticMatrix(factors.prod(axis=0))


def single_photon_loss_matrix(eta) -> StochasticMatrix:
    """Loss as post-processing, valid on at most one incident photon.

    Acts on the ``k + 1`` outcomes {no-click} + singles: the no-click event
    stays put, and single click ``s`` survives with probability ``eta_s``
    or decays to no-click.  For one detector this is ``[[1, 1-eta], [0, eta]]``.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not ((eta >= 0) & (eta <= 1)).all():  # NaN fails too
        raise ValueError("efficiencies must lie in [0, 1]")
    return StochasticMatrix(_single_photon_loss_entries(eta))


def _single_photon_loss_entries(eta: np.ndarray) -> np.ndarray:
    """Entries of the single-photon loss map for each efficiency vector of a stack ``(..., k)``."""
    k = eta.shape[-1]
    p = np.zeros(eta.shape[:-1] + (k + 1, k + 1))
    p[..., 0, 0] = 1.0
    p[..., range(1, k + 1), range(1, k + 1)] = eta
    p[..., 0, 1:] = 1.0 - eta
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
    passed: bool = field(init=False)


def validate_dark_count_pp(
    p: StochasticMatrix, events: EventTable, tol: float = 1e-9
) -> DarkCountConditionsReport:
    """Check the conditions required of a dark-count post-processing."""
    a = p.entries
    n = events.n_events
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match {n} events")
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


def multiclick_coarse_graining(events: EventTable) -> CoarseGraining:
    """Merge all multi-click patterns into a single multi event.

    The resulting ``(n_S + 2) x 2^k`` matrix is the identity on the no-click
    and single-click events and routes every multi-click column to one row.
    It is built once per process for each event table, and read-only.
    """
    return _multiclick_coarse_graining(events)


@functools.lru_cache(maxsize=16)
def _multiclick_coarse_graining(events: EventTable) -> CoarseGraining:
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
    cg = CoarseGraining(m, row_table=table)
    cg.entries.flags.writeable = False
    return cg


def apply_postprocessing(p: StochasticMatrix, povm: POVM) -> POVM:
    """Post-processed measurement ``G' = P G`` (element-wise mixing), per stack entry.

    The output events are the row table of ``p``, which must carry one.
    """
    if p.shape[1] != len(povm):
        raise ValueError("matrix columns must match the POVM element count")
    events = getattr(p, "row_table", None)
    if events is None:
        raise ValueError("no event table for the output POVM")
    d = povm.layout.total_dim
    flat = povm.dense.reshape(*povm.dense.shape[:-2], d * d)
    return POVM(povm.layout, (p.entries @ flat).reshape(*flat.shape[:-2], -1, d, d), events)


@dataclass(frozen=True)
class SwapLPResult:
    """Outcome of the swap-equation linear program.

    ``residual`` is the worst-case violation of ``P_sq . P_db = P_dc . P_sq``
    by the LP optimum, clipped and renormalised into a column-stochastic
    ``P_dc`` (``matrix`` on a feasible verdict): the smallest achievable up to
    rounding.  The optimum is the closed form on ``P_sq``'s kernel where that
    applies, else the simplex's.  A residual far above tolerance signals
    structural infeasibility rather than numerical noise.  ``dual_bound`` is
    set exactly on an infeasible verdict: a lower bound on that violation
    for every column-stochastic ``P_dc``, computed by :func:`_dual_bound`
    from dual weights (the kernel weights ``-sign(c_i) e_i z^T`` of the
    closed form, or the simplex's) without the solver.
    """

    feasible: bool
    matrix: StochasticMatrix | None
    residual: float
    tolerance: float = SWAP_FEASIBILITY_TOL
    dual_bound: float | None = None


def _simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: np.ndarray):
    """Move the feasible basis of ``a x = b, x >= 0`` to one minimising ``cost . x``.

    Dense simplex with Bland's rule: the entering column is the lowest-index
    one with a negative reduced cost, the leaving row the ratio-test tie with
    the lowest-index basic variable, which cannot cycle (Bland, Math. Oper.
    Res. 2, 103 (1977)); ratios tie within a relative ``_TIE_RTOL``.  The
    basis is inverted afresh from ``a`` at every pivot, so basic values and
    reduced costs carry no accumulated rounding.
    Returns the basic values and the reduced costs.
    """
    for _ in range(_MAX_PIVOTS):
        b_inv = np.linalg.inv(a[:, basis])
        x_b = b_inv @ b
        reduced = cost - (cost[basis] @ b_inv) @ a
        negative = reduced < -_COST_TOL
        if not negative.any():
            return x_b, reduced
        col = np.argmax(negative)
        direction = b_inv @ a[:, col]
        rows = np.flatnonzero(direction > _PIVOT_TOL)
        if rows.size == 0:
            raise RuntimeError("LP solver failed: unbounded")
        ratios = np.maximum(x_b[rows], 0.0) / direction[rows]
        ties = rows[ratios <= ratios.min() * (1.0 + _TIE_RTOL)]
        basis[ties[np.argmin(basis[ties])]] = col
    raise RuntimeError(f"LP solver failed: no optimum after {_MAX_PIVOTS} pivots")


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
    s = np.asarray(s, dtype=float)
    plan = _kernel_plan(s.shape, s.tobytes())
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


@functools.lru_cache(maxsize=16)
def _kernel_plan(shape: tuple[int, int], data: bytes):
    """The part of :func:`_kernel_pair` that reads ``S`` alone, given as the bytes of a float array.

    None where the closed form does not apply, else ``(S_keep, keep, z,
    sign(z), ||z||_1)``: the kept columns of ``S`` and their mask, and
    ``z`` and its two reductions, all None without a kernel.  Kept for
    reuse, read-only.
    """
    s = np.frombuffer(data).reshape(shape)
    n_out, n_in = shape
    if n_in - n_out not in (0, 1) or np.linalg.matrix_rank(s) < n_out:
        return None
    keep = np.ones(n_in, dtype=bool)
    z = sign_z = norm_z = None
    if n_in > n_out:
        drop_one = np.nonzero(~np.eye(n_in, dtype=bool))[1].reshape(n_in, n_out)  # row j: all but j
        z = (-1.0) ** np.arange(n_in) * np.linalg.det(s[:, drop_one].swapaxes(0, 1))
        sign_z, norm_z = np.sign(z), np.abs(z).sum()
        keep[np.argmax(np.abs(z))] = False
        z.flags.writeable = sign_z.flags.writeable = False
    kept = s[:, keep]
    kept.flags.writeable = keep.flags.writeable = False
    return kept, keep, z, sign_z, norm_z


def _simplex_pair(s: np.ndarray, target: np.ndarray):
    """An optimal ``(P_dc, W)`` of the swap LP by :func:`_simplex`, for any ``S``.

    Solves ``min t`` subject to entrywise ``|P_dc S - target| <= t`` with
    ``P_dc`` column-stochastic, from the vertex ``P_dc = e_0 1^T``.  ``W``
    is the optimal basis's dual weights on the ``<=`` rows.
    """
    n_out, n_in = target.shape
    n_p = n_out * n_out  # vec(P_dc), row-major, then t, then the slacks
    n_ub = 2 * n_out * n_in

    # Rows: -+(P_dc S - target) - t + slack = 0, then the column sums of P_dc
    # equal to 1.
    act = np.kron(np.eye(n_out), s.T)  # vec(P_dc) -> vec(P_dc S)
    a = np.zeros((n_ub + n_out, n_p + 1 + n_ub))
    a[:n_ub, :n_p] = np.concatenate([-act, act])
    a[:n_ub, n_p] = -1.0
    a[:n_ub, n_p + 1 :] = np.eye(n_ub)
    a[n_ub:, :n_p] = np.kron(np.ones(n_out), np.eye(n_out))
    b = np.concatenate([-target.ravel(), target.ravel(), np.ones(n_out)])
    # Start at the vertex P_dc = e_0 1^T, where P_dc S = e_0 1^T as 1^T S = 1^T.
    # Its basis: row 0 of P_dc (an identity on the column sums), t = max |D|
    # for D = e_0 1^T - target, and every slack but one that this t makes
    # zero; t's -1 covers that slack's row, so the basis is nonsingular.
    gap = -target
    gap[0] += 1.0
    tight = np.argmin(np.concatenate([gap.ravel(), -gap.ravel()]))
    basis = np.concatenate([np.arange(n_out), [n_p], n_p + 1 + np.delete(np.arange(n_ub), tight)])
    cost = np.zeros(a.shape[1])
    cost[n_p] = 1.0  # t
    x_b, reduced = _simplex(a, b, cost, basis)

    x = np.zeros(a.shape[1])
    x[basis] = x_b
    # The dual of a <= row is minus its slack's reduced cost.
    lam = -reduced[n_p + 1 :]
    w = (lam[: n_ub // 2] - lam[n_ub // 2 :]).reshape(n_out, n_in)
    return x[:n_p].reshape(n_out, n_out), w


def solve_swap_lp(
    p_db: StochasticMatrix,
    p_sq: StochasticMatrix,
    tol: float = SWAP_FEASIBILITY_TOL,
) -> SwapLPResult:
    """Find ``P_dc`` with ``P_sq . P_db = P_dc . P_sq``, or certify failure.

    Minimises the worst entry of ``|P_dc . P_sq - P_sq . P_db|`` over
    column-stochastic ``P_dc``.  The optimum and its dual weights come in
    closed form (:func:`_kernel_pair`) when ``P_sq`` has full row rank and a
    kernel of dimension at most 1, as the qubit squasher has, and from the
    dense simplex (:func:`_simplex_pair`) otherwise.  Either way the pair is
    re-verified without its source: the matrix, clipped and renormalised,
    is returned with its :func:`swap_residual` as the residual, feasible iff
    that is within ``tol``; an infeasible verdict needs the weights to
    prove, by :func:`_dual_bound`, a violation above ``tol`` for every
    ``P_dc``.
    """
    if p_db.shape != (p_sq.shape[1],) * 2:
        raise ValueError("P_sq and P_db must act on the same input events")

    s = p_sq.entries
    target = s @ p_db.entries
    p_dc, w = _kernel_pair(s, target) or _simplex_pair(s, target)
    p_dc = np.clip(p_dc, 0.0, None)
    matrix = StochasticMatrix(p_dc / p_dc.sum(axis=0, keepdims=True))
    residual = swap_residual(matrix.entries, s, p_db.entries)
    if residual <= tol:
        return SwapLPResult(feasible=True, matrix=matrix, residual=residual, tolerance=tol)
    bound = _dual_bound(w, s, target)
    if not bound > tol:
        raise RuntimeError(
            f"LP solver failed: residual {residual:.3e} above tolerance, "
            f"but the dual bound {bound:.3e} does not prove it"
        )
    return SwapLPResult(
        feasible=False, matrix=None, residual=residual, tolerance=tol, dual_bound=bound
    )


def coarse_grained_dc_ansatz(
    p_db: StochasticMatrix, cg: CoarseGraining
) -> StochasticMatrix:
    """The unique ``P_dc`` with ``M . P_db = P_dc . M`` for a coarse graining ``M``.

    ``M`` has full row rank, so column ``r`` of ``P_dc`` is forced to be the
    mean of the columns of ``M . P_db`` that ``M`` merges into ``r``.  A
    solution exists iff those columns agree (to ``1e-12``); otherwise raises
    ``ValueError`` naming the column of ``M . P_db`` farthest from its mean.
    """
    if cg.shape[1] != p_db.shape[0] or p_db.shape[0] != p_db.shape[1]:
        raise ValueError("coarse graining does not match the dark-count map")
    m = cg.entries
    merged = m @ p_db.entries
    p_dc = (merged @ m.T) / m.sum(axis=1)
    gaps = np.abs(merged - p_dc @ m).max(axis=0)
    worst = int(gaps.argmax())
    if gaps[worst] > _ENTRY_TOL:
        raise ValueError(
            f"no swap solution for this coarse graining: column {worst} of M P_db is "
            f"{gaps[worst]:.3e} from the mean of the columns merged with it"
        )
    return StochasticMatrix(p_dc)


def bb84_qubit_squasher() -> StochasticMatrix:
    """Post-processing of the two-detector BB84 squasher, per basis.

    Maps a double click to a uniformly random single click in the same
    basis; no-click and single clicks pass through.  Built once per
    process, and read-only.
    """
    return _bb84_qubit_squasher()


@functools.cache
def _bb84_qubit_squasher() -> StochasticMatrix:
    entries = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.5],
        ]
    )
    squasher = StochasticMatrix(entries)
    squasher.entries.flags.writeable = False
    return squasher


def bb84_squashed_dark_matrix(d: float) -> StochasticMatrix:
    """The forced dark-count map on squashed BB84 outcomes at equal rates.

    This is the unique solution of the swap equation for the two-detector
    qubit squasher when both dark count rates equal ``d``.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("dark rate must lie in [0, 1]")
    entries = np.array(
        [
            [(1.0 - d) ** 2, 0.0, 0.0],
            [d * (1.0 - d / 2.0), 1.0 - d / 2.0, d / 2.0],
            [d * (1.0 - d / 2.0), d / 2.0, 1.0 - d / 2.0],
        ]
    )
    return StochasticMatrix(entries)
