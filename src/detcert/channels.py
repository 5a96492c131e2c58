"""Noise channels that absorb detector imperfections, and their certification.

Each construction realizes the statement "the imperfect measurement equals a
noise channel followed by the ideal measurement": dark counts are pushed
into a measure-and-reprepare branch on the one-photon block, unequal
efficiencies into a probabilistic split of the loss post-processing, and a
generic deviation ``q`` into a branch that surrenders part of the preserved
state to the flags.  The ideal measurement is a flag-state target: a
``POVM`` whose layout ends in a ``flag`` block, element ``i`` carrying the
flag ``|i><i|`` exactly.  A construction checks that, and that clicks never
outnumber photons, then reads operator blocks off the measurement's dense
stack with the block projectors of its layout.

A channel is held as its Choi matrix ``J``, the sum of the Choi matrices of
the completely positive terms of its construction; application,
composition (the link product) and every certificate read ``J``.  A
certificate checks one of two things: that ``J`` is CPTP (Hermitian, PSD,
``Tr_out J = I``), or an operator identity
``Phi^dag(F_after_i) = sum_j P_ij F_before_j`` in the Heisenberg picture.
``ChoiConstraintSystem`` holds those identities, trace preservation last,
and is the one kernel that scores them, for the statistics checks here and
for the feasibility probe and its witness and Farkas checks.  The identity
is compared entry by entry, so it holds for every input operator,
off-block-diagonal ones included, rather than on sampled states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .detectors import POVM, EventTable, verify_single_photon_assumption
from .fock import FLAG_LABEL, SpaceLayout, photon_label
from .postprocessing import StochasticMatrix, single_photon_loss_matrix, validate_dark_count_pp
from .squashing import eta_star_range

_M0 = photon_label(0)
_M1 = photon_label(1)
_FLAG_TOL = 1e-12

# Choi tensors carry indices ``[a, i, b, j] = <a i| J |b j>``: input, output,
# input, output.  The Choi matrix is the same array reshaped to two indices.


@dataclass(frozen=True)
class _KeepBlocks:
    """CP term ``rho -> weight * P rho P`` for a block projector ``P``."""

    weight: float
    projector: np.ndarray

    def choi(self) -> np.ndarray:
        """``weight |v><v|`` with ``v = sum_a |a> (x) P|a>``."""
        v = np.asarray(self.projector, dtype=complex).T.ravel()
        return self.weight * np.outer(v, v.conj())


@dataclass(frozen=True)
class _MeasurePrepare:
    """CP term ``rho -> sum_i Tr[op_i rho] prep_i`` (weights live in preps).

    ``ops`` and ``preps`` are equally long stacks of dense operators.
    """

    ops: np.ndarray
    preps: np.ndarray

    def choi(self) -> np.ndarray:
        return _transpose_kron_sum(np.asarray(self.ops), np.asarray(self.preps))


def _transpose_kron_sum(ops: np.ndarray, preps: np.ndarray) -> np.ndarray:
    """Choi matrix ``sum_k ops_k^T (x) preps_k`` of ``rho -> sum_k Tr[ops_k rho] preps_k``.

    Transpose, not adjoint: ops may be complex.  It is also the adjoint of
    ``J -> (Phi_J^dag(preps_k))_k`` applied to the stack ``ops``.
    """
    n, d_in, _ = ops.shape
    d_out = preps.shape[-1]
    flat = ops.transpose(0, 2, 1).reshape(n, -1).T @ preps.reshape(n, -1)
    tensor = flat.reshape(d_in, d_in, d_out, d_out).transpose(0, 2, 1, 3)
    return tensor.reshape(d_in * d_out, d_in * d_out)


def _link(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Link product: the Choi tensor of ``outer`` applied after ``inner``."""
    return np.einsum("aibj,ikjl->akbl", inner, outer, optimize=True)


class QuantumChannel:
    """Linear map between two block layouts, held as its Choi matrix.

    ``terms`` lists completely positive terms whose sum is the channel.  The
    Choi matrix is assembled from the terms on first use and cached;
    ``from_choi`` and ``compose`` set it directly.
    """

    __slots__ = ("input_layout", "output_layout", "terms", "_choi")

    def __init__(self, input_layout: SpaceLayout, output_layout: SpaceLayout, terms):
        self.input_layout = input_layout
        self.output_layout = output_layout
        self.terms = tuple(terms)
        self._choi = None

    @property
    def choi(self) -> np.ndarray:
        """Choi matrix ``sum_ab |a><b| (x) Phi(|a><b|)`` (input factor first)."""
        if self._choi is None:
            self._choi = sum(term.choi() for term in self.terms)
        return self._choi

    def _tensor(self) -> np.ndarray:
        d_in, d_out = self.input_layout.total_dim, self.output_layout.total_dim
        return self.choi.reshape(d_in, d_out, d_in, d_out)

    def apply_dense(self, mat: np.ndarray) -> np.ndarray:
        return np.einsum("ab,aibj->ij", np.asarray(mat, dtype=complex), self._tensor())

    @classmethod
    def from_choi(cls, choi, input_layout: SpaceLayout, output_layout: SpaceLayout):
        j = np.asarray(choi, dtype=complex)
        d = input_layout.total_dim * output_layout.total_dim
        if j.shape != (d, d):
            raise ValueError("Choi matrix shape does not match the layouts")
        channel = cls(input_layout, output_layout, ())
        channel._choi = j
        return channel


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """The channel applying ``inner`` first and ``outer`` second."""
    if inner.output_layout != outer.input_layout:
        raise ValueError("layouts do not chain")
    d = inner.input_layout.total_dim * outer.output_layout.total_dim
    j = _link(inner._tensor(), outer._tensor()).reshape(d, d)
    return QuantumChannel.from_choi(j, inner.input_layout, outer.output_layout)


def _diagonal_states(d: int, positions, coeffs) -> np.ndarray:
    """Stack of diagonal operators, entry ``r`` being ``sum_i coeffs[r, i] |p_i><p_i|``.

    ``p_i`` is the basis vector at index ``positions[i]`` of the ``d``-dimensional space.
    """
    coeffs = np.asarray(coeffs)
    states = np.zeros((len(coeffs), d, d), dtype=complex)
    states[:, positions, positions] = coeffs
    return states


def bb84_simple_noise_channel(d: float) -> QuantumChannel:
    """Dark-count noise channel for lossless active BB84 on vacuum + qubit.

    With equal dark rate ``d`` in both detectors the channel keeps the qubit
    with probability ``1 - d`` and otherwise depolarizes it, while the
    vacuum is re-prepared as ``(1-d)^2`` vacuum plus ``d (1 - d/2)`` times
    the maximally mixed qubit (times 2, as an unnormalized projector).
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("dark rate must lie in [0, 1]")
    layout = SpaceLayout(((_M0, 1), (_M1, 2)))
    vac = layout.projector(_M0)
    qubit_proj = layout.projector(_M1)
    vac_branch = _MeasurePrepare(
        ops=(vac,),
        preps=((1.0 - d) ** 2 * vac + d * (1.0 - d / 2.0) * qubit_proj,),
    )
    keep_qubit = _KeepBlocks(weight=1.0 - d, projector=qubit_proj)
    depolarize = _MeasurePrepare(ops=(qubit_proj,), preps=((d / 2.0) * qubit_proj,))
    return QuantumChannel(layout, layout, (vac_branch, keep_qubit, depolarize))


def bb84_qubit_measurement(basis: str) -> POVM:
    """Squashed BB84 measurement on vacuum + qubit for one basis choice."""
    layout = SpaceLayout(((_M0, 1), (_M1, 2)))
    if basis == "Z":
        kets = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    elif basis == "X":
        s = 1.0 / math.sqrt(2.0)
        kets = (np.array([s, s]), np.array([s, -s]))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    dense = np.zeros((3, 3, 3), dtype=complex)
    dense[0, 0, 0] = 1.0
    for i, ket in enumerate(kets, start=1):
        dense[i, 1:, 1:] = np.outer(ket, ket.conj())
    events = EventTable(
        k=2,
        labels=("no-click", f"{basis}0", f"{basis}1"),
        classes=("no-click", "single", "single"),
        masks=(),
    )
    return POVM(layout, dense, events)


def _require_exact_flags(povm: POVM, role: str):
    """``povm`` must have a flag block, and element ``i`` the flag block ``|i><i|``."""
    if povm.layout.has(FLAG_LABEL):
        n = len(povm)
        s = povm.layout.slice_of(FLAG_LABEL)
        want = np.zeros((n, n, n))
        idx = np.arange(n)
        want[idx, idx, idx] = 1.0
        if np.abs(povm.dense[:, s, s] - want).max() <= _FLAG_TOL:
            return
    raise ValueError(f"{role} measurement must have exact flag states")


def _require_one_photon_target(povm: POVM):
    """A flag-state target on vacuum + one photon in which clicks never outnumber photons."""
    if povm.layout.photon_labels != (_M0, _M1):
        raise ValueError(f"need blocks (m=0, m=1, flag), got {povm.layout.labels}")
    _require_exact_flags(povm, "target")
    report = verify_single_photon_assumption(povm)
    if not report.passed:
        label, block, weight = report.violations[0]
        raise ValueError(
            f"clicks outnumber photons: element {label!r} has weight {weight:.3e} "
            f"on block {block}"
        )


def dark_count_channel(p_db: StochasticMatrix, f_eta: POVM) -> QuantumChannel:
    """Noise channel absorbing independent dark counts.

    On the one-photon block the channel acts as the identity with
    probability ``P[0|0]`` and otherwise measures with the flag-state
    target ``f_eta`` and prepares a classical flag mixture whose
    coefficients reproduce the dark-count statistics.  The vacuum doubles
    as the no-click flag: a vacuum input stays vacuum unless a dark count
    fires, while flag inputs are post-processed with ``p_db`` entirely
    inside the flag block, so no weight re-enters the preserved blocks.
    """
    _require_one_photon_target(f_eta)
    events = f_eta.events
    n = len(f_eta)
    if p_db.shape != (n, n):
        raise ValueError(f"dark-count map shape {p_db.shape} does not match {n} events")
    report = validate_dark_count_pp(p_db, events)
    if not report.passed:
        raise ValueError(f"dark-count conditions violated: {report}")

    layout = f_eta.layout
    d = layout.total_dim
    p = p_db.entries
    p00 = float(p[0, 0])
    multis = list(events.multi_indices)
    # Diagonal position of each event's flag state, and of the state that
    # records it when raised from the preserved blocks (the vacuum for no-click).
    flags = layout.offset(FLAG_LABEL) + np.arange(n)
    raised = flags.copy()
    raised[0] = layout.offset(_M0)
    proj0, proj1, proj_flag = (layout.projector(lab) for lab in (_M0, _M1, FLAG_LABEL))

    terms = [_KeepBlocks(weight=p00, projector=proj1)]

    if p00 < 1.0:
        # Measure the one-photon block and flag the outcome.  Outcome j
        # prepares column j of P less the p00 kept coherently, a mixture of
        # trace 1 - P[0|0], so the branch weight is built in.
        measured = [j for j in range(n) if j not in multis]
        coeffs = p.T[measured] - p00 * np.eye(n)[measured]
        ops = proj1 @ f_eta.dense[measured] @ proj1
        terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, raised, coeffs)))

    # Vacuum sector: outcome 0 keeps the vacuum, dark counts raise flags.
    ops = proj0 @ f_eta.dense @ proj0
    terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, raised, p.T)))

    # Flag sector: post-process the recorded outcome, staying in flag space.
    ops = proj_flag @ f_eta.dense @ proj_flag
    terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, flags, p.T)))

    return QuantumChannel(layout, layout, terms)


def loss_split_matrix(eta, eta_star: float) -> StochasticMatrix:
    """The residual loss map in the split ``P_eta = r P_eta* + (1-r) Q``.

    ``r = eta_min / eta_star``; the returned ``Q`` keeps single click ``s``
    with probability ``eta_star (eta_s - eta_min) / (eta_star - eta_min)``.
    Entries stay in [0, 1] exactly when ``eta_star`` is admissible
    (:func:`eta_star_range`, to ``1e-12`` as in :func:`loss_channel`); near
    its lower end the ill-conditioned keep probability is clipped to 1.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    eta_min = float(eta.min())
    if eta_star <= eta_min:
        raise ValueError("the split needs eta_star above eta_min")
    lo, _ = eta_star_range(eta_min, float(eta.max()))
    if eta_star < lo - 1e-12:
        raise ValueError(f"eta_star {eta_star} is below the admissible range [{lo}, 1.0]")
    keep = eta_star * (eta - eta_min) / (eta_star - eta_min)
    return single_photon_loss_matrix(np.clip(keep, 0.0, 1.0))


def loss_channel(eta, eta_star: float, f_lossless: POVM) -> QuantumChannel:
    """Noise channel trading unequal efficiencies for a common ``eta_star``.

    Vacuum and flags pass through; the one-photon block survives with
    probability ``eta_min / eta_star`` and is otherwise measured with the
    residual-loss POVM and flagged.  ``f_lossless`` is the flag-state target
    of the unit-efficiency setup.
    """
    _require_one_photon_target(f_lossless)
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not ((eta > 0) & (eta <= 1)).all():  # NaN fails too
        raise ValueError("efficiencies must lie in (0, 1]")
    lo, hi = eta_star_range(float(eta.min()), float(eta.max()))
    if not lo - 1e-12 <= eta_star <= hi + 1e-12:
        raise ValueError(
            f"eta_star {eta_star} outside the admissible range [{lo}, {hi}]"
        )
    layout = f_lossless.layout
    events = f_lossless.events
    k = eta.size
    if len(events.single_indices) != k:
        raise ValueError("efficiency vector does not match the single-click events")
    ratio = float(eta.min()) / eta_star
    proj1 = layout.projector(_M1)

    terms = [
        _KeepBlocks(weight=1.0, projector=layout.projector(_M0)),
        _KeepBlocks(weight=min(ratio, 1.0), projector=proj1),
        _KeepBlocks(weight=1.0, projector=layout.projector(FLAG_LABEL)),
    ]
    if ratio < 1.0 - 1e-15:
        q = loss_split_matrix(eta, eta_star).entries
        carriers = [0, *events.single_indices]
        ops = np.tensordot(q, proj1 @ f_lossless.dense[carriers] @ proj1, axes=1)
        flags = layout.offset(FLAG_LABEL) + np.array(carriers)
        preps = _diagonal_states(layout.total_dim, flags, (1.0 - ratio) * np.eye(len(carriers)))
        terms.append(_MeasurePrepare(ops=ops, preps=preps))

    return QuantumChannel(layout, layout, terms)


def _deviation(f_noise: POVM, f_ideal: POVM, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The stack ``F_noise_i - (1-q) F_ideal_i`` and the smallest eigenvalue of each."""
    gap = f_noise.dense - (1.0 - q) * f_ideal.dense
    return gap, np.linalg.eigvalsh(gap)[:, 0]


def generic_channel(f_noise: POVM, f_ideal: POVM, q: float) -> QuantumChannel:
    """Noise channel for an arbitrary deviation ``q`` between two targets.

    Requires every ``F_noise_i - (1-q) F_ideal_i`` to be PSD (tolerance
    1e-9); the excess defines a POVM that the channel measures on the
    preserved blocks, surrendering weight ``q`` to the flags.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if f_noise.layout != f_ideal.layout:
        raise ValueError("the two measurements live on different layouts")
    if len(f_noise) != len(f_ideal):
        raise ValueError("element count mismatch")
    _require_exact_flags(f_ideal, "the ideal")
    gap, lows = _deviation(f_noise, f_ideal, q)
    bad = np.flatnonzero(lows < -1e-9)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"element {i} violates the deviation bound: "
            f"smallest eigenvalue {lows[i]:.3e} at q={q}"
        )

    layout = f_ideal.layout
    n = len(f_ideal)
    preserved = layout.projector(layout.photon_labels)
    terms = [
        _KeepBlocks(weight=1.0 - q, projector=preserved),
        _KeepBlocks(weight=1.0, projector=layout.projector(FLAG_LABEL)),
    ]
    if q > 1e-15:
        ops = preserved @ (gap * (1.0 / q)) @ preserved
        flags = layout.offset(FLAG_LABEL) + np.arange(n)
        preps = _diagonal_states(layout.total_dim, flags, q * np.eye(n))
        terms.append(_MeasurePrepare(ops=ops, preps=preps))
    return QuantumChannel(layout, layout, terms)


def min_deviation_q(
    f_noise: POVM,
    f_ideal: POVM,
    psd_tol: float = 1e-9,
    width: float = 1e-10,
) -> float:
    """Smallest deviation ``q`` admissible between two measurements.

    Bisects the monotone predicate "every ``F_noise_i - (1-q) F_ideal_i``
    is PSD at tolerance ``psd_tol``" down to an interval of ``width``.
    """
    if f_noise.layout != f_ideal.layout or len(f_noise) != len(f_ideal):
        raise ValueError("measurements do not match")

    def admissible(q: float) -> bool:
        return bool((_deviation(f_noise, f_ideal, q)[1] >= -psd_tol).all())

    if admissible(0.0):
        return 0.0
    if not admissible(1.0):
        warnings.warn(
            "no q <= 1 satisfies the deviation bound; the noisy measurement "
            "has a support deficit (reporting q = 1)",
            stacklevel=2,
        )
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > width:
        mid = (lo + hi) / 2.0
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def inf_norm_mixing(f_noise: POVM, delta: float) -> POVM:
    """Mix uniform noise into a measurement to absorb an operator-norm error.

    Returns ``(F_i + delta I) / (1 + n delta)`` over the ``n`` elements.  If
    every ``F_i`` is within ``delta`` of an ideal element in operator norm,
    the result dominates ``F_ideal / (1 + n delta)`` elementwise.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    n = len(f_noise)
    scale = 1.0 / (1.0 + n * delta)
    ident = np.eye(f_noise.layout.total_dim)
    return POVM(f_noise.layout, scale * f_noise.dense + (delta * scale) * ident, f_noise.events)


def _component_min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian ``h``, one connected component at a time.

    The components of the graph of ``h``'s exact nonzero pattern permute
    ``h`` into a block diagonal, so its spectrum is the union of theirs:
    exact, with no tolerance.  Labels propagate the smallest index over
    the edges, with pointer jumping, until every component carries its
    smallest index; then one batched ``eigvalsh`` runs per component size.
    A non-finite ``h`` has no smallest eigenvalue: NaN.
    """
    if not np.isfinite(h).all():
        return math.nan
    n = len(h)
    edges = h != 0
    lab = np.arange(n)
    while True:
        new = np.where(edges, lab, n).min(axis=1)
        np.minimum(new, lab, out=new)
        new = new[new]
        if (new == lab).all():
            break
        lab = new
    sizes = np.bincount(lab, minlength=n)
    lows = []
    for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        roots = np.flatnonzero(sizes == size)
        idx = np.nonzero(lab[None, :] == roots[:, None])[1].reshape(-1, size)
        lows.append(np.linalg.eigvalsh(h[idx[:, :, None], idx[:, None, :]])[:, 0])
    return float(np.concatenate(lows).min())


def _psd_residuals(j: np.ndarray) -> tuple[float, float]:
    """Hermiticity deviation of ``J`` and the smallest eigenvalue of its Hermitian part."""
    j_h = j.conj().T
    herm = float(np.abs(j - j_h).max())
    return herm, _component_min_eigenvalue((j + j_h) / 2.0)


def _heisenberg(j: np.ndarray, d_in: int, d_out: int, ops: np.ndarray) -> np.ndarray:
    """``Phi_J^dag(F)`` for each ``F`` of the stack ``ops``.

    ``<b|Phi^dag(F)|a> = Tr[F Phi(|a><b|)]``, one matrix product with ``J``.
    """
    t = j.reshape(d_in, d_out, d_in, d_out).transpose(3, 1, 2, 0).reshape(d_out * d_out, -1)
    return (ops.reshape(len(ops), -1) @ t).reshape(-1, d_in, d_in)


def _hermitian_part(diff: np.ndarray) -> np.ndarray:
    """``(D + D^dag) / 2`` per matrix of a stack, Hermitian to the bit."""
    return (diff + diff.conj().transpose(0, 2, 1)) / 2.0


def _hermitian_score(herm: np.ndarray) -> np.ndarray:
    """Per matrix ``D`` of a Hermitian stack: ``max(|D_aa|, 2|Re D_ab|, 2|Im D_ab|)``.

    For ``D`` the Hermitian part of ``Phi^dag(F) - G`` this is the largest
    mismatch ``|Tr[F Phi(rho)] - Tr[G rho]|`` over the Hermitian matrix-unit
    basis ``rho``, which spans every input operator.
    """
    weight = 2.0 - np.eye(herm.shape[-1])
    entry = np.maximum(np.abs(herm.real), np.abs(herm.imag)) * weight
    return entry.max(axis=(1, 2))


class ChoiConstraintSystem:
    """The identities ``Phi_J^dag(F_k) = G_k`` on a candidate Choi matrix ``J``.

    Built from a post-processing ``p`` and the measurements before and after
    the channel: ``F_k = F_after_k`` and ``G_k = sum_j P_kj F_before_j``.
    ``p`` is ``None`` (identity), a ``StochasticMatrix`` or an array of shape
    ``(len(f_after), len(f_before))``; a ``POVM`` contributes its ``dense``
    stack, anything else is taken as a stack of dense operators.  The stacks
    ``ops`` and ``targets`` hold the ``n`` events and, last, trace
    preservation as ``F = I_out``, ``G = I_in``.  The map
    ``J -> (Phi_J^dag(F_k))_k`` has adjoint ``Y -> sum_k Y_k^T (x) F_k``.

    A target ``G_k`` with ``<a|G_k|a> = 0`` for PSD ``F_k`` is the
    homogeneous constraint ``Tr[(|a><a| (x) F_k) J] = 0``, which forces any
    PSD solution onto a face of the cone (``J`` supported in the kernel of
    ``|a><a| (x) F_k``), extracted on first use: without it every feasible
    point sits on the cone boundary, where the dual has no minimiser.
    """

    def __init__(self, p, f_before, f_after):
        before, after = (
            f.dense if isinstance(f, POVM) else np.asarray(f, dtype=complex)
            for f in (f_before, f_after)
        )
        if p is None:
            p_mat = np.eye(len(after))
        elif isinstance(p, StochasticMatrix):
            p_mat = p.entries
        else:
            p_mat = np.asarray(p, dtype=float)
        if p_mat.shape != (len(after), len(before)):
            raise ValueError(
                f"post-processing shape {p_mat.shape} does not map "
                f"{len(before)} -> {len(after)} events"
            )
        targets = np.tensordot(p_mat, before, axes=1)
        self.d_in, self.d_out = targets.shape[-1], after.shape[-1]
        self.dim = self.d_in * self.d_out
        self.ops = np.concatenate([after, np.eye(self.d_out)[None]])
        self.targets = np.concatenate([targets, np.eye(self.d_in)[None]])

    @cached_property
    def face_basis(self) -> np.ndarray:
        """Orthonormal basis of the joint kernel of the homogeneous PSD constraints."""
        after, targets = self.ops[:-1], self.targets[:-1]
        psd = np.linalg.eigvalsh(after)[:, 0] > -1e-12
        zero = (np.abs(np.diagonal(targets, axis1=1, axis2=2)) < 1e-14) & psd[:, None]
        face = np.zeros((self.dim, self.dim), dtype=complex)
        for pairs, f_k in zip(zero, after):
            face += np.kron(np.diag(pairs), f_k)
        vals, vecs = np.linalg.eigh(face)
        return vecs[:, vals <= 1e-12 * max(1.0, float(vals[-1]))]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """``sum_k Y_k^T (x) F_k`` for a stack ``y`` shaped like ``targets``, as a Choi matrix."""
        return _transpose_kron_sum(y, self.ops)

    def defect(self, j: np.ndarray) -> np.ndarray:
        """Hermitian parts of ``Phi_J^dag(F_k) - G_k``, trace preservation last."""
        return _hermitian_part(_heisenberg(j, self.d_in, self.d_out, self.ops) - self.targets)

    def residuals(self, j: np.ndarray) -> np.ndarray:
        """Per-identity score of :meth:`defect`: the worst mismatch over a Hermitian input basis."""
        return _hermitian_score(self.defect(j))

    def project_face_psd(self, mat: np.ndarray) -> np.ndarray:
        """Project onto the PSD matrices supported on the feasible face."""
        u = self.face_basis
        compressed = u.conj().T @ mat @ u
        vals, vecs = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
        w = u @ vecs
        return (w * np.maximum(vals, 0.0)) @ w.conj().T


@dataclass(frozen=True)
class CPTPReport:
    """Choi-level certificate that a channel is CPTP at a tolerance."""

    min_choi_eigenvalue: float
    trace_preservation_dev: float
    hermiticity_dev: float
    tolerance: float
    passed: bool

    @property
    def residual(self) -> float:
        """The largest of the three violations, NaN if any is; ``passed`` iff within tolerance."""
        violations = (-self.min_choi_eigenvalue, self.trace_preservation_dev, self.hermiticity_dev)
        return float(np.max((0.0, *violations)))


def verify_cptp(ch: QuantumChannel, tol: float) -> CPTPReport:
    """Check that ``J`` is PSD and ``Phi_J^dag(I_out) = I_in``, scored as kernel identities."""
    d_in, d_out = ch.input_layout.total_dim, ch.output_layout.total_dim
    herm, min_eig = _psd_residuals(ch.choi)
    defect = _heisenberg(ch.choi, d_in, d_out, np.eye(d_out)[None]) - np.eye(d_in)
    tp_dev = float(_hermitian_score(_hermitian_part(defect))[0])
    return CPTPReport(
        min_choi_eigenvalue=min_eig,
        trace_preservation_dev=tp_dev,
        hermiticity_dev=herm,
        tolerance=tol,
        passed=min_eig >= -tol and tp_dev <= tol and herm <= tol,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case statistics mismatch over the whole input operator space."""

    max_residual: float
    per_event: tuple[float, ...]
    tolerance: float
    passed: bool


def verify_statistics_equivalence(
    p, f_before, f_after, ch: QuantumChannel, tol: float = 1e-9
) -> EquivalenceReport:
    """Certify ``P Tr[F_before rho] = Tr[F_after Phi(rho)]`` for every ``rho``.

    Checked as the Heisenberg-picture identity
    ``Phi^dag(F_after_i) = sum_j P_ij F_before_j`` on the Choi matrix; the
    per-event residual is the worst mismatch over a Hermitian basis of the
    channel input, off-diagonal pairs included, so passing here extends to
    every density matrix by linearity.
    """
    system = ChoiConstraintSystem(p, f_before, f_after)
    dims = (ch.input_layout.total_dim, ch.output_layout.total_dim)
    if (system.d_in, system.d_out) != dims:
        raise ValueError(
            f"measurements act on dimensions {(system.d_in, system.d_out)} "
            f"but the channel maps {dims[0]} -> {dims[1]}"
        )
    worst = system.residuals(ch.choi)[:-1]
    max_res = float(worst.max())
    return EquivalenceReport(
        max_residual=max_res,
        per_event=tuple(float(w) for w in worst),
        tolerance=tol,
        passed=max_res <= tol,
    )
