"""Noise channels that absorb detector imperfections, and their certification.

Each construction realizes the statement "the imperfect measurement equals a
noise channel followed by the ideal measurement": dark counts are pushed
into a measure-and-reprepare branch on the one-photon block, unequal
efficiencies into a probabilistic split of the loss post-processing, and a
generic deviation ``q`` into a branch that surrenders part of the preserved
state to the flags.  The ideal measurement is a flag-state target: a
``POVM`` whose layout ends in a ``flag`` block, element ``i`` carrying the
flag ``|i><i|`` exactly.  The public builders check that; the dark-count
and loss builders also check that clicks never outnumber photons, and the
generic builder that each excess is PSD to within its inputs.  The
constructions read operator blocks off the measurement's dense stack with
the block projectors of its layout.  The dark-count and loss builders act
at one point; the generic builder takes a stack of noisy measurements (one
per efficiency corner) to the stack of channels, one term formula for all
of them, and the analysis builds every corner's channel in that one call.

A channel is a sum of completely positive terms, and its Choi matrix ``J``
is held on its support (``ChoiSupport``): the positions the term formulas
can make nonzero, with the values there summed over the terms.  A
keep-blocks term lives on the nonzeros of ``vec(P)``, a measure-prepare
term on the products of its measured and prepared entries.  A stack of
channels on one layout holds one support, one row of values per stack
entry; the dense ``J`` is built only on request, for application and
composition (the link product).  A certificate checks one of two things:
that ``J`` is CPTP (Hermitian, PSD, ``Tr_out J = I``), or an operator
identity ``Phi^dag(F_after_i) = sum_j P_ij F_before_j`` in the Heisenberg
picture.  ``ChoiConstraintSystem`` holds those identities, trace
preservation last, and ``certify_choi`` decides every verdict on them:
``ChoiSupport`` scores the identities for every channel of its stack in one
contraction over the support, and takes the smallest eigenvalue one
connected component of the support at a time.  The CPTP and statistics
checks here, the analysis, and the feasibility probe's witness check all
call it; one channel is its one-row case.  The identity is compared entry
by entry, so it holds for every input operator, off-block-diagonal ones
included, rather than on sampled states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .detectors import POVM, _dtype, _hermitian_part, _require_unit, _Verdict, active_bb84_setups
from .detectors import build_threshold_povm, verify_single_photon_assumption
from .fock import FLAG_LABEL, SpaceLayout, _kept, photon_label
from .postprocessing import StochasticMatrix, _single_photon_loss_entries, validate_dark_count_pp
from .postprocessing import apply_postprocessing, bb84_qubit_squasher
from .squashing import check_eta_star, eta_star_range

_M0 = photon_label(0)
_M1 = photon_label(1)
_FLAG_TOL = 1e-12

# A Choi matrix has rows and columns ``(a, i)`` (input, output), flattened
# to ``a * d_out + i``; a position on it is ``row * dim + col``.


@dataclass(frozen=True)
class _KeepBlocks:
    """CP term ``rho -> weight * P rho P`` for a block projector ``P`` and a number ``weight``."""

    weight: float
    projector: np.ndarray

    def entries(self, d_in: int, d_out: int):
        """``weight |v><v|``, ``v = sum_a |a> (x) P|a>``, on the nonzeros of ``v``.

        Returns the positions and the values, shaped ``(1, nnz)``.
        """
        keys, outer = _keep_support(np.asarray(self.projector))
        return keys, (self.weight * outer)[None]


@_kept(maxsize=32)
def _keep_support(projector: np.ndarray):
    """Positions and values of ``|v><v|`` for one projector, kept for reuse (:func:`~detcert.fock._kept`)."""
    v = projector.T.ravel()
    nz = np.flatnonzero(v)
    return (nz[:, None] * v.size + nz).ravel(), (v[nz, None] * v[nz].conj()).ravel()


@dataclass(frozen=True)
class _MeasurePrepare:
    """CP term ``rho -> sum_k Tr[op_k rho] prep_k`` (weights live in ops and preps).

    ``ops`` ``(..., n, d_in, d_in)`` and ``preps`` ``(..., n, d_out, d_out)``
    are equally long stacks of dense operators; either may lead with a
    stack axis.
    """

    ops: np.ndarray
    preps: np.ndarray

    def entries(self, d_in: int, d_out: int):
        """``J[(a, i), (b, j)] = sum_k ops_k[b, a] preps_k[i, j]`` (transpose, not adjoint).

        Its support is every ``(a, b)`` some ``ops_k[b, a]`` and every
        ``(i, j)`` some ``preps_k[i, j]`` makes nonzero, paired.  Returns the
        positions and the values, shaped ``(depth or 1, nnz)``.
        """
        ops, preps = np.asarray(self.ops), np.asarray(self.preps)
        n = ops.shape[-3]
        flat_ops = ops.reshape(-1, n, d_in * d_in)  # entry b * d_in + a is ops_k[b, a]
        flat_preps = preps.reshape(-1, n, d_out * d_out)
        ba = np.flatnonzero(flat_ops.any(axis=(0, 1)))
        ij = np.flatnonzero(flat_preps.any(axis=(0, 1)))
        b, a = np.divmod(ba, d_in)
        i, j = np.divmod(ij, d_out)
        keys = np.ravel_multi_index((a[:, None], i, b[:, None], j), (d_in, d_out, d_in, d_out))
        values = flat_ops[:, :, ba].swapaxes(1, 2) @ flat_preps[:, :, ij]
        return keys.ravel(), values.reshape(len(values), -1)


class _Pattern:
    """The structure of one support: where each entry sits and what it feeds.

    Built from the concatenated positions of a support's parts, in order;
    ``keys`` are the distinct positions closed under transposition, sorted
    by the Heisenberg target ``(b, a)`` of the row ``(a, i)`` and column
    ``(b, j)``, then by position, and ``slot`` places each given position
    among them.  A pure function of its arguments, so one instance serves
    every support with the same positions (:func:`_pattern`).
    """

    def __init__(self, d_in: int, d_out: int, positions: np.ndarray):
        self.d_in, self.d_out = d_in, d_out
        self.dim = dim = d_in * d_out
        keys = np.concatenate([positions, positions % dim * dim + positions // dim])
        # One sort by (target, position) merges repeats and groups targets.
        order = np.argsort(self._target(keys) * dim * dim + keys, kind="stable")
        ordered = keys[order]
        new = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        slot = np.empty(len(keys), dtype=np.intp)
        slot[order] = np.cumsum(new) - 1
        self.slot = slot[: len(positions)]
        self.keys = ordered[new]
        self.rows, self.cols = np.divmod(self.keys, dim)
        mirrors = self.cols * dim + self.rows
        self.mirror = np.searchsorted(
            self._target(self.keys) * dim * dim + self.keys, self._target(mirrors) * dim * dim + mirrors
        )
        # Heisenberg picture: entry ((a, i), (b, j)) adds J F[j, i] to <b|Phi^dag(F)|a>.
        self.gather = self.cols % d_out * d_out + self.rows % d_out
        target = self._target(self.keys)
        firsts = np.ones(len(target), dtype=bool)
        np.not_equal(target[1:], target[:-1], out=firsts[1:])
        self.starts = np.flatnonzero(firsts)
        self.targets = target[self.starts]

    def _target(self, keys: np.ndarray) -> np.ndarray:
        """Flat index ``b * d_in + a`` in ``Phi^dag(F)`` that the position ``((a, i), (b, j))`` feeds."""
        rows, cols = np.divmod(keys, self.dim)
        return cols // self.d_out * self.d_in + rows // self.d_out

    @cached_property
    def components(self):
        """The support's connected components, grouped by size.

        Permuting the indices component by component turns every matrix on
        the support into a block diagonal, whose spectrum is the union of
        its blocks': exact, with no tolerance.  An index outside the support
        is a zero row, eigenvalue 0.  Labels propagate the smallest index
        over the entries, with pointer jumping, until each component carries
        its smallest index.  Returns whether a zero row exists, and per size
        ``(entries, component slot, local row, local column, count, size)``.
        """
        rows, cols = self.rows, self.cols
        label = np.arange(self.dim)
        while True:
            new = label.copy()
            np.minimum.at(new, rows, label[cols])
            new = new[new]
            if (new == label).all():
                break
            label = new
        nodes = np.zeros(self.dim, dtype=bool)
        nodes[rows] = True
        nodes = np.flatnonzero(nodes)
        size_of = np.bincount(label[nodes], minlength=self.dim)[label]
        nodes = nodes[np.argsort((size_of[nodes] * self.dim + label[nodes]) * self.dim + nodes, kind="stable")]
        root = label[nodes]
        firsts = np.ones(len(nodes), dtype=bool)
        np.not_equal(root[1:], root[:-1], out=firsts[1:])
        comp = np.cumsum(firsts) - 1
        starts = np.flatnonzero(firsts)
        comp_of = np.empty(self.dim, dtype=np.intp)
        comp_of[nodes] = comp
        local = np.empty(self.dim, dtype=np.intp)
        local[nodes] = np.arange(len(nodes)) - starts[comp]
        sizes = size_of[nodes[starts]]
        edges = np.flatnonzero(np.diff(sizes, prepend=-1))
        entry_comp = comp_of[rows]
        groups = []
        for lo, hi in zip(edges, np.r_[edges[1:], len(sizes)]):
            entries = np.flatnonzero((entry_comp >= lo) & (entry_comp < hi))
            groups.append((
                entries, entry_comp[entries] - lo, local[rows[entries]], local[cols[entries]],
                hi - lo, int(sizes[lo]),
            ))
        return len(nodes) < self.dim, groups


_pattern = _kept(maxsize=16)(_Pattern)  # one per (d_in, d_out, positions)


class ChoiSupport:
    """A stack of Choi matrices held as their values on one support.

    ``keys`` are positions ``row * dim + col``, closed under transposition;
    ``values`` is ``(depth, nnz)``, one row per Choi matrix, and entries off
    the support are zero.  Built from ``parts``, ``(positions, values)``
    pairs whose values are ``(depth or 1, nnz)``, broadcast over the stack,
    repeated positions summed in order (no position repeats within one
    part); the depth is the longest values'.  The
    structure of the positions (:class:`_Pattern`) depends on them alone,
    and supports with the same positions share it.  ``values`` take the
    dtype of :func:`_dtype` over the parts' values: real terms give a
    float64 stack, and one complex part a complex128 one.
    """

    def __init__(self, d_in: int, d_out: int, parts):
        self.d_in, self.d_out, self.dim = d_in, d_out, d_in * d_out
        positions = np.concatenate([k for k, _ in parts] + [np.zeros(0, dtype=np.intp)])
        self._pattern = _pattern(d_in, d_out, positions)
        self.keys = self._pattern.keys
        depth = max([len(v) for _, v in parts], default=1)
        self.values = np.zeros((depth, len(self.keys)), dtype=_dtype(*[v for _, v in parts]))
        start = 0
        for k, v in parts:
            self.values[:, self._pattern.slot[start : start + len(k)]] += v
            start += len(k)

    @classmethod
    def from_dense(cls, choi, d_in: int, d_out: int) -> "ChoiSupport":
        """A dense Choi matrix, or a stack of them, on the union of their nonzeros."""
        stack = np.asarray(choi, dtype=_dtype(choi)).reshape(-1, (d_in * d_out) ** 2)
        keys = np.flatnonzero((stack != 0).any(axis=0))
        return cls(d_in, d_out, [(keys, stack[:, keys])])

    def dense(self) -> np.ndarray:
        """The ``(depth, dim, dim)`` dense Choi matrices, complex128 whatever the values' dtype.

        The dense matrix is for application, composition and witnesses, whose
        callers may add complex entries to a real channel's matrix.
        """
        out = np.zeros((len(self.values), self.dim * self.dim), dtype=complex)
        out[:, self.keys] = self.values
        return out.reshape(-1, self.dim, self.dim)

    def heisenberg(self, ops: np.ndarray) -> np.ndarray:
        """``Phi_J^dag(F)`` for each ``F`` of ``ops`` ``(..., K, d_out, d_out)``, per Choi matrix.

        ``<b|Phi^dag(F)|a> = Tr[F Phi(|a><b|)] = sum_ij F[j, i] J[(a, i), (b, j)]``,
        gathered over the support: ``(depth, K, d_in, d_in)``.
        """
        ops, pattern = np.asarray(ops), self._pattern
        terms = ops.reshape(*ops.shape[:-2], -1).take(pattern.gather, axis=-1) * self.values[:, None, :]
        out = np.zeros((len(self.values), ops.shape[-3], self.d_in * self.d_in), dtype=terms.dtype)
        if len(self.keys):
            out[..., pattern.targets] = np.add.reduceat(terms, pattern.starts, axis=-1)
        return out.reshape(*out.shape[:-1], self.d_in, self.d_in)

    def residuals(self, ops: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per Choi matrix and identity ``Phi^dag(F_k) = G_k``, the worst mismatch over a Hermitian input basis.

        ``ops`` and ``targets`` stack the ``F_k`` and ``G_k`` along their
        third-last axis and broadcast over the stack: ``(depth, K)``.
        """
        return _hermitian_score(_hermitian_part(self.heisenberg(ops) - targets))

    def psd_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per Choi matrix: ``max |J - J^dag|`` and the smallest eigenvalue of ``(J + J^dag)/2``.

        The smallest eigenvalue is taken per connected component of the
        support (exact: see :attr:`_Pattern.components`), one ``eigvalsh``
        batched over the stack and the components of each size, a lone
        diagonal entry included (LAPACK returns a 1 x 1 block's real part
        as is); a non-finite matrix has none, NaN.
        """
        # The blocks are complex Hermitian even for a real stack: LAPACK's
        # real and complex solvers round differently, and a matrix must keep
        # its eigenvalue bit for bit whether or not a complex stack-mate
        # (an injected fault, say) makes the stack complex.
        mirrored = np.conj(self.values.take(self._pattern.mirror, axis=1))
        herm = np.abs(self.values - mirrored).max(axis=1, initial=0.0)
        h = (self.values + mirrored) / 2.0
        finite = np.isfinite(h).all(axis=1)
        h = np.where(finite[:, None], h, 0.0)
        zero_row, groups = self._pattern.components
        low = np.full(len(h), 0.0 if zero_row else np.inf)
        for entries, slot, row, col, count, size in groups:
            blocks = np.zeros((len(h), count, size, size), dtype=complex)
            blocks[:, slot, row, col] = h.take(entries, axis=1)
            np.minimum(low, np.linalg.eigvalsh(blocks)[..., 0].min(axis=1), out=low)
        return herm, np.where(finite, low, math.nan)


def _link(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Link product: the Choi tensor of ``outer`` applied after ``inner``."""
    return np.einsum("aibj,ikjl->akbl", inner, outer, optimize=True)


class QuantumChannel:
    """Linear map between two block layouts: a sum of completely positive terms.

    A term may lead with a stack axis; the object is then a stack of
    channels on one layout, one per stack entry.  The Choi matrices are
    held on their support (:class:`ChoiSupport`), assembled from the terms
    on first use and cached; ``from_choi`` and ``compose`` set it from a
    dense matrix.
    """

    __slots__ = ("input_layout", "output_layout", "terms", "_support")

    def __init__(self, input_layout: SpaceLayout, output_layout: SpaceLayout, terms):
        self.input_layout = input_layout
        self.output_layout = output_layout
        self.terms = tuple(terms)
        self._support = None

    @property
    def support(self) -> ChoiSupport:
        if self._support is None:
            d_in, d_out = self.input_layout.total_dim, self.output_layout.total_dim
            self._support = ChoiSupport(d_in, d_out, [term.entries(d_in, d_out) for term in self.terms])
        return self._support

    @property
    def choi(self) -> np.ndarray:
        """Dense Choi matrix ``sum_ab |a><b| (x) Phi(|a><b|)`` (input factor first), built on request.

        A stack of channels gives the ``(depth, dim, dim)`` stack.
        """
        dense = self.support.dense()
        return dense[0] if len(dense) == 1 else dense

    def _tensor(self) -> np.ndarray:
        d_in, d_out = self.input_layout.total_dim, self.output_layout.total_dim
        return self.choi.reshape(d_in, d_out, d_in, d_out)

    def apply_dense(self, mat: np.ndarray) -> np.ndarray:
        return np.einsum("ab,aibj->ij", np.asarray(mat, dtype=complex), self._tensor())

    @classmethod
    def from_choi(cls, choi, input_layout: SpaceLayout, output_layout: SpaceLayout):
        """The channel with Choi matrix ``choi``, or the stack of channels of a ``(depth, dim, dim)`` stack."""
        j = np.asarray(choi)
        d_in, d_out = input_layout.total_dim, output_layout.total_dim
        if j.shape[-2:] != (d_in * d_out,) * 2 or j.ndim not in (2, 3):
            raise ValueError("Choi matrix shape does not match the layouts")
        channel = cls(input_layout, output_layout, ())
        channel._support = ChoiSupport.from_dense(j, d_in, d_out)
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
    states = np.zeros((len(coeffs), d, d), dtype=_dtype(coeffs))
    states[:, positions, positions] = coeffs
    return states


def bb84_simple_noise_channel(d: float) -> QuantumChannel:
    """Dark-count noise channel for lossless active BB84 on vacuum + qubit.

    With equal dark rate ``d`` in both detectors the channel keeps the qubit
    with probability ``1 - d`` and otherwise depolarizes it, while the
    vacuum is re-prepared as ``(1-d)^2`` vacuum plus ``d (1 - d/2)`` times
    the maximally mixed qubit (times 2, as an unnormalized projector).
    """
    _require_unit(d, "dark rate")
    layout = _bb84_measurements()["Z"].layout  # vacuum + qubit
    vac = layout.projector(_M0)
    qubit_proj = layout.projector(_M1)
    # Measure vacuum or qubit: re-prepare the vacuum, or depolarize.
    reprepare = _MeasurePrepare(
        ops=np.array([vac, qubit_proj]),
        preps=np.array([(1.0 - d) ** 2 * vac + d * (1.0 - d / 2.0) * qubit_proj, (d / 2.0) * qubit_proj]),
    )
    keep_qubit = _KeepBlocks(weight=1.0 - d, projector=qubit_proj)
    return QuantumChannel(layout, layout, (reprepare, keep_qubit))


@_kept(maxsize=1)
def _bb84_measurements() -> dict[str, POVM]:
    """Both bases' squashed measurements, on one vacuum + qubit layout."""
    squasher = bb84_qubit_squasher()
    return {b: apply_postprocessing(squasher, build_threshold_povm(s, 1)) for b, s in active_bb84_setups().items()}


def bb84_qubit_measurement(basis: str) -> POVM:
    """The squashed BB84 measurement of one basis: the squasher on its cutoff-1 threshold POVM, kept on first use."""
    if basis not in ("Z", "X"):
        raise ValueError(f"unknown basis {basis!r}")
    return _bb84_measurements()[basis]


def _require_exact_flags(povm: POVM, role: str):
    """``povm`` must have a flag block, and element ``i`` the flag block ``|i><i|``."""
    if povm.layout.has(FLAG_LABEL):
        n = len(povm)
        s = povm.layout.slice_of(FLAG_LABEL)
        want = np.zeros((n, n, n))
        idx = np.arange(n)
        want[idx, idx, idx] = 1.0
        if np.abs(povm.dense[..., s, s] - want).max() <= _FLAG_TOL:
            return
    raise ValueError(f"{role} measurement must have exact flag states")


def _require_one_photon_target(povm: POVM):
    """One flag-state target on vacuum + one photon in which clicks never outnumber photons."""
    if povm.layout.photon_labels != (_M0, _M1):
        raise ValueError(f"need blocks (m=0, m=1, flag), got {povm.layout.labels}")
    _require_exact_flags(povm, "target")
    report = verify_single_photon_assumption(povm)  # refuses a stack
    if not report.passed:
        label, block, weight = report.violations[0]
        raise ValueError(
            f"clicks outnumber photons: element {label!r} has weight {weight:.3e} "
            f"on block {block}"
        )


def _block_of(stack: np.ndarray, layout: SpaceLayout, label: str) -> np.ndarray:
    """``P F P`` for each ``F`` of a stack, ``P`` the projector onto block ``label``."""
    out = np.zeros_like(stack)
    s = layout.slice_of(label)
    out[..., s, s] = stack[..., s, s]
    return out


def dark_count_channel(p_db: StochasticMatrix, f_eta: POVM) -> QuantumChannel:
    """Noise channel absorbing independent dark counts.

    On the one-photon block the channel acts as the identity with
    probability ``P[0|0]`` and otherwise measures with the flag-state
    target ``f_eta`` and prepares a classical flag mixture whose
    coefficients reproduce the dark-count statistics.  The vacuum doubles
    as the no-click flag: a vacuum input stays vacuum unless a dark count
    fires, while flag inputs are post-processed with ``p_db`` entirely
    inside the flag block, so no weight re-enters the preserved blocks.
    ``f_eta`` is one measurement; a stack of them is refused.
    """
    _require_one_photon_target(f_eta)
    report = validate_dark_count_pp(p_db, f_eta.events)
    if not report.passed:
        raise ValueError(f"dark-count conditions violated: {report}")
    n = len(f_eta)
    layout = f_eta.layout
    d = layout.total_dim
    p = p_db.entries
    p00 = float(p[0, 0])
    multis = list(f_eta.events.multi_indices)
    # Diagonal position of each event's flag state, and of the state that
    # records it when raised from the preserved blocks (the vacuum for no-click).
    flags = layout.offset(FLAG_LABEL) + np.arange(n)
    raised = flags.copy()
    raised[0] = layout.offset(_M0)

    terms = [_KeepBlocks(weight=p00, projector=layout.projector(_M1))]

    if p00 < 1.0:
        # Measure the one-photon block and flag the outcome.  Outcome j
        # prepares column j of P less the p00 kept coherently, a mixture of
        # trace 1 - P[0|0], so the branch weight is built in.
        measured = [j for j in range(n) if j not in multis]
        coeffs = p.T[measured] - p00 * np.eye(n)[measured]
        ops = _block_of(f_eta.dense[measured], layout, _M1)
        terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, raised, coeffs)))

    # Vacuum sector: outcome 0 keeps the vacuum, dark counts raise flags.
    ops = _block_of(f_eta.dense, layout, _M0)
    terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, raised, p.T)))

    # Flag sector: post-process the recorded outcome, staying in flag space.
    ops = _block_of(f_eta.dense, layout, FLAG_LABEL)
    terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, flags, p.T)))

    return QuantumChannel(layout, layout, terms)


def _loss_split_entries(eta: np.ndarray, eta_star: float) -> np.ndarray:
    """Entries of ``Q`` for an efficiency vector ``eta`` with ``eta_min < eta_star``.

    ``Q`` is the residual loss map of ``P_eta = r P_eta* + (1-r) Q``, ``r = eta_min / eta_star``:
    it keeps single click ``s`` with probability ``eta_star (eta_s - eta_min) / (eta_star - eta_min)``,
    in ``[0, 1]`` for an admissible ``eta_star`` (:func:`check_eta_star`) and clipped to 1 where that
    ill-conditioned probability rounds above it, near the lower end.
    """
    eta_min = eta.min()
    # Divided by (eta_star - eta_min) / eta_star, which lies in (0, 1], not
    # multiplied by eta_star first, which underflows at subnormal
    # efficiencies; at eta_star = 1 the two agree bit for bit.
    keep = (eta - eta_min) / ((eta_star - eta_min) / eta_star)
    return _single_photon_loss_entries(np.clip(keep, 0.0, 1.0))


def loss_channel(eta, eta_star: float, f_lossless: POVM) -> QuantumChannel:
    """Noise channel trading unequal efficiencies for a common ``eta_star``.

    Vacuum and flags pass through; the one-photon block survives with
    probability ``eta_min / eta_star`` and is otherwise measured with the
    residual-loss POVM and flagged, a branch absent where ``eta_min / eta_star``
    reaches 1.  ``f_lossless`` is the flag-state target of the
    unit-efficiency setup.  ``eta`` is one efficiency vector; a stack of
    them is refused.
    """
    _require_one_photon_target(f_lossless)
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.ndim != 1:
        raise ValueError(f"loss_channel takes one efficiency vector, not a stack of shape {eta.shape}")
    check_eta_star(eta, eta_star, eta_star_range(eta.min(), eta.max()))  # NaN fails there
    if len(f_lossless.events.single_indices) != len(eta):
        raise ValueError("efficiency vector does not match the single-click events")
    layout = f_lossless.layout
    ratio = eta.min() / eta_star

    terms = [
        _KeepBlocks(weight=1.0, projector=layout.projector(_M0)),
        _KeepBlocks(weight=ratio, projector=layout.projector(_M1)),
        _KeepBlocks(weight=1.0, projector=layout.projector(FLAG_LABEL)),
    ]
    if ratio < 1.0:
        carriers = [0, *f_lossless.events.single_indices]
        m = len(carriers)
        q = _loss_split_entries(eta, eta_star)
        blocks = _block_of(f_lossless.dense[carriers], layout, _M1)
        # The branch weight 1 - ratio goes into the measurement.
        ops = (q @ blocks.reshape(m, -1)).reshape(blocks.shape) * (1.0 - ratio)
        flags = layout.offset(FLAG_LABEL) + np.array(carriers)
        preps = _diagonal_states(layout.total_dim, flags, np.eye(m))
        terms.append(_MeasurePrepare(ops=ops, preps=preps))

    return QuantumChannel(layout, layout, terms)


def _require_matching(f_noise: POVM, f_ideal: POVM):
    """Two measurements on one layout and event table size; ``f_noise`` may be a stack, ``f_ideal`` not."""
    if f_noise.layout != f_ideal.layout or len(f_noise) != len(f_ideal):
        raise ValueError("measurements do not match")
    if f_ideal.stacked:
        raise ValueError("a deviation compares two measurements, not stacks of them")


def _rounding_radius(noise: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Per element, ``r_i = d eps (|F_noise_i|_F + |F_ideal_i|_F)`` in dimension ``d``.

    The backward error of forming and eigensolving ``F_noise_i - (1-q) F_ideal_i``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002): every
    deviation decision reads an eigenvalue against it.  ``noise`` may lead
    with stack axes.
    """
    norms = np.linalg.norm(noise, axis=(-2, -1)) + np.linalg.norm(ideal, axis=(-2, -1))
    return ideal.shape[-1] * np.finfo(float).eps * norms


def _deviation_bound(noise: np.ndarray, ideal: np.ndarray):
    """Per entry of a stack ``noise`` ``(..., n, d, d)``: the ``q`` admitted against ``ideal``, and a support deficit.

    The largest ``t`` with ``N = F_noise_i >= t F_ideal_i`` is
    ``1 / lambda_max(N^{-1/2} F_ideal_i N^{-1/2})`` on the support of ``N``,
    and 0 when ``F_ideal_i`` leaks off that support (Horn and Johnson,
    *Matrix Analysis*, 2nd ed., section 7.7).  So ``q* = 1 - min_i t_i``,
    rounded up by the entry's largest radius ``r_i`` (:func:`_rounding_radius`)
    and at most 1: 1 on a support deficit, exactly 0 for an entry equal to
    ``ideal``.  The support reads the same radius: an eigenvalue of ``N`` at
    or below ``r_i + s(N)``, ``s`` its shortfall from PSD, is off it, and a
    leak is an off-support compression of ``F_ideal_i`` above ``r_i``.
    """
    vals, vecs = np.linalg.eigh(noise)
    radius = _rounding_radius(noise, ideal)
    support = vals > (radius + np.maximum(0.0, -vals[..., 0]))[..., None]
    # Eigenvectors v_j of N: as v_j / sqrt(lambda_j) on its support (0 off it), and off it.
    whitened = vecs * np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)[..., None, :]
    off = vecs * ~support[..., None, :]
    leak = np.abs(off.conj().swapaxes(-1, -2) @ ideal @ off).max(axis=(-2, -1)) > radius
    lmax = np.linalg.eigvalsh(whitened.conj().swapaxes(-1, -2) @ ideal @ whitened)[..., -1].max(axis=-1)
    same = (noise == ideal).all(axis=(-3, -2, -1))  # no eigensolve to round
    deficit = leak.any(axis=-1) & ~same
    with np.errstate(divide="ignore"):  # lmax = 0 only where F_ideal lives off the support: a deficit
        rounded = np.minimum(1.0, np.clip(1.0 - 1.0 / lmax, 0.0, 1.0) + radius.max(axis=-1))
    return np.where(deficit, 1.0, np.where(same, 0.0, rounded)), deficit


def generic_channel(f_noise: POVM, f_ideal: POVM, q: float) -> QuantumChannel:
    """Noise channel for an arbitrary deviation ``q`` between two targets.

    Admits ``q`` exactly when every excess ``E_i = F_noise_i - (1-q) F_ideal_i``
    has ``lambda_min(E_i) >= -r_i - s(F_noise_i) - (1-q) s(F_ideal_i)``: the
    rounding radius of :func:`_rounding_radius`, and by Weyl's inequality the
    shortfall ``s(F) = max(0, -lambda_min(F))`` of an element that
    :class:`POVM` accepts as PSD to its tolerance, computed only if the radius
    alone rejects.  The channel measures the excess on the preserved blocks,
    surrendering weight ``q`` to the flags.  A stacked ``f_noise`` gives the
    stack of channels; a rejection names the ``q*`` that
    :func:`min_deviation_q` returns, which it admits.
    """
    _require_unit(q, "q")
    _require_exact_flags(f_ideal, "the ideal")
    _require_matching(f_noise, f_ideal)
    noise, ideal = f_noise.dense, f_ideal.dense
    excess = noise - (1.0 - q) * ideal
    low = np.linalg.eigvalsh(excess)[..., 0]
    radius = _rounding_radius(noise, ideal)
    if (low < -radius).any():
        short_noise, short_ideal = (np.maximum(0.0, -np.linalg.eigvalsh(a)[..., 0]) for a in (noise, ideal))
        radius = radius + short_noise + (1.0 - q) * short_ideal
    if (low < -radius).any():
        q_star = float(_deviation_bound(noise, ideal)[0].max())
        raise ValueError(f"q={q} violates the deviation bound q*={q_star!r}")
    layout = f_ideal.layout
    n = len(f_ideal)
    preserved = layout.projector(layout.photon_labels)
    # Measure the excess, of total weight q, on the preserved blocks and raise flag i.
    flags = _diagonal_states(layout.total_dim, layout.offset(FLAG_LABEL) + np.arange(n), np.eye(n))
    return QuantumChannel(layout, layout, (
        _KeepBlocks(weight=1.0 - q, projector=preserved),
        _KeepBlocks(weight=1.0, projector=layout.projector(FLAG_LABEL)),
        _MeasurePrepare(ops=preserved @ excess @ preserved, preps=flags),
    ))


def min_deviation_q(f_noise: POVM, f_ideal: POVM) -> float:
    """Smallest deviation ``q`` admissible between two measurements, in closed form.

    Takes what :func:`generic_channel` takes, ``f_noise`` possibly a stack:
    the largest over its entries of the ``q`` of :func:`_deviation_bound`, so
    :func:`generic_channel` admits it.  An entry equal to ``f_ideal`` gives
    exactly 0; a support deficit warns and gives 1.
    """
    _require_matching(f_noise, f_ideal)
    q, deficit = _deviation_bound(f_noise.dense, f_ideal.dense)
    if deficit.any():
        warnings.warn(
            "no q < 1 satisfies the deviation bound; the noisy measurement "
            "has a support deficit (reporting q = 1)",
            stacklevel=2,
        )
    return float(q.max())


def inf_norm_mixing(f_noise: POVM, delta: float) -> POVM:
    """Mix uniform noise into a measurement to absorb an operator-norm error.

    Returns ``(F_i + delta I) / (1 + n delta)`` over the ``n`` elements.  If
    every ``F_i`` is within ``delta`` of an ideal element in operator norm,
    the result dominates ``F_ideal / (1 + n delta)`` elementwise.
    """
    if not 0 <= delta < np.inf:  # NaN fails too
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    n = len(f_noise)
    scale = 1.0 / (1.0 + n * delta)
    ident = np.eye(f_noise.layout.total_dim)
    return POVM(f_noise.layout, scale * f_noise.dense + (delta * scale) * ident, f_noise.events)


def _hermitian_score(herm: np.ndarray) -> np.ndarray:
    """Per matrix ``D`` of a Hermitian stack: ``max(|D_aa|, 2|Re D_ab|, 2|Im D_ab|)``.

    For ``D`` the Hermitian part of ``Phi^dag(F) - G`` this is the largest
    mismatch ``|Tr[F Phi(rho)] - Tr[G rho]|`` over the Hermitian matrix-unit
    basis ``rho``, which spans every input operator.
    """
    entry = np.maximum(np.abs(herm.real), np.abs(herm.imag)) * (2.0 - np.eye(herm.shape[-1]))
    return entry.max(axis=(-2, -1))


class ChoiConstraintSystem:
    """The identities ``Phi_J^dag(F_k) = G_k`` on a candidate Choi matrix ``J``.

    Built from ``(p, f_before, f_after)`` triples, one per group of
    identities, in order: a post-processing ``p`` and the measurements
    before and after the channel give ``F_k = F_after_k`` and
    ``G_k = sum_j P_kj F_before_j``.  ``p`` is ``None`` (identity), a
    ``StochasticMatrix`` or an array of shape ``(len(f_after), len(f_before))``;
    a ``POVM`` contributes its ``dense`` stack, anything else is taken as a
    stack of dense operators.  Any of them may lead with a stack axis (one
    system per channel of a stack), and the others broadcast to it.  The
    stacks ``ops`` and ``targets`` hold the identities of every triple and,
    once, last, trace preservation as ``F = I_out``, ``G = I_in``.  The maps on
    ``J`` are the kernel's: ``ChoiSupport.heisenberg`` gives ``Phi_J^dag(F_k)``,
    and ``_MeasurePrepare(ops=Y, preps=ops)`` its adjoint ``sum_k Y_k^T (x) F_k``.
    """

    def __init__(self, *identities):
        afters, targets = [], []
        for p, f_before, f_after in identities:
            before, after = [
                f.dense if isinstance(f, POVM) else np.asarray(f, dtype=_dtype(f))
                for f in (f_before, f_after)
            ]
            n_before, n_after = before.shape[-3], after.shape[-3]
            if p is None:
                p_mat = np.eye(n_after)
            elif isinstance(p, StochasticMatrix):
                p_mat = p.entries
            else:
                p_mat = np.asarray(p, dtype=float)
            if p_mat.shape[-2:] != (n_after, n_before):
                raise ValueError(
                    f"post-processing shape {p_mat.shape} does not map "
                    f"{n_before} -> {n_after} events"
                )
            target = p_mat @ before.reshape(*before.shape[:-2], before.shape[-2] * before.shape[-1])
            afters.append(after)
            targets.append(target.reshape(*target.shape[:-1], *before.shape[-2:]))
        self.d_in, self.d_out = targets[0].shape[-1], afters[0].shape[-1]
        self.dim = self.d_in * self.d_out
        lead = max((a.shape[:-3] for a in afters + targets), key=len)
        self.ops, self.targets = [
            np.concatenate([np.broadcast_to(a, (*lead, *a.shape[-3:])) for a in (*stacks, np.eye(d)[None])], axis=-3)
            for stacks, d in ((afters, self.d_out), (targets, self.d_in))
        ]


@dataclass(frozen=True)
class CPTPReport(_Verdict):
    """Choi-level certificate that a channel is CPTP at a tolerance."""

    min_choi_eigenvalue: float
    trace_preservation_dev: float
    hermiticity_dev: float
    tolerance: float

    @property
    def residual(self) -> float:
        """The largest of the three violations and 0, NaN if any is."""
        values = (0.0, -self.min_choi_eigenvalue, self.trace_preservation_dev, self.hermiticity_dev)
        return float(max(values)) if all(v == v for v in values) else math.nan


def certify_choi(
    choi: ChoiSupport, system: ChoiConstraintSystem, tol: float
) -> tuple[list[CPTPReport], np.ndarray]:
    """Every verdict on the Choi matrices of ``choi``: CPTP and the identities of ``system``.

    ``system`` holds one set of identities, or one per Choi matrix, trace
    preservation last.  One component eigensolve and one contraction over
    the support give, per Choi matrix, its :class:`CPTPReport` (trace
    preservation included) and the residuals of the other identities.
    """
    if (system.d_in, system.d_out) != (choi.d_in, choi.d_out):
        raise ValueError(
            f"measurements act on dimensions {(system.d_in, system.d_out)} "
            f"but the channel maps {choi.d_in} -> {choi.d_out}"
        )
    scores = choi.residuals(system.ops, system.targets)
    herm, low = choi.psd_residuals()
    reports = [
        CPTPReport(min_choi_eigenvalue=lo, trace_preservation_dev=tp, hermiticity_dev=h, tolerance=tol)
        for lo, tp, h in zip(low.tolist(), scores[:, -1].tolist(), herm.tolist())
    ]
    return reports, scores[:, :-1]


def _certify_one(ch: QuantumChannel, system: ChoiConstraintSystem, tol: float):
    """:func:`certify_choi` on a single channel: its report and its identity residuals."""
    reports, residuals = certify_choi(ch.support, system, tol)
    if len(reports) != 1:
        raise ValueError(f"a stack of {len(reports)} channels: certify it with certify_choi")
    return reports[0], residuals[0]


def verify_cptp(ch: QuantumChannel, tol: float) -> CPTPReport:
    """Check that ``J`` is PSD and ``Phi_J^dag(I_out) = I_in``: :func:`certify_choi` with no other identity."""
    d_in, d_out = ch.input_layout.total_dim, ch.output_layout.total_dim
    trace_only = ChoiConstraintSystem((None, np.zeros((0, d_in, d_in)), np.zeros((0, d_out, d_out))))
    return _certify_one(ch, trace_only, tol)[0]


@dataclass(frozen=True)
class EquivalenceReport(_Verdict):
    """Worst-case statistics mismatch over the whole input operator space."""

    max_residual: float
    per_event: tuple[float, ...]
    tolerance: float

    @property
    def residual(self) -> float:
        return self.max_residual


def verify_statistics_equivalence(
    p, f_before, f_after, ch: QuantumChannel, tol: float = 1e-9
) -> EquivalenceReport:
    """Certify ``P Tr[F_before rho] = Tr[F_after Phi(rho)]`` for every ``rho``.

    Checked as the Heisenberg-picture identity
    ``Phi^dag(F_after_i) = sum_j P_ij F_before_j`` on the Choi matrix
    (:func:`certify_choi`); the per-event residual is the worst mismatch
    over a Hermitian basis of the channel input, off-diagonal pairs
    included, so passing here extends to every density matrix by linearity.
    """
    worst = _certify_one(ch, ChoiConstraintSystem((p, f_before, f_after)), tol)[1]
    return EquivalenceReport(max_residual=float(worst.max()), per_event=tuple(worst.tolist()), tolerance=tol)
