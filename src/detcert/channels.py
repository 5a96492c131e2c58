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
stack with the block projectors of its layout.  The dark-count and loss
constructions take a stack of measurements or efficiency vectors (one per
efficiency corner) and return the stack of channels, one term formula for
all of them.

A channel is a sum of completely positive terms, and its Choi matrix ``J``
is held on its support (``ChoiSupport``): the positions the term formulas
can make nonzero, with the values there summed over the terms.  A
keep-blocks term lives on the nonzeros of ``vec(P)``, a measure-prepare
term on the products of its measured and prepared entries.  Channels on
one layout, stacks included, can share one support, one row of values per
channel; the dense ``J`` is built only on request, for application and
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

import functools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .detectors import POVM, EventTable, _Verdict, verify_single_photon_assumption
from .fock import FLAG_LABEL, SpaceLayout, photon_label
from .postprocessing import StochasticMatrix, _single_photon_loss_entries, validate_dark_count_pp
from .squashing import check_eta_star

_M0 = photon_label(0)
_M1 = photon_label(1)
_BB84_LAYOUT = SpaceLayout(((_M0, 1), (_M1, 2)))  # vacuum + qubit
_FLAG_TOL = 1e-12
# min_deviation_q's closed form is rounded up by this; every larger q is admissible.
_DEVIATION_RADIUS = 1e-12
# An eigenvalue of F_noise_i at or below this is off its support.
_SUPPORT_TOL = 1e-12

# A Choi matrix has rows and columns ``(a, i)`` (input, output), flattened
# to ``a * d_out + i``; a position on it is ``row * dim + col``.


@dataclass(frozen=True)
class _KeepBlocks:
    """CP term ``rho -> weight * P rho P`` for a block projector ``P``.

    ``weight`` is a number, or one number per stack entry.
    """

    weight: float
    projector: np.ndarray

    def entries(self, d_in: int, d_out: int):
        """``weight |v><v|``, ``v = sum_a |a> (x) P|a>``, on the nonzeros of ``v``.

        Returns the positions and the values, shaped ``(depth or 1, nnz)``.
        """
        v = np.asarray(self.projector).T.ravel()
        nz = np.flatnonzero(v)
        keys = (nz[:, None] * v.size + nz).ravel()
        outer = (v[nz, None] * v[nz].conj()).ravel()
        return keys, np.multiply.outer(np.atleast_1d(self.weight), outer)


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
        for shared in (self.slot, self.keys, self.rows, self.cols, self.mirror, self.gather,
                       self.starts, self.targets):
            shared.flags.writeable = False

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


@functools.lru_cache(maxsize=16)
def _pattern(d_in: int, d_out: int, positions: bytes) -> _Pattern:
    """The :class:`_Pattern` of the positions given as the bytes of an ``intp`` array, kept for reuse."""
    return _Pattern(d_in, d_out, np.frombuffer(positions, dtype=np.intp))


class ChoiSupport:
    """A stack of Choi matrices held as their values on one support.

    ``keys`` are positions ``row * dim + col``, closed under transposition;
    ``values`` is ``(depth, nnz)``, one row per Choi matrix, and entries off
    the support are zero.  Built from ``parts``, ``(stack rows, positions,
    values)`` triples whose values broadcast to their rows, repeated
    positions summed in order (no position repeats within one part).  The
    structure of the positions (:class:`_Pattern`) depends on them alone,
    and supports with the same positions share it.
    """

    def __init__(self, d_in: int, d_out: int, depth: int, parts):
        self.d_in, self.d_out, self.dim = d_in, d_out, d_in * d_out
        positions = np.concatenate([k for _, k, _ in parts] + [np.zeros(0, dtype=np.intp)])
        self._pattern = _pattern(d_in, d_out, positions.astype(np.intp).tobytes())
        self.keys = self._pattern.keys
        self.values = np.zeros((depth, len(self.keys)), dtype=complex)
        start = 0
        for stack_rows, k, v in parts:
            self.values[stack_rows, self._pattern.slot[start : start + len(k)]] += v
            start += len(k)

    @classmethod
    def of(cls, channels) -> "ChoiSupport":
        """The Choi matrices of ``channels`` (stacks included), in order, on the union of their supports."""
        first, parts, depth = channels[0], [], 0
        for ch in channels:
            if (ch.input_layout, ch.output_layout) != (first.input_layout, first.output_layout):
                raise ValueError("channels on one support must share their layouts")
            entries = ch._entries()
            n = max([len(v) for _, v in entries], default=1)
            parts += [(slice(depth, depth + n), k, v) for k, v in entries]
            depth += n
        return cls(first.input_layout.total_dim, first.output_layout.total_dim, depth, parts)

    @classmethod
    def from_dense(cls, choi, d_in: int, d_out: int) -> "ChoiSupport":
        """A dense Choi matrix, or a stack of them, on the union of their nonzeros."""
        stack = np.asarray(choi, dtype=complex).reshape(-1, (d_in * d_out) ** 2)
        keys = np.flatnonzero((stack != 0).any(axis=0))
        return cls(d_in, d_out, len(stack), [(slice(None), keys, stack[:, keys])])

    def dense(self) -> np.ndarray:
        """The ``(depth, dim, dim)`` dense Choi matrices."""
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
        out = np.zeros((len(self.values), ops.shape[-3], self.d_in * self.d_in), dtype=complex)
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
        support (exact: see :attr:`_Pattern.components`), batched over the
        stack and over the components of one size; a non-finite matrix has
        none, NaN.
        """
        mirrored = np.conj(self.values.take(self._pattern.mirror, axis=1))
        herm = np.abs(self.values - mirrored).max(axis=1, initial=0.0)
        h = (self.values + mirrored) / 2.0
        finite = np.isfinite(h).all(axis=1)
        if not finite.all():
            h[~finite] = 0.0
        zero_row, groups = self._pattern.components
        low = np.full(len(h), 0.0 if zero_row else np.inf)
        for entries, slot, row, col, count, size in groups:
            if size == 1:  # a lone diagonal entry
                lows = h.take(entries, axis=1).real.min(axis=1)
            else:
                blocks = np.zeros((len(h), count, size, size), dtype=complex)
                blocks[:, slot, row, col] = h.take(entries, axis=1)
                lows = np.linalg.eigvalsh(blocks)[..., 0].min(axis=1)
            np.minimum(low, lows, out=low)
        if not finite.all():
            low[~finite] = math.nan
        return herm, low


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
            self._support = ChoiSupport.of([self])
        return self._support

    def _entries(self):
        """``(positions, values)`` of each term, or of the support once it is set."""
        if self._support is not None:
            return [(self._support.keys, self._support.values)]
        d_in, d_out = self.input_layout.total_dim, self.output_layout.total_dim
        return [term.entries(d_in, d_out) for term in self.terms]

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
        j = np.asarray(choi, dtype=complex)
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
    layout = _BB84_LAYOUT
    vac = layout.projector(_M0)
    qubit_proj = layout.projector(_M1)
    # Measure vacuum or qubit: re-prepare the vacuum, or depolarize.
    reprepare = _MeasurePrepare(
        ops=np.array([vac, qubit_proj]),
        preps=np.array([(1.0 - d) ** 2 * vac + d * (1.0 - d / 2.0) * qubit_proj, (d / 2.0) * qubit_proj]),
    )
    keep_qubit = _KeepBlocks(weight=1.0 - d, projector=qubit_proj)
    return QuantumChannel(layout, layout, (reprepare, keep_qubit))


def bb84_qubit_measurement(basis: str) -> POVM:
    """Squashed BB84 measurement on vacuum + qubit for one basis choice, built once per process."""
    if basis not in ("Z", "X"):
        raise ValueError(f"unknown basis {basis!r}")
    return _bb84_measurement(basis)


@functools.cache
def _bb84_measurement(basis: str) -> POVM:
    s = 1.0 / math.sqrt(2.0)
    kets = {"Z": (np.array([1.0, 0.0]), np.array([0.0, 1.0])), "X": (np.array([s, s]), np.array([s, -s]))}
    dense = np.zeros((3, 3, 3), dtype=complex)
    dense[0, 0, 0] = 1.0
    for i, ket in enumerate(kets[basis], start=1):
        dense[i, 1:, 1:] = np.outer(ket, ket.conj())
    events = EventTable(
        k=2,
        labels=("no-click", f"{basis}0", f"{basis}1"),
        classes=("no-click", "single", "single"),
        masks=(),
    )
    return POVM(_BB84_LAYOUT, dense, events)


def _require_exact_flags(povm: POVM, role: str):
    """``povm`` must have a flag block, and element ``i`` the flag block ``|i><i|`` (every stack entry)."""
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
    """A flag-state target on vacuum + one photon in which clicks never outnumber photons."""
    if povm.layout.photon_labels != (_M0, _M1):
        raise ValueError(f"need blocks (m=0, m=1, flag), got {povm.layout.labels}")
    _require_exact_flags(povm, "target")
    reports = verify_single_photon_assumption(povm)
    for report in reports if povm.stacked else (reports,):
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
    A stacked ``f_eta`` gives the stack of channels; ``p_db`` and the
    preparations are shared, so they are built and validated once.
    """
    _require_one_photon_target(f_eta)
    events = f_eta.events
    n = len(f_eta)
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

    terms = [_KeepBlocks(weight=p00, projector=layout.projector(_M1))]

    if p00 < 1.0:
        # Measure the one-photon block and flag the outcome.  Outcome j
        # prepares column j of P less the p00 kept coherently, a mixture of
        # trace 1 - P[0|0], so the branch weight is built in.
        measured = [j for j in range(n) if j not in multis]
        coeffs = p.T[measured] - p00 * np.eye(n)[measured]
        ops = _block_of(f_eta.dense[..., measured, :, :], layout, _M1)
        terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, raised, coeffs)))

    # Vacuum sector: outcome 0 keeps the vacuum, dark counts raise flags.
    ops = _block_of(f_eta.dense, layout, _M0)
    terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, raised, p.T)))

    # Flag sector: post-process the recorded outcome, staying in flag space.
    ops = _block_of(f_eta.dense, layout, FLAG_LABEL)
    terms.append(_MeasurePrepare(ops=ops, preps=_diagonal_states(d, flags, p.T)))

    return QuantumChannel(layout, layout, terms)


def _loss_split_entries(eta: np.ndarray, eta_star: float) -> np.ndarray:
    """Entries of ``Q`` for each efficiency vector of a stack ``(..., k)`` with ``eta_min < eta_star``."""
    eta_min = eta.min(axis=-1, keepdims=True)
    keep = eta_star * (eta - eta_min) / (eta_star - eta_min)
    return _single_photon_loss_entries(np.clip(keep, 0.0, 1.0))


def loss_split_matrix(eta, eta_star: float) -> StochasticMatrix:
    """The residual loss map in the split ``P_eta = r P_eta* + (1-r) Q``.

    ``r = eta_min / eta_star``; the returned ``Q`` keeps single click ``s``
    with probability ``eta_star (eta_s - eta_min) / (eta_star - eta_min)``.
    Entries stay in [0, 1] exactly when ``eta_star`` is admissible
    (:func:`check_eta_star`, as in :func:`loss_channel`); near its lower
    end the ill-conditioned keep probability is clipped to 1.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta_star <= float(eta.min()):
        raise ValueError("the split needs eta_star above eta_min")
    check_eta_star(eta, eta_star)
    return StochasticMatrix(_loss_split_entries(eta, eta_star))


def loss_channel(eta, eta_star: float, f_lossless: POVM) -> QuantumChannel:
    """Noise channel trading unequal efficiencies for a common ``eta_star``.

    Vacuum and flags pass through; the one-photon block survives with
    probability ``eta_min / eta_star`` and is otherwise measured with the
    residual-loss POVM and flagged.  ``f_lossless`` is the flag-state target
    of the unit-efficiency setup.  A stack ``(depth, k)`` of efficiency
    vectors gives the stack of channels; the measure-prepare branch is
    zero at the entries where ``eta_min / eta_star`` reaches 1.
    """
    _require_one_photon_target(f_lossless)
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    check_eta_star(eta, eta_star)
    layout = f_lossless.layout
    events = f_lossless.events
    if len(events.single_indices) != eta.shape[-1]:
        raise ValueError("efficiency vector does not match the single-click events")
    eta_min = eta.min(axis=-1)
    ratio = eta_min / eta_star

    terms = [
        _KeepBlocks(weight=1.0, projector=layout.projector(_M0)),
        _KeepBlocks(weight=ratio, projector=layout.projector(_M1)),
        _KeepBlocks(weight=1.0, projector=layout.projector(FLAG_LABEL)),
    ]
    split = ratio < 1.0
    if split.any():
        carriers = [0, *events.single_indices]
        m = len(carriers)
        q = np.zeros((*split.shape, m, m))
        q[split] = _loss_split_entries(eta[split], eta_star)
        blocks = _block_of(f_lossless.dense[carriers], layout, _M1)
        # The branch weight 1 - ratio goes into the measurement, so the flag
        # preparations are shared.
        ops = (q @ blocks.reshape(m, -1)).reshape(*split.shape, *blocks.shape)
        ops *= np.where(split, 1.0 - ratio, 0.0)[..., None, None, None]
        flags = layout.offset(FLAG_LABEL) + np.array(carriers)
        preps = _diagonal_states(layout.total_dim, flags, np.eye(m))
        terms.append(_MeasurePrepare(ops=ops, preps=preps))

    return QuantumChannel(layout, layout, terms)


def _deviation_bound(f_noise: POVM, f_ideal: POVM) -> tuple[float, bool]:
    """The unrounded smallest admissible deviation ``q*``, and whether ``F_noise`` has a support deficit.

    The largest ``t`` with ``N = F_noise_i >= t F_ideal_i`` is
    ``1 / lambda_max(N^{-1/2} F_ideal_i N^{-1/2})`` on the support of ``N``,
    and 0 when ``F_ideal_i`` leaks off that support (Horn and Johnson,
    *Matrix Analysis*, 2nd ed., section 7.7).  So ``q* = 1 - min_i t_i``:
    1 on a support deficit, 0 for identical measurements.
    """
    if f_noise.layout != f_ideal.layout or len(f_noise) != len(f_ideal):
        raise ValueError("measurements do not match")
    if f_noise.stacked or f_ideal.stacked:
        raise ValueError("a deviation compares two measurements, not stacks of them")
    noise, ideal = f_noise.dense, f_ideal.dense
    if np.array_equal(noise, ideal):
        return 0.0, False
    vals, vecs = np.linalg.eigh(noise)
    support = vals > _SUPPORT_TOL
    # Eigenvectors v_j of N: as v_j / sqrt(lambda_j) on its support (0 off it), and off it.
    whitened = vecs * np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)[:, None, :]
    off = vecs * ~support[:, None, :]
    if (np.abs(off.conj().swapaxes(1, 2) @ ideal @ off).max(axis=(1, 2)) > _SUPPORT_TOL).any():
        return 1.0, True
    lmax = np.linalg.eigvalsh(whitened.conj().swapaxes(1, 2) @ ideal @ whitened)[:, -1]
    return float(min(1.0, max(0.0, 1.0 - 1.0 / lmax.max()))), False


def generic_channel(f_noise: POVM, f_ideal: POVM, q: float) -> QuantumChannel:
    """Noise channel for an arbitrary deviation ``q`` between two targets.

    Admits ``q`` exactly when ``q >= q*``, the deviation bound of
    :func:`min_deviation_q` before its rounding, so every
    ``F_noise_i - (1-q) F_ideal_i`` is PSD; the excess defines a POVM that
    the channel measures on the preserved blocks, surrendering weight ``q``
    to the flags.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    _require_exact_flags(f_ideal, "the ideal")
    q_star, _ = _deviation_bound(f_noise, f_ideal)
    if q < q_star:
        raise ValueError(f"q={q} violates the deviation bound q*={q_star!r}")

    layout = f_ideal.layout
    n = len(f_ideal)
    preserved = layout.projector(layout.photon_labels)
    terms = [
        _KeepBlocks(weight=1.0 - q, projector=preserved),
        _KeepBlocks(weight=1.0, projector=layout.projector(FLAG_LABEL)),
    ]
    if q > 1e-15:
        gap = f_noise.dense - (1.0 - q) * f_ideal.dense
        ops = preserved @ (gap * (1.0 / q)) @ preserved
        flags = layout.offset(FLAG_LABEL) + np.arange(n)
        preps = _diagonal_states(layout.total_dim, flags, q * np.eye(n))
        terms.append(_MeasurePrepare(ops=ops, preps=preps))
    return QuantumChannel(layout, layout, terms)


def min_deviation_q(f_noise: POVM, f_ideal: POVM) -> float:
    """Smallest deviation ``q`` admissible between two measurements, in closed form.

    The bound ``q*`` of :func:`generic_channel`, rounded up by
    ``_DEVIATION_RADIUS`` to cover the rounding of the eigensolves, and at
    most 1; a support deficit warns and gives 1.  Identical measurements
    give 0.
    """
    q_star, deficit = _deviation_bound(f_noise, f_ideal)
    if deficit:
        warnings.warn(
            "no q < 1 satisfies the deviation bound; the noisy measurement "
            "has a support deficit (reporting q = 1)",
            stacklevel=2,
        )
        return 1.0
    if np.array_equal(f_noise.dense, f_ideal.dense):
        return 0.0  # no eigensolve to round
    return float(min(1.0, q_star + _DEVIATION_RADIUS))


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


def _hermitian_part(diff: np.ndarray) -> np.ndarray:
    """``(D + D^dag) / 2`` per matrix of a stack, Hermitian to the bit."""
    return (diff + diff.conj().swapaxes(-1, -2)) / 2.0


def _hermitian_score(herm: np.ndarray) -> np.ndarray:
    """Per matrix ``D`` of a Hermitian stack: ``max(|D_aa|, 2|Re D_ab|, 2|Im D_ab|)``.

    For ``D`` the Hermitian part of ``Phi^dag(F) - G`` this is the largest
    mismatch ``|Tr[F Phi(rho)] - Tr[G rho]|`` over the Hermitian matrix-unit
    basis ``rho``, which spans every input operator.
    """
    entry = np.maximum(np.abs(herm.real), np.abs(herm.imag)) * _off_diagonal_weight(herm.shape[-1])
    return entry.max(axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def _off_diagonal_weight(n: int) -> np.ndarray:
    """``2 - I``: off-diagonal entries count for both of their Hermitian basis pairs."""
    weight = 2.0 - np.eye(n)
    weight.flags.writeable = False
    return weight


def _identities(stacks, lead: tuple) -> np.ndarray:
    """Operator stacks ``(..., K_i, d, d)`` concatenated along ``K``, their leading shapes broadcast to ``lead``."""
    return np.concatenate(
        [a if a.shape[:-3] == lead else np.broadcast_to(a, (*lead, *a.shape[-3:])) for a in stacks],
        axis=-3,
    )


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
    once, last, trace preservation as ``F = I_out``, ``G = I_in``;
    :meth:`stack` puts several stacks of systems in one stack.  The maps on
    ``J`` are the kernel's: ``ChoiSupport.heisenberg`` gives ``Phi_J^dag(F_k)``,
    and ``_MeasurePrepare(ops=Y, preps=ops)`` its adjoint ``sum_k Y_k^T (x) F_k``.
    """

    def __init__(self, *identities):
        afters, targets = [], []
        for p, f_before, f_after in identities:
            before, after = [
                f.dense if isinstance(f, POVM) else np.asarray(f, dtype=complex)
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
        self.ops = _identities([*afters, np.eye(self.d_out)[None]], lead)
        self.targets = _identities([*targets, np.eye(self.d_in)[None]], lead)

    @classmethod
    def stack(cls, *systems) -> "ChoiConstraintSystem":
        """One stack of systems from the stacks of ``systems``, in order; each holds as many identities."""
        stacked = cls.__new__(cls)
        stacked.d_in, stacked.d_out, stacked.dim = systems[0].d_in, systems[0].d_out, systems[0].dim
        stacked.ops = np.concatenate([s.ops for s in systems])
        stacked.targets = np.concatenate([s.targets for s in systems])
        return stacked


@dataclass(frozen=True)
class CPTPReport(_Verdict):
    """Choi-level certificate that a channel is CPTP at a tolerance."""

    min_choi_eigenvalue: float
    trace_preservation_dev: float
    hermiticity_dev: float
    tolerance: float
    passed: bool = field(init=False)

    @cached_property
    def residual(self) -> float:
        """The largest of the three violations and 0, NaN if any is."""
        return float(np.max((0.0, -self.min_choi_eigenvalue, self.trace_preservation_dev, self.hermiticity_dev)))


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
    passed: bool = field(init=False)

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
