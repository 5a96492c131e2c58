"""Click-pattern bookkeeping and threshold-detector POVM construction.

A detection setup is a passive linear-optics circuit feeding ``k`` threshold
detectors: an isometry maps the input modes into the detector modes, each
detector has an efficiency ``eta_i`` (a beam splitter of transmission
``sqrt(eta_i)`` in front of a lossless detector), and each detector reports
click or no-click.  The POVM elements are computed exactly on truncated
photon-number blocks, with no dark counts: the mode map acts on each block
through permanents of its submatrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import FLAG_LABEL, SpaceLayout, _kept, _layout, photon_label

NO_CLICK = "no-click"
SINGLE = "single"
MULTI = "multi"

MAX_DETECTORS = 4
MAX_CUTOFF = 3

_ISOMETRY_TOL = 1e-10
_ASSUMPTION_TOL = 1e-10


@dataclass(frozen=True)
class EventTable:
    """Ordered click events with class labels.

    For a fine-grained table the events are all ``2^k`` click patterns of
    ``k`` detectors, ordered by increasing click count and then by numeric
    mask.  Coarse-grained tables (for example all multi-clicks merged into
    one event) have empty ``masks``.
    """

    k: int
    labels: tuple[str, ...]
    classes: tuple[str, ...]
    masks: tuple = ()

    def __post_init__(self):
        if len(self.labels) != len(self.classes):
            raise ValueError("labels and classes must have equal length")
        bad = set(self.classes) - {NO_CLICK, SINGLE, MULTI}
        if bad:
            raise ValueError(f"unknown event classes {bad}")
        if self.classes.count(NO_CLICK) != 1 or self.classes[0] != NO_CLICK:
            raise ValueError("exactly one no-click event, and it must come first")

    @property
    def n_events(self) -> int:
        return len(self.labels)

    @property
    def single_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.classes) if c == SINGLE)

    @property
    def multi_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.classes) if c == MULTI)


@_kept(maxsize=16)
def enumerate_events(k: int) -> EventTable:
    """All ``2^k`` click patterns of ``k`` detectors, in canonical order.

    Ordering is by click count (popcount) and then by numeric mask; the
    class is no-click, single or multi according to the click count.  Labels
    are the patterns as bit strings, detector 1 in the rightmost position.
    Kept per ``k`` and its type (:func:`~detcert.fock._kept`): a rejected ``1.0`` never finds ``1``'s table.
    """
    if not isinstance(k, int):
        raise ValueError(f"detector count must be an int, not {type(k).__name__}: {k!r}")
    if not 1 <= k <= MAX_DETECTORS:
        raise ValueError(f"detector count {k} outside [1, {MAX_DETECTORS}]")
    k = int(k)  # True builds the k = 1 table
    masks = sorted(range(2**k), key=lambda c: (bin(c).count("1"), c))
    classes = []
    for c in masks:
        n = bin(c).count("1")
        classes.append(NO_CLICK if n == 0 else SINGLE if n == 1 else MULTI)
    labels = tuple(format(c, f"0{k}b") for c in masks)
    return EventTable(k=k, labels=labels, classes=tuple(classes), masks=tuple(masks))


@dataclass(frozen=True)
class DetectionSetup:
    """Passive linear-optics front end plus per-detector efficiencies.

    ``mode_map`` is a ``k x n_in`` matrix whose columns are orthonormal:
    it embeds the input modes isometrically into the detector modes, so
    photon number is conserved before loss.  It keeps the dtype it is
    given, by the rule of :func:`_dtype`: a real map is float64 and makes
    every POVM, target and Choi stack built from it float64, a complex map
    complex128.  ``eta`` is one efficiency for every detector (a scalar or
    a one-element vector), one per detector, or a ``(depth, k)`` stack of
    such vectors, for which :func:`build_threshold_povm` builds the stack
    of POVMs.
    """

    k: int
    mode_map: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        mm = np.asarray(self.mode_map, dtype=_dtype(self.mode_map))
        eta = np.asarray(self.eta, dtype=float)
        if mm.ndim != 2 or mm.shape[0] != self.k:
            raise ValueError(f"mode_map must be k x n_in with k={self.k}")
        if not is_isometry(mm):
            raise ValueError("mode_map columns are not orthonormal (not an isometry)")
        if eta.ndim < 2 and eta.size == 1:
            eta = np.full(len(mm), eta.item())
        if eta.ndim not in (1, 2) or eta.shape[-1] != self.k:
            raise ValueError(f"eta must have length {self.k}")
        _require_unit(eta, "efficiencies")
        object.__setattr__(self, "mode_map", mm)
        object.__setattr__(self, "eta", eta)

    def with_eta(self, eta) -> "DetectionSetup":
        return replace(self, eta=eta)


def _dtype(*arrays) -> np.dtype:
    """The dtype of every stack on the certificate path: complex128 if one of ``arrays`` is complex, else float64.

    That is their result type, at least float64 and at most complex128, the
    widest types LAPACK takes: real inputs give real arithmetic.
    """
    return np.dtype(np.complex128 if any(np.asarray(a).dtype.kind == "c" for a in arrays) else np.float64)


def _require_unit(values, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless every entry of ``values`` lies in ``[0, 1]`` (NaN does not)."""
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"{what} must lie in [0, 1]")


def _hermitian_part(diff: np.ndarray) -> np.ndarray:
    """``(D + D^dag) / 2`` per matrix of a stack, Hermitian to the bit."""
    return (diff + diff.conj().swapaxes(-1, -2)) / 2.0


@_kept(maxsize=32)
def is_isometry(mode_map) -> bool:
    """Whether the columns of ``mode_map`` are orthonormal, to ``_ISOMETRY_TOL`` (NaN is not), tested once per map."""
    mm = np.asarray(mode_map, dtype=_dtype(mode_map))
    return bool(np.abs(mm.conj().T @ mm - np.eye(mm.shape[1])).max() <= _ISOMETRY_TOL)


def passive_bb84_setup(eta=1.0) -> DetectionSetup:
    """Polarisation BB84 with a passive 50/50 basis choice and four detectors.

    Detector order: H, V (rectilinear basis) then D, A (diagonal basis).
    """
    s = 1.0 / math.sqrt(2.0)
    mode_map = np.array(
        [
            [s, 0.0],
            [0.0, s],
            [0.5, 0.5],
            [0.5, -0.5],
        ]
    )
    return DetectionSetup(k=4, mode_map=mode_map, eta=eta)


def active_bb84_setups(eta=1.0) -> dict[str, DetectionSetup]:
    """Active BB84: one two-detector setup per basis choice."""
    s = 1.0 / math.sqrt(2.0)
    z = DetectionSetup(k=2, mode_map=np.eye(2), eta=eta)
    x = DetectionSetup(k=2, mode_map=np.array([[s, s], [s, -s]]), eta=eta)
    return {"Z": z, "X": x}


class POVM:
    """Measurement on photon-number blocks, optionally followed by flags.

    ``dense`` is the ``(n, d, d)`` stack of the elements, one per event, on
    the ``d``-dimensional space of ``layout``, or a ``(depth, n, d, d)``
    stack of such measurements on one layout and event table (one per
    efficiency corner, say), float64 if the elements given are real and
    complex128 if they are complex (:func:`_dtype`).  It is validated
    once, each rule by one reduction per element over the whole stack:
    finite, exactly zero off the layout's blocks, Hermitian to 1e-12, PSD
    to -1e-10 and summing to the identity to 1e-10.  A layout ending in a
    ``flag`` block (a flag-state target) carries one classical flag per
    event.  The stack is read-only, and every check reads it.
    """

    __slots__ = ("layout", "events", "dense")

    def __init__(self, layout: SpaceLayout, dense, events: EventTable):
        dense = np.array(dense, dtype=_dtype(dense))
        d = layout.total_dim
        if dense.shape[-3:] != (events.n_events, d, d) or dense.ndim not in (3, 4):
            raise ValueError(
                f"element stack has shape {dense.shape}, want {(events.n_events, d, d)}"
            )
        if layout.has(FLAG_LABEL) and layout.dim(FLAG_LABEL) != events.n_events:
            raise ValueError("flag dimension must equal the event count")
        labels = events.labels

        # Each rule reduces the stack once, per element; only a failed one locates its element.
        def reject(bad: np.ndarray, why):
            if bad.any():
                at = tuple(int(x) for x in np.argwhere(bad)[0])
                where = f" in stack entry {at[0]}" if len(at) > 1 else ""
                raise ValueError(f"element {labels[at[-1]]!r}{where} {why(at)}")

        reject(~np.isfinite(dense).all(axis=(-2, -1)), lambda at: "has a non-finite entry")
        off = np.abs(dense[..., layout.off_blocks]).max(axis=-1, initial=0.0)
        reject(off != 0.0, lambda at: f"is not zero off its blocks (entry {off[at]:.3e})")
        herm = np.abs(dense - dense.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        reject(herm > 1e-12, lambda at: f"is not Hermitian (deviation {herm[at]:.3e})")
        lows = np.linalg.eigvalsh(dense)[..., 0]
        reject(lows < -1e-10, lambda at: f"is not PSD (eigenvalue {lows[at]:.3e})")
        dev = np.abs(dense.sum(axis=-3) - np.eye(d)).max()
        if not dev <= 1e-10:
            raise ValueError(f"completeness violated by {dev:.3e}")
        dense.flags.writeable = False
        self.layout, self.events, self.dense = layout, events, dense

    @classmethod
    def _validated(cls, layout: SpaceLayout, dense: np.ndarray, events: EventTable) -> "POVM":
        """``dense``, made read-only, as a measurement: the one way to skip ``__init__``, for stacks that meet its rules."""
        dense.flags.writeable = False
        povm = cls.__new__(cls)
        povm.layout, povm.events, povm.dense = layout, events, dense
        return povm

    def __len__(self) -> int:
        return self.dense.shape[-3]

    @property
    def stacked(self) -> bool:
        """Whether this is a stack of measurements."""
        return self.dense.ndim == 4

    def take(self, index) -> "POVM":
        """Stack entry ``index`` (an int), or the sub-stack ``index`` (a slice), already validated."""
        if not self.stacked:
            raise ValueError("not a stack of measurements")
        return POVM._validated(self.layout, self.dense[index], self.events)

    def block(self, label: str) -> np.ndarray:
        """The ``(..., n, d_b, d_b)`` view of every element's block ``label``."""
        s = self.layout.slice_of(label)
        return self.dense[..., s, s]


@_kept(maxsize=32)
def _lift_isometry(mode_map: np.ndarray, m: int):
    """Second-quantized action of the mode map on the ``m``-photon block.

    Returns ``(V, det_occs, in_occs)`` where ``V[n, t]`` is the amplitude of
    detector occupation ``n`` in the image of input occupation ``t``:
    ``perm(U[n, t]) / sqrt(n! t!)``, with ``U[n, t]`` repeating row ``i`` of
    the mode map ``n_i`` times and column ``j`` ``t_j`` times (Scheel,
    quant-ph/0406127), the permanent summed over the orderings of the input
    photons' modes.  Occupations come in the order of their sorted mode
    lists (``itertools.combinations_with_replacement``): descending
    lexicographic order of the occupation tuples.  Kept per map and ``m``:
    ``V`` is in the map's dtype (at least float64, :func:`_dtype`).
    """
    mode_map = np.asarray(mode_map, dtype=_dtype(mode_map))
    k, n_in = mode_map.shape
    det_modes = list(itertools.combinations_with_replacement(range(k), m))
    in_modes = list(itertools.combinations_with_replacement(range(n_in), m))
    det_occs = tuple(tuple(map(r.count, range(k))) for r in det_modes)
    in_occs = tuple(tuple(map(c.count, range(n_in))) for c in in_modes)
    u = mode_map.tolist()
    v = [
        [
            sum(math.prod([u[a][b] for a, b in zip(r, order)]) for order in itertools.permutations(c))
            / math.sqrt(math.prod(map(math.factorial, n + t)))
            for c, t in zip(in_modes, in_occs)
        ]
        for r, n in zip(det_modes, det_occs)
    ]
    return np.array(v, dtype=mode_map.dtype), det_occs, in_occs


@_kept(maxsize=MAX_DETECTORS)
def _click_bits(k: int) -> np.ndarray:
    """``(2^k, k)`` 0/1 table: entry ``[e, i]`` is 1 iff detector ``i`` clicks in event ``e`` of ``enumerate_events(k)``."""
    return (np.array(enumerate_events(k).masks)[:, None] >> np.arange(k)) & 1


def build_threshold_povm(setup: DetectionSetup, cutoff: int) -> POVM:
    """Exact threshold-detector POVM on photon blocks ``m = 0 .. cutoff``.

    Each input Fock state is pushed through the mode-map isometry; detector
    ``i`` then keeps each photon with probability ``eta_i`` and clicks iff at
    least one survives.  The ``m = 0`` blocks are independent of ``eta`` and
    give the no-click event with certainty.  A ``(depth, k)`` stack of
    efficiency vectors gives the stack of POVMs, from one set of mode-map
    lifts and one event table.
    """
    if not isinstance(cutoff, int) or cutoff < 1:
        raise ValueError("cutoff must be an integer >= 1")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds the supported maximum {MAX_CUTOFF}")

    events = enumerate_events(setup.k)
    one_minus_eta = 1.0 - setup.eta
    clicks = _click_bits(setup.k)[:, None, :]
    lifts = [_lift_isometry(setup.mode_map, m) for m in range(cutoff + 1)]
    layout = _layout(tuple((photon_label(m), len(lift[2])) for m, lift in enumerate(lifts)))
    lead = one_minus_eta.shape[:-1]
    dense = np.zeros((*lead, events.n_events, layout.total_dim, layout.total_dim), dtype=setup.mode_map.dtype)
    for m, (v, det_occs, _) in enumerate(lifts):
        s = layout.slice_of(photon_label(m))
        # Survival probabilities per detector occupation: detector i with n_i
        # photons stays dark with probability (1 - eta_i)^(n_i).  An event's
        # weight multiplies, detector by detector, the click or dark factor
        # its mask names; all events of the block at once.
        dark = one_minus_eta[..., None, None, :] ** np.array(det_occs)
        weights = np.where(clicks, 1.0 - dark, dark).prod(axis=-1)
        blocks = v.conj().T @ (weights[..., None] * v)
        dense[..., s, s] = _hermitian_part(blocks)
    return POVM(layout, dense, events)


@dataclass(frozen=True)
class _Verdict:
    """A report that passes iff ``residual <= tolerance`` (NaN fails): ``passed``, declared here only, says so."""

    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", self.passes(self.residual, self.tolerance))

    @staticmethod
    def passes(residual: float, tolerance: float) -> bool:
        return bool(residual <= tolerance)


@dataclass(frozen=True)
class SinglePhotonAssumptionReport(_Verdict):
    """Check that clicks cannot outnumber photons.

    Checks, per multi-click element, the largest entry of its vacuum and
    one-photon blocks, and per single-click element the largest entry of its
    vacuum block.  All must vanish for the dark-count reduction to apply;
    ``violations`` lists those above the tolerance as ``(event, block, value)``.
    """

    max_violation: float
    violations: tuple[tuple[str, str, float], ...] = field(repr=False)
    tolerance: float = _ASSUMPTION_TOL

    @property
    def residual(self) -> float:
        return self.max_violation


def verify_single_photon_assumption(povm: POVM) -> SinglePhotonAssumptionReport:
    """Report on the no-more-clicks-than-photons structure of one measurement; a stack is refused."""
    if povm.stacked:
        raise ValueError("the click-count check takes one measurement, not a stack of them")
    events = povm.events
    m0, m1 = photon_label(0), photon_label(1)
    largest = {
        label: np.abs(povm.block(label)).max(axis=(-2, -1))
        for label in (m0, m1) if povm.layout.has(label)
    }
    checked = [(i, block) for i in events.multi_indices for block in largest]
    checked += [(i, m0) for i in events.single_indices]
    values = np.array([largest[block][i] for i, block in checked])
    return SinglePhotonAssumptionReport(
        max_violation=float(values.max()),
        violations=tuple(
            (events.labels[i], block, value)
            for (i, block), value in zip(checked, values.tolist()) if value > _ASSUMPTION_TOL
        ),
    )
