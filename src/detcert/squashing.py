"""Flag-state target measurements and weight estimation.

The flag-state squasher keeps the low photon-number blocks of a
threshold-detector POVM intact and replaces everything above the cutoff by
orthonormal classical flags, one per event (Gittsovich et al., PRA 89,
012325 (2014)).  The target is an ordinary ``POVM`` whose layout ends in a
``flag`` block.  What fraction of the state the flags absorb is controlled
by the weight outside the preserved subspace, estimated from one observed
event probability and propagated through the noise channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import POVM, EventTable
from .fock import FLAG_LABEL, SpaceLayout, photon_label


def flag_state_target(povm: POVM, cutoff: int) -> POVM:
    """Flag-state target measurement for ``povm`` with the given cutoff.

    Element ``i`` keeps the blocks ``m <= cutoff`` of the source element and
    appends the flag ``|i><i|``; blocks above the cutoff are dropped (their
    role is taken over by the flags).  The result is a ``POVM`` whose layout
    ends in a ``flag`` block of one flag per event.  A stack of
    measurements gives the stack of targets.
    """
    numbers = povm.layout.photon_numbers()
    if cutoff not in numbers:
        raise ValueError(f"source POVM has no block m={cutoff}")
    preserved = [photon_label(m) for m in numbers if m <= cutoff]
    n = len(povm)
    layout = SpaceLayout(
        tuple((lab, povm.layout.dim(lab)) for lab in preserved) + ((FLAG_LABEL, n),)
    )
    dense = np.zeros((*povm.dense.shape[:-2], layout.total_dim, layout.total_dim), dtype=complex)
    for lab in preserved:
        s = layout.slice_of(lab)
        dense[..., s, s] = povm.block(lab)
    flags = layout.offset(FLAG_LABEL) + np.arange(n)
    dense[..., np.arange(n), flags, flags] = 1.0
    return POVM(layout, dense, povm.events)


@dataclass(frozen=True)
class WeightBound:
    """Upper bound on the state weight outside the preserved blocks.

    Derived from one observed event probability and the extremal eigenvalues
    of the event operator compressed inside and outside the cutoff.
    """

    value: float
    event: tuple[str, ...]
    cutoff: int
    p_observed: float
    lambda_inside: float
    lambda_outside: float


def _resolve_event(events: EventTable, event) -> tuple[int, ...]:
    if isinstance(event, str):
        if event == "multi":
            idx = events.multi_indices
            if not idx:
                raise ValueError("event table has no multi-click events")
            return idx
        return (events.index_of(event),)
    if isinstance(event, (int, np.integer)):
        if not 0 <= event < events.n_events:
            raise ValueError(f"event index {event} outside [0, {events.n_events})")
        return (int(event),)
    out = []
    for e in event:
        for i in _resolve_event(events, e):
            if i in out:
                raise ValueError(f"event {events.labels[i]!r} is listed twice")
            out.append(i)
    return tuple(out)


def weight_bound(povm: POVM, event, p_observed: float, cutoff: int) -> WeightBound:
    """Bound the weight outside blocks ``m <= cutoff`` from one observation.

    ``event`` may be an index, a label, an iterable of either, or the string
    ``"multi"`` for the union of all multi-click patterns.  The bound is

        (p - lmin_inside) / (lmin_outside - lmin_inside)

    clamped to [0, 1], where the extremal eigenvalues are taken over the
    blocks at or below the cutoff and strictly above it.  The POVM must
    carry at least one block above the cutoff; a nearly equal pair of
    eigenvalues makes the event uninformative and is rejected.
    """
    if not 0.0 <= p_observed <= 1.0:
        raise ValueError("observed probability must lie in [0, 1]")
    numbers = povm.layout.photon_numbers()
    inside = [m for m in numbers if m <= cutoff]
    outside = [m for m in numbers if m > cutoff]
    if not outside:
        raise ValueError(f"POVM has no blocks above the cutoff {cutoff}")
    if povm.stacked:
        raise ValueError("weight_bound takes one measurement, not a stack of them")
    idx = _resolve_event(povm.events, event)
    gamma = sum(povm.dense[i] for i in idx)

    def block_min(ms):
        lo = None
        for m in ms:
            s = povm.layout.slice_of(photon_label(m))
            a = gamma[s, s]
            a = (a + a.conj().T) / 2.0
            val = float(np.linalg.eigvalsh(a)[0])
            lo = val if lo is None else min(lo, val)
        return lo

    lam_in = block_min(inside)
    lam_out = block_min(outside)
    denom = lam_out - lam_in
    if denom <= 1e-12:
        raise ValueError(
            f"uninformative event: eigenvalue gap {denom:.3e} is not positive"
        )
    raw = (p_observed - lam_in) / denom
    return WeightBound(
        value=float(min(1.0, max(0.0, raw))),
        event=tuple(povm.events.labels[i] for i in idx),
        cutoff=cutoff,
        p_observed=p_observed,
        lambda_inside=lam_in,
        lambda_outside=lam_out,
    )


def propagate_weight(
    weight: float, p_no_dark: float, eta_min: float, eta_star: float
) -> float:
    """Weight outside the preserved blocks after the noise channels.

    ``p_no_dark`` is the probability that no detector fires a dark count
    (the no-click survival entry of the dark-count map) and
    ``eta_min / eta_star`` is the single-photon survival of the loss
    channel:  ``W' = 1 - p_no_dark * (eta_min / eta_star) * (1 - W)``.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if not 0.0 <= p_no_dark <= 1.0:
        raise ValueError("p_no_dark must lie in [0, 1]")
    if not 0.0 < eta_star <= 1.0:
        raise ValueError("eta_star must lie in (0, 1]")
    if not 0.0 <= eta_min <= eta_star:
        raise ValueError("eta_min must lie in [0, eta_star]")
    return 1.0 - p_no_dark * (eta_min / eta_star) * (1.0 - weight)


def eta_star_range(eta_min: float, eta_max: float) -> tuple[float, float]:
    """Admissible common efficiencies for the loss reduction.

    The loss split stays stochastic exactly for ``eta_star`` in ``[f, 1]``,
    ``f = eta_min / ((1 - eta_max) + eta_min)``, which lies in ``[eta_min, 1]``
    and grows with both efficiencies; ``f`` is rounded once, which keeps both.
    """
    if not 0.0 < eta_min <= eta_max <= 1.0:
        raise ValueError("need 0 < eta_min <= eta_max <= 1")
    # Each float is n / d exactly, so only the int division rounds.
    (n_min, d_min), (n_max, d_max) = (float(x).as_integer_ratio() for x in (eta_min, eta_max))
    return (n_min * d_max / ((d_max - n_max) * d_min + n_min * d_max), 1.0)


def check_eta_star(eta, eta_star: float) -> None:
    """Raise ``ValueError`` unless ``eta_star`` lies in the :func:`eta_star_range` of every vector of ``eta``.

    ``eta`` is one efficiency vector or a ``(..., k)`` stack.  Both ends are admitted
    exactly, with no slack: an admitted ``eta_star`` has ``0 < eta_min <= eta_star <= 1``.
    """
    eta = np.asarray(eta, dtype=float).reshape(-1, np.shape(eta)[-1])
    for vec, low, high in zip(eta.tolist(), eta.min(axis=1).tolist(), eta.max(axis=1).tolist()):
        lo, hi = eta_star_range(low, high)  # NaN fails there
        if not lo <= eta_star <= hi:
            raise ValueError(
                f"common efficiency {eta_star} outside the admissible interval [{lo}, {hi}] "
                f"at efficiencies {vec} required by the loss reduction"
            )
