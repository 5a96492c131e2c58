"""Shared fixtures for channel-level tests: random POVMs with flag structure."""

import numpy as np

from detcert import POVM, EventTable
from detcert.fock import BlockOperator, SpaceLayout, min_eigenvalue

SMALL_LAYOUT = SpaceLayout((("m=0", 1), ("m=1", 2), ("flag", 3)))
SMALL_EVENTS = EventTable(
    k=2,
    labels=("no-click", "a", "b"),
    classes=("no-click", "single", "single"),
    masks=(),
)


def random_block_povm(rng, dims, n, floor=0.05):
    """Per block: n strictly positive operators summing to the identity."""
    per_block = []
    for d in dims:
        mats = []
        for _ in range(n):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mats.append(g @ g.conj().T + floor * np.eye(d))
        total = sum(mats)
        w = np.linalg.inv(np.linalg.cholesky(total))
        per_block.append([w @ m @ w.conj().T for m in mats])
    return per_block


def random_squashed_povm(rng, layout=SMALL_LAYOUT, events=SMALL_EVENTS, floor=0.05):
    """Random flag-state measurement: positive preserved blocks, exact flags."""
    n = events.n_events
    dims = [layout.dim(lab) for lab in layout.photon_labels]
    per_block = random_block_povm(rng, dims, n, floor=floor)
    elements = []
    for i in range(n):
        blocks = {
            lab: per_block[b][i] for b, lab in enumerate(layout.photon_labels)
        }
        flag = np.zeros((n, n))
        flag[i, i] = 1.0
        blocks["flag"] = flag
        elements.append(BlockOperator(layout, blocks))
    return POVM(layout, elements, events)


def reference_checked_elements(layout: SpaceLayout, elements, events: EventTable) -> tuple:
    """``elements`` as a tuple after checking they form a measurement.

    One element per event, each on ``layout`` and PSD (to -1e-10), summing
    to the identity on every block (to 1e-10).

    A per-element loop, the reference for ``POVM``'s batched validation of
    its dense stack.
    """
    elements = tuple(elements)
    if len(elements) != events.n_events:
        raise ValueError(f"{len(elements)} elements for {events.n_events} events")
    total = BlockOperator.zeros(layout)
    for i, el in enumerate(elements):
        if el.layout != layout:
            raise ValueError(f"element {i} lives on a different layout")
        lo = min_eigenvalue(el)
        if lo < -1e-10:
            raise ValueError(
                f"element {events.labels[i]!r} is not PSD (eigenvalue {lo:.3e})"
            )
        total = total + el
    ident = BlockOperator.identity(layout)
    dev = max(
        np.abs(total.block(lab) - ident.block(lab)).max() for lab in layout.labels
    )
    if dev > 1e-10:
        raise ValueError(f"completeness violated by {dev:.3e}")
    return elements


def hermitian_basis(dim):
    """Matrix units folded into a real basis of the Hermitian operators."""
    basis = []
    for a in range(dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[a, a] = 1.0
        basis.append(unit)
    for a in range(dim):
        for b in range(a + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0
            basis.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[a, b] = -1.0j
            asym[b, a] = 1.0j
            basis.append(asym)
    return basis


def mix_povms(f_ideal, q_povm, q0):
    """The deviation-q0 mixture of two measurements on one layout."""
    elements = [
        (1.0 - q0) * a + q0 * b for a, b in zip(f_ideal.elements, q_povm.elements)
    ]
    return POVM(f_ideal.layout, elements, f_ideal.events)


def pinv_sqrt(mat, cutoff=1e-12):
    """Inverse square root on the support of a PSD matrix."""
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    scale = max(1.0, float(vals[-1]))
    inv = np.where(vals > cutoff * scale, 1.0 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)
    support = vals > cutoff * scale
    return (vecs * inv) @ vecs.conj().T, (vecs, support)


def deviation_q_oracle(f_noise, f_ideal, cap=1.0):
    """Generalized-eigenvalue oracle for the smallest admissible deviation.

    Per element, the largest t with F_noise >= t F_ideal equals
    1 / lmax(N^{-1/2} F_ideal N^{-1/2}) on the support of N = F_noise,
    provided F_ideal is supported there (else t = 0).  The smallest q is
    1 - min over elements of those t, clipped to [0, 1].
    """
    t_overall = np.inf
    for a, b in zip(f_noise.elements, f_ideal.elements):
        for lab in a.layout.labels:
            noise_block = a.block(lab)
            ideal_block = b.block(lab)
            if np.abs(ideal_block).max() < 1e-300:
                continue
            x, (vecs, support) = pinv_sqrt(noise_block)
            off_support = vecs[:, ~support]
            leak = np.linalg.norm(off_support.conj().T @ ideal_block @ off_support)
            if leak > 1e-10:
                t_overall = 0.0
                continue
            lmax = np.linalg.eigvalsh(x @ ideal_block @ x)[-1]
            if lmax > 1e-300:
                t_overall = min(t_overall, 1.0 / lmax)
    t_overall = min(cap, t_overall)
    return float(min(1.0, max(0.0, 1.0 - t_overall)))
