"""Shared fixtures for channel-level tests: random POVMs with flag structure."""

import numpy as np

from detcert import POVM, EventTable
from detcert.channels import _heisenberg, _transpose_kron_sum
from detcert.feasibility import _PLATEAU_REL, _PLATEAU_WINDOW
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


def reference_probe(system, tol=1e-6, max_iter=10_000, seed=0, restarts=3):
    """The feasibility probe's loop in plain numpy steps, the reference for ``choi_feasibility``.

    Each step is written out: ``tensordot`` for the affine coefficients,
    the distance to the cone after every projection, the defect
    re-symmetrised by the score.  Returns the iterates, their residuals and
    the final cone gap of each restart on the given ``ChoiConstraintSystem``.
    """

    def defect(j):
        diff = _heisenberg(j, system.d_in, system.d_out, system.ops) - system.targets
        return (diff + diff.conj().transpose(0, 2, 1)) / 2.0

    def project_affine(j, defect):
        coeffs = np.tensordot(system._solver, defect, axes=1)
        return j - _transpose_kron_sum(coeffs, system.ops).reshape(system.dim, system.dim)

    def project_face_psd(mat):
        u = system.face_basis
        compressed = u.conj().T @ mat @ u
        vals, vecs = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
        clipped = np.clip(vals, 0.0, None)
        proj_small = (vecs * clipped) @ vecs.conj().T
        proj = u @ proj_small @ u.conj().T
        gap = float(np.linalg.norm(mat - proj))
        return proj, gap

    def hermitian_score(diff):
        diff = (diff + diff.conj().transpose(0, 2, 1)) / 2.0
        entry = np.maximum(np.abs(diff.real), np.abs(diff.imag)) * (2.0 - np.eye(diff.shape[-1]))
        return entry.max(axis=(1, 2))

    d = system.dim
    rng = np.random.default_rng(seed)
    iterates, residuals, final_gaps = [], [], []
    for _ in range(max(1, restarts)):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        start = g @ g.conj().T
        start *= system.d_in / np.trace(start).real
        x = start
        defect_x = defect(x)
        correction = np.zeros_like(x)
        history = []
        gap = np.inf
        for _ in range(max_iter):
            y = project_affine(x, defect_x)
            z, gap = project_face_psd(y + correction)
            correction = (y + correction) - z
            x = z
            defect_x = defect(z)
            residual = float(hermitian_score(defect_x).max())
            iterates.append(z)
            residuals.append(residual)
            if residual < tol:
                return iterates, residuals, tuple(final_gaps) + (gap,)
            history.append(residual)
            if len(history) > _PLATEAU_WINDOW:
                old = history[-_PLATEAU_WINDOW - 1]
                if old - residual < _PLATEAU_REL * old:
                    break
        final_gaps.append(gap)
    return iterates, residuals, tuple(final_gaps)


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
