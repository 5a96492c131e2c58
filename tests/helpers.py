"""Shared fixtures for channel-level tests: random states and POVMs with flag structure."""

import json
import math

import mpmath
import numpy as np

from detcert import POVM, EventTable, enumerate_events
from detcert.detectors import _lift_isometry
from detcert.fock import SpaceLayout

SMALL_LAYOUT = SpaceLayout((("m=0", 1), ("m=1", 2), ("flag", 3)))
SMALL_EVENTS = EventTable(
    k=2,
    labels=("no-click", "a", "b"),
    classes=("no-click", "single", "single"),
    masks=(),
)


def random_density(layout: SpaceLayout, rng) -> np.ndarray:
    """Random block-diagonal state: random PSD block per label, random weights."""
    weights = rng.dirichlet(np.ones(len(layout.labels)))
    rho = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for w, lab in zip(weights, layout.labels):
        d = layout.dim(lab)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = g @ g.conj().T
        s = layout.slice_of(lab)
        rho[s, s] = w * a / np.trace(a).real
    return rho


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


def stack_blocks(layout: SpaceLayout, parts) -> np.ndarray:
    """Dense ``(n, d, d)`` stack from one ``{label: block}`` dict per element."""
    dense = np.zeros((len(parts), layout.total_dim, layout.total_dim), dtype=complex)
    for i, blocks in enumerate(parts):
        for lab, mat in blocks.items():
            s = layout.slice_of(lab)
            dense[i, s, s] = mat
    return dense


def random_squashed_povm(rng, layout=SMALL_LAYOUT, events=SMALL_EVENTS, floor=0.05):
    """Random flag-state measurement: positive preserved blocks, exact flags."""
    n = events.n_events
    dims = [layout.dim(lab) for lab in layout.photon_labels]
    per_block = random_block_povm(rng, dims, n, floor=floor)
    parts = []
    for i in range(n):
        blocks = {
            lab: per_block[b][i] for b, lab in enumerate(layout.photon_labels)
        }
        blocks["flag"] = np.diag(np.eye(n)[i])
        parts.append(blocks)
    return POVM(layout, stack_blocks(layout, parts), events)


def reference_checked_elements(layout: SpaceLayout, dense, events: EventTable) -> np.ndarray:
    """``dense`` as a complex stack after checking it forms a measurement.

    One element per event, each finite, zero off the blocks of ``layout``,
    Hermitian (to 1e-12) and PSD (to -1e-10) on every block, the elements
    summing to the identity on every block (to 1e-10).

    A per-element, per-block loop, the reference for ``POVM``'s batched
    validation of its dense stack.  Each check runs over every element
    before the next starts, the order in which ``POVM`` reports them.
    """
    dense = np.array(dense, dtype=complex)
    if dense.shape != (events.n_events, layout.total_dim, layout.total_dim):
        raise ValueError(f"element stack has shape {dense.shape}")
    slices = [layout.slice_of(lab) for lab in layout.labels]

    def each_element(check):
        for i, el in enumerate(dense):
            why = check(el)
            if why:
                raise ValueError(f"element {events.labels[i]!r} {why}")

    def finite(el):
        if not np.isfinite(el).all():
            return "has a non-finite entry"

    def off_block_zero(el):
        worst = max(
            (np.abs(el[r, c]).max() for r in slices for c in slices if r != c), default=0.0
        )
        if worst != 0.0:
            return f"is not zero off its blocks (entry {worst:.3e})"

    def hermitian(el):
        dev = max(np.abs(el[s, s] - el[s, s].conj().T).max() for s in slices)
        if dev > 1e-12:
            return f"is not Hermitian (deviation {dev:.3e})"

    def psd(el):
        lo = min(np.linalg.eigvalsh((el[s, s] + el[s, s].conj().T) / 2)[0] for s in slices)
        if lo < -1e-10:
            return f"is not PSD (eigenvalue {lo:.3e})"

    for check in (finite, off_block_zero, hermitian, psd):
        each_element(check)
    dev = max(
        np.abs(sum(el[s, s] for el in dense) - np.eye(s.stop - s.start)).max() for s in slices
    )
    if dev > 1e-10:
        raise ValueError(f"completeness violated by {dev:.3e}")
    return dense


def reference_threshold_povm(setup, cutoff: int) -> np.ndarray:
    """Dense element stack of the threshold POVM, one click mask at a time.

    The per-mask, per-detector loop that ``build_threshold_povm`` batches:
    detector ``i`` holding ``n_i`` photons stays dark with probability
    ``(1 - eta_i)^(n_i)``, and an event's block on photon number ``m`` is
    ``V^dag diag(w) V`` for its survival weights ``w``.
    """
    events = enumerate_events(setup.k)
    one_minus_eta = 1.0 - setup.eta
    lifts = [_lift_isometry(setup.mode_map, m) for m in range(cutoff + 1)]
    sizes = [len(in_occs) for _, _, in_occs in lifts]
    offsets = np.cumsum([0] + sizes)
    dense = np.zeros((events.n_events, offsets[-1], offsets[-1]), dtype=complex)
    for m, (v, det_occs, _) in enumerate(lifts):
        s = slice(offsets[m], offsets[m + 1])
        dark = np.array(
            [[one_minus_eta[i] ** occ[i] for i in range(setup.k)] for occ in det_occs]
        )
        for e, mask in enumerate(events.masks):
            weights = np.ones(len(det_occs))
            for i in range(setup.k):
                col = dark[:, i]
                weights = weights * ((1.0 - col) if (mask >> i) & 1 else col)
            if not weights.any():
                continue
            block = v.conj().T @ (weights[:, None] * v)
            dense[e, s, s] = (block + block.conj().T) / 2.0
    return dense


def reference_dark_count_matrix(dark_rates) -> np.ndarray:
    """The dark-count map one entry at a time, the reference for ``dark_count_matrix``.

    Entry ``[c', c]`` is zero unless ``c`` is a subset of ``c'``; otherwise it
    multiplies, in detector order, ``d_i`` for each dark detector that fires
    and ``1 - d_i`` for each that does not.
    """
    d = np.atleast_1d(np.asarray(dark_rates, dtype=float))
    masks = enumerate_events(d.size).masks
    p = np.zeros((len(masks), len(masks)))
    for j, c in enumerate(masks):
        for i, c_out in enumerate(masks):
            if c & ~c_out:
                continue
            prob = 1.0
            for det in range(d.size):
                if (c >> det) & 1:
                    continue
                prob *= d[det] if (c_out >> det) & 1 else 1.0 - d[det]
            p[i, j] = prob
    return p


def reference_multiclick_ansatz(p_db: np.ndarray, cg: np.ndarray) -> np.ndarray:
    """``P_dc`` for the multi-click coarse graining ``cg``, built block by block.

    The reference for ``coarse_grained_dc_ansatz`` on a map that never
    demotes a multi-click: the non-multi block of ``P_db`` is kept, the multi
    rows of each non-multi column are summed into the last row, and the multi
    event stays put.
    """
    merged_row = cg.argmax(axis=0)
    multi_row = cg.shape[0] - 1
    non_multi = np.flatnonzero(merged_row != multi_row)
    multi = np.flatnonzero(merged_row == multi_row)
    assert not p_db[np.ix_(non_multi, multi)].any(), "the map demotes a multi-click"
    n = len(non_multi)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = p_db[np.ix_(non_multi, non_multi)]
    out[n, :n] = p_db[np.ix_(multi, non_multi)].sum(axis=0)
    out[n, n] = 1.0
    return out


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
    return POVM(f_ideal.layout, (1.0 - q0) * f_ideal.dense + q0 * q_povm.dense, f_ideal.events)


def deviation_q_oracle(f_noise, f_ideal):
    """The smallest admissible deviation ``q*``, eigensolved in ``mpmath`` at 50 digits.

    Per element and block, the largest t with F_noise >= t F_ideal is
    1 / lmax(N^{-1/2} F_ideal N^{-1/2}) on the support of N = F_noise
    (its eigenvalues above 1e-30), provided F_ideal has no weight off that
    support (else t = 0).  Returns ``1 - min(1, min t)`` as an ``mpf``,
    exact for the stored doubles up to the working precision.
    """
    with mpmath.workdps(50):
        tiny = mpmath.mpf("1e-30")
        t_min = mpmath.mpf(1)
        for lab in f_noise.layout.labels:
            for noise_block, ideal_block in zip(f_noise.block(lab), f_ideal.block(lab)):
                n = mpmath.matrix(noise_block.tolist())
                f = mpmath.matrix(ideal_block.tolist())
                n, f = (n + n.H) / 2, (f + f.H) / 2
                vals, vecs = mpmath.eigh(n)
                on = [j for j in range(n.rows) if vals[j] > tiny]
                off = [j for j in range(n.rows) if vals[j] <= tiny]
                if off:
                    q_off = _columns(vecs, off)
                    if mpmath.mnorm(q_off.H * f * q_off, 1) > tiny:
                        return mpmath.mpf(1)
                if not on:
                    continue
                whitened = _columns(vecs, on) * mpmath.diag([1 / mpmath.sqrt(vals[j]) for j in on])
                x = whitened.H * f * whitened
                x = (x + x.H) / 2
                lmax = max(mpmath.eigh(x, eigvals_only=True))
                if lmax > tiny:
                    t_min = min(t_min, 1 / lmax)
        return 1 - t_min


def _columns(mat, cols):
    out = mpmath.matrix(mat.rows, len(cols))
    for c_out, c in enumerate(cols):
        for r in range(mat.rows):
            out[r, c_out] = mat[r, c]
    return out


def reference_choi(terms, d_in: int, d_out: int, depth: int = 1) -> np.ndarray:
    """Dense ``(depth, dim, dim)`` Choi matrices of a sum of CP terms, term by term.

    The dense assembly that ``ChoiSupport`` replaces: a keep-blocks term is
    ``weight |v><v|`` with ``v = P^T.ravel()``, a measure-prepare term
    ``sum_k ops_k^T (x) preps_k``, each per stack entry (a term without a
    stack axis is the same at every entry).
    """
    dim = d_in * d_out
    out = np.zeros((depth, dim, dim), dtype=complex)
    for term in terms:
        if hasattr(term, "projector"):
            v = np.asarray(term.projector, dtype=complex).T.ravel()
            weights = np.broadcast_to(np.asarray(term.weight, dtype=float), (depth,))
            for c in range(depth):
                out[c] += weights[c] * np.outer(v, v.conj())
        else:
            ops = np.asarray(term.ops, dtype=complex)
            preps = np.asarray(term.preps, dtype=complex)
            ops = np.broadcast_to(ops, (depth, *ops.shape[-3:]))
            preps = np.broadcast_to(preps, (depth, *preps.shape[-3:]))
            for c in range(depth):
                for op, prep in zip(ops[c], preps[c]):
                    out[c] += np.kron(op.T, prep)
    return out


def reference_heisenberg(j: np.ndarray, d_in: int, d_out: int, ops) -> np.ndarray:
    """``Phi_J^dag(F)`` of a dense Choi matrix for each ``F`` of ``ops``, from the definition.

    ``<b|Phi^dag(F)|a> = Tr[F Phi(|a><b|)]`` with ``Phi(|a><b|)`` the
    ``(a, b)`` block of ``J``.
    """
    j4 = np.asarray(j).reshape(d_in, d_out, d_in, d_out)
    return np.array([np.einsum("ji,aibj->ba", f, j4) for f in ops])


def _reference_fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize {x}")
    return format(float(x), ".17g")


def reference_canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    The recursive serializer that ``report.canonical_json`` replaces, kept
    as the oracle for its bytes.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [reference_canonical_json(v, indent + 1) for v in list(obj)]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            parts.append(f"{inner}{json.dumps(str(key))}: {reference_canonical_json(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)}")
