"""The closed forms the certificate rests on, proved symbolically.

Each formula is stated once in ``sympy``; each fact about it is an exact
identity, and each sign fact on a box is read off from nonnegative
Bernstein coefficients or from factors of visible sign.  A hypothesis test
compares each numeric builder with its stated formula.

The squasher's swap LP (Beaudry, Moroder and Lütkenhaus, PRL 101, 093601
(2008)): for dark rates ``(d1, d2)`` its optimal ``P_dc`` is ``P`` below,
and the optimum is ``|d1 - d2| / 8``.  So every rate pair a descriptor
admits lies in the closed form's domain.  At equal rates ``P`` is
``bb84_squashed_dark_matrix``, which ``bb84_simple_noise_channel`` realises
on vacuum + qubit for every ``d`` in ``[0, 1]``.

The passive analysis rests on the dark-count product map, the columns the
multi-click coarse graining merges, the lower end of the ``eta_star``
interval, the loss split's keep probabilities and the weight relations
behind ``propagate_weight``.  Two of the analysis's preconditions hold by
construction on every isometric setup: the click-count assumption of the
cutoff-1 threshold POVM and the dark-count conditions, each with residual
exactly 0.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detcert.postprocessing as postprocessing
from detcert import (
    DetectionSetup,
    apply_postprocessing,
    bb84_qubit_measurement,
    bb84_qubit_squasher,
    bb84_simple_noise_channel,
    bb84_squashed_dark_matrix,
    build_threshold_povm,
    coarse_grained_dc_ansatz,
    dark_count_matrix,
    enumerate_events,
    eta_star_range,
    multiclick_coarse_graining,
    propagate_weight,
    validate_dark_count_pp,
    verify_single_photon_assumption,
)
from detcert.channels import _loss_split_entries

D1, D2 = sp.symbols("d1 d2", nonnegative=True)

# The qubit squasher: no-click and single clicks pass, a double click goes to either single.
S = sp.Matrix([[1, 0, 0, 0], [0, 1, 0, sp.Rational(1, 2)], [0, 0, 1, sp.Rational(1, 2)]])

# The squasher's optimal P_dc.
P = sp.Matrix(
    [
        [(1 - D1) * (1 - D2), 0, 0],
        [D1 * (2 - D2) / 2, 1 - (D1 + 3 * D2) / 8, (3 * D1 + D2) / 8],
        [D2 * (2 - D1) / 2, (D1 + 3 * D2) / 8, 1 - (3 * D1 + D2) / 8],
    ]
)


def _dark_count_matrix(rates):
    """``P_db[c', c] = prod_i D_i[c'_i, c_i]`` with ``D_i = [[1 - d_i, 0], [d_i, 1]]``; pattern bit ``i`` is detector ``i``."""
    per_detector = [sp.Matrix([[1 - d, 0], [d, 1]]) for d in rates]
    n = 2 ** len(rates)
    return sp.Matrix(
        n, n, lambda out, inp: sp.prod(m[(out >> i) & 1, (inp >> i) & 1] for i, m in enumerate(per_detector))
    )


TARGET = S * _dark_count_matrix([D1, D2])  # the swap equation's right side, P_sq . P_db


@functools.cache
def _kernel():
    """The kernel vector ``z_j = (-1)^j det S_{-j}`` and ``c = target z``, as ``_kernel_pair`` forms them."""
    cols = range(S.cols)
    z = sp.Matrix([(-1) ** j * S.extract(list(range(S.rows)), [i for i in cols if i != j]).det() for j in cols])
    return z, sp.expand(TARGET * z)


def _bernstein_coefficients(expr, variables=(D1, D2)):
    """The coefficients of ``expr`` on the products of ``x`` and ``1 - x`` per variable, checked to expand to it.

    ``expr`` must be of degree at most 1 in each variable.  Then it equals
    ``sum_v expr(v) prod_i (x_i if v_i else 1 - x_i)`` over the box's
    vertices ``v``: each product is a product of factors that are
    nonnegative on ``[0, 1]^n``, so nonnegative coefficients prove ``expr >=
    0`` there.
    """
    assert all(sp.degree(expr, x) <= 1 for x in variables), expr
    coefficients, expansion = [], 0
    for vertex in itertools.product((0, 1), repeat=len(variables)):
        value = expr.subs(dict(zip(variables, vertex)))
        coefficients.append(value)
        expansion += value * sp.prod(x if v else 1 - x for x, v in zip(variables, vertex))
    assert sp.expand(expansion - expr) == 0
    return coefficients


def _bernstein_coefficients_1d(expr, x, n):
    """The coefficients ``b_i`` of ``expr = sum_i b_i C(n, i) x^i (1 - x)^(n - i)``, checked to expand to it.

    Each basis polynomial is nonnegative on ``[0, 1]``, so nonnegative
    coefficients prove ``expr >= 0`` there (Garloff, Interval Computations
    2, 47 (1993)).
    """
    a = sp.Poly(expr, x).all_coeffs()[::-1]
    assert len(a) <= n + 1, expr
    a += [0] * (n + 1 - len(a))
    b = [sum(sp.binomial(i, j) / sp.binomial(n, j) * a[j] for j in range(i + 1)) for i in range(n + 1)]
    assert sp.expand(sum(b[i] * sp.binomial(n, i) * x**i * (1 - x) ** (n - i) for i in range(n + 1)) - expr) == 0
    return b


def test_stated_squasher_is_the_library_squasher():
    assert np.array_equal(np.array(S, dtype=float), bb84_qubit_squasher().entries)


def test_stated_dark_count_matrix_is_the_library_map():
    # dyadic rates: every entry is exact in floating point
    assert np.array_equal(
        np.array(_dark_count_matrix([sp.Rational(1, 8), sp.Rational(1, 4)]), dtype=float),
        dark_count_matrix([0.125, 0.25]).entries,
    )


def test_squasher_p_columns_sum_to_one():
    assert sp.expand(sp.ones(1, 3) * P - sp.ones(1, 3)) == sp.zeros(1, 3)


def test_squasher_p_is_nonnegative_on_the_box():
    for entry in P:
        assert all(c >= 0 for c in _bernstein_coefficients(sp.expand(entry))), entry


def test_squasher_p_is_the_closed_form_on_the_kernel():
    # P solves P S_keep = (target - c sign(z)^T / ||z||_1)_keep, dropping the column of largest |z_j|
    z, c = _kernel()
    assert S * z == sp.zeros(3, 1) and z.norm(1) == 2
    shifted = TARGET - c * z.applyfunc(sp.sign).T / z.norm(1)
    keep = [j for j in range(4) if j != max(range(4), key=lambda j: abs(z[j]))]
    assert sp.expand(P * S.extract([0, 1, 2], keep) - shifted.extract([0, 1, 2], keep)) == sp.zeros(3, 3)


def test_squasher_p_misses_the_swap_equation_by_an_eighth_of_the_rate_gap():
    gap = (D1 - D2) / 8
    entries = set(sp.expand(P * S - TARGET))
    assert entries <= {0, sp.expand(gap), sp.expand(-gap)} and sp.expand(gap) in entries


def test_kernel_weights_bound_every_p_by_an_eighth_of_the_rate_gap():
    # _dual_bound of W = -s e_i z^T, for s = sign(c_i), is (min-sum of W S^T - <W, target>) / ||W||_1
    z, c = _kernel()
    assert c[0] == 0 and sp.expand(c[1] + c[2]) == 0 and sp.expand(c[1] - (D1 - D2) / 4) == 0
    s = sp.Symbol("s")
    for i in (1, 2):
        w = sp.zeros(3, 4)
        w[i, :] = -s * z.T
        assert w * S.T == sp.zeros(3, 3)
        # -<W, target> = s c_i = |c_i| and ||W||_1 = ||z||_1 = 2: the bound is |d1 - d2| / 8
        assert sp.expand(-sum(w.multiply_elementwise(TARGET)) - s * c[i]) == 0


_P_NUMERIC = sp.lambdify((D1, D2), P, "numpy")
_RATES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-12, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(d1=_RATES, d2=_RATES)
def test_kernel_pair_is_the_stated_p(d1, d2):
    s = bb84_qubit_squasher().entries
    p_dc, _ = postprocessing._kernel_pair(s, s @ dark_count_matrix([d1, d2]).entries)
    np.testing.assert_allclose(p_dc, np.array(_P_NUMERIC(d1, d2), dtype=float), rtol=0, atol=1e-15)


# ------------------------------------------------------------------ active BB84 at equal rates

D = sp.Symbol("d", nonnegative=True)

# bb84_squashed_dark_matrix(d): the swap equation's forced P_dc at equal rates.
P_EQUAL = sp.Matrix(
    [
        [(1 - D) ** 2, 0, 0],
        [D * (1 - D / 2), 1 - D / 2, D / 2],
        [D * (1 - D / 2), D / 2, 1 - D / 2],
    ]
)

# bb84_simple_noise_channel(d) on vacuum + qubit: it measures vacuum or qubit and re-prepares
# (1-d)^2 vacuum + d (1 - d/2) qubit, or (d/2) qubit; and it keeps the qubit with weight 1 - d.
VAC, QUBIT = sp.diag(1, 0, 0), sp.diag(0, 1, 1)
WEIGHTS = ((1 - D) ** 2, D * (1 - D / 2), D / 2, 1 - D)


def _bb84_channel(rho):
    w_vac, w_mixed, w_depolarize, w_keep = WEIGHTS
    return (
        (VAC * rho).trace() * (w_vac * VAC + w_mixed * QUBIT)
        + (QUBIT * rho).trace() * w_depolarize * QUBIT
        + w_keep * QUBIT * rho * QUBIT
    )


def _unit(a, b):
    """``|a><b|`` on vacuum + qubit."""
    return sp.Matrix(3, 3, lambda i, j: int((i, j) == (a, b)))


def _bb84_adjoint(f):
    """``Phi^dag(F)``, from ``Phi^dag(F)[b, a] = Tr[F Phi(|a><b|)]``."""
    return sp.Matrix(3, 3, lambda b, a: sp.expand((f * _bb84_channel(_unit(a, b))).trace()))


def _qubit_projector(ket):
    out = sp.zeros(3, 3)
    out[1:, 1:] = sp.Matrix(ket) * sp.Matrix(ket).T
    return out


_S = sp.sqrt(2) / 2
# The squashed BB84 measurements: the vacuum, then the basis projectors on the qubit.
BB84 = {
    "Z": [VAC, _qubit_projector([1, 0]), _qubit_projector([0, 1])],
    "X": [VAC, _qubit_projector([_S, _S]), _qubit_projector([_S, -_S])],
}


def test_equal_rate_dark_matrix_is_the_squasher_p():
    assert sp.expand(P.subs({D1: D, D2: D}) - P_EQUAL) == sp.zeros(3, 3)


def test_stated_bb84_measurements_are_the_library_measurements():
    for basis, elements in BB84.items():
        want = np.array([np.array(f, dtype=complex) for f in elements])
        np.testing.assert_allclose(bb84_qubit_measurement(basis).dense, want, rtol=0, atol=1e-15)


def test_bb84_channel_meets_the_squashed_statistics_and_preserves_trace():
    # Phi^dag(F_k) = sum_j P_kj F_j in both bases, and Phi^dag(I) = I, for every d
    for elements in BB84.values():
        for k, f in enumerate(elements):
            mixed = sum((P_EQUAL[k, j] * f_j for j, f_j in enumerate(elements)), sp.zeros(3, 3))
            assert sp.expand(_bb84_adjoint(f) - mixed) == sp.zeros(3, 3)
    assert _bb84_adjoint(sp.eye(3)) == sp.eye(3)


def test_bb84_channel_term_weights_are_nonnegative_on_the_unit_interval():
    # Each term is CP at nonnegative weight: measured and prepared operators are projectors,
    # and the kept qubit is a projection.  With Phi^dag(I) = I the channel is CPTP on [0, 1].
    for weight in WEIGHTS:
        assert all(c >= 0 for c in _bernstein_coefficients_1d(sp.expand(weight), D, 2)), weight


def _bb84_choi():
    """``J = sum_ab |a><b| (x) Phi(|a><b|)``, input factor first, as ``QuantumChannel.choi``."""
    return sum(
        (sp.kronecker_product(_unit(a, b), _bb84_channel(_unit(a, b))) for a in range(3) for b in range(3)),
        sp.zeros(9, 9),
    )


_P_EQUAL_NUMERIC = sp.lambdify(D, P_EQUAL, "numpy")
_CHOI_NUMERIC = sp.lambdify(D, _bb84_choi(), "numpy")
_UNIT = st.one_of(st.sampled_from([0.0, 1e-300, 1e-12, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(d=_UNIT)
def test_active_builders_are_their_stated_formulas(d):
    np.testing.assert_allclose(bb84_squashed_dark_matrix(d).entries, _P_EQUAL_NUMERIC(d), rtol=0, atol=1e-15)
    np.testing.assert_allclose(bb84_simple_noise_channel(d).choi, _CHOI_NUMERIC(d), rtol=0, atol=1e-15)


# ---------------------------------------------------------- passive: dark counts, loss and weight

RATES = (D1, D2) + sp.symbols("d3 d4", nonnegative=True)
ETA_MIN, ETA_MAX, ETA_S, ETA_STAR = sp.symbols("eta_min eta_max eta_s eta_star", positive=True)

# The lower end of the eta_star interval, and the loss split's keep probability of single click s.
F_LOW = ETA_MIN / ((1 - ETA_MAX) + ETA_MIN)
KEEP = ETA_STAR * (ETA_S - ETA_MIN) / (ETA_STAR - ETA_MIN)
# propagate_weight: W' = 1 - p00 r (1 - W), r = eta_min / eta_star.
P00, R, W = sp.symbols("p00 r w", nonnegative=True)
WEIGHT_OUT = 1 - P00 * R * (1 - W)


def _canonical_masks(k):
    """Click patterns by click count, then by mask: the order of ``enumerate_events``."""
    return sorted(range(2**k), key=lambda c: (bin(c).count("1"), c))


@functools.cache
def _kronecker_dark_map(k):
    """``D_k (x) ... (x) D_1``, ``D_i = [[1 - d_i, 0], [d_i, 1]]``, rows and columns in canonical order.

    The last factor is detector 1, the lowest bit of a pattern's mask.
    """
    product = sp.kronecker_product(*(sp.Matrix([[1 - d, 0], [d, 1]]) for d in reversed(RATES[:k])))
    order = _canonical_masks(k)
    return product.extract(order, order)


@functools.cache
def _merged_dark_map(k):
    """``M P_db`` for the multi-click coarse graining ``M`` of ``k`` detectors."""
    m = sp.Matrix(multiclick_coarse_graining(enumerate_events(k)).entries.astype(int))
    return m * _kronecker_dark_map(k)


def test_dark_count_matrix_is_the_kronecker_product_in_canonical_order():
    for k in range(1, 5):
        assert _canonical_masks(k) == list(enumerate_events(k).masks)
        order = _canonical_masks(k)
        entrywise = _dark_count_matrix(RATES[:k]).extract(order, order)
        assert sp.expand(_kronecker_dark_map(k) - entrywise) == sp.zeros(2**k, 2**k)


def test_coarse_graining_merges_equal_columns_of_every_product_dark_map():
    # A multi-click pattern keeps its clicks, so it stays multi: each merged column is e_multi.
    for k in range(2, 5):
        merged = _merged_dark_map(k)
        e_multi = sp.zeros(merged.rows, 1)
        e_multi[-1] = 1
        for mu in enumerate_events(k).multi_indices:
            assert sp.expand(merged[:, mu] - e_multi) == sp.zeros(merged.rows, 1)


def test_eta_star_lower_end_grows_with_both_efficiencies():
    # f = eta_min / D with D = (1 - eta_max) + eta_min >= eta_min > 0 on (0, 1]^2
    denominator = (1 - ETA_MAX) + ETA_MIN
    assert all(c >= 0 for c in _bernstein_coefficients(denominator - ETA_MIN, (ETA_MIN, ETA_MAX)))
    for x, numerator in ((ETA_MIN, 1 - ETA_MAX), (ETA_MAX, ETA_MIN)):
        assert sp.simplify(sp.diff(F_LOW, x) - numerator / denominator**2) == 0
        assert all(c >= 0 for c in _bernstein_coefficients(numerator, (ETA_MIN, ETA_MAX)))


def test_loss_split_keeps_the_efficiency_above_the_minimum():
    # (1 - r) keep_s = eta_s - eta_min: r P_eta* + (1 - r) Q survives single click s at eta_s
    assert sp.simplify((1 - ETA_MIN / ETA_STAR) * KEEP - (ETA_S - ETA_MIN)) == 0


def test_weight_relations_give_the_propagated_weight():
    # Phi_loss^dag(P01) - r P01 = (1 - r) P0 >= 0 for r <= 1, with P01 = P0 + P1
    p0, p1 = sp.symbols("P0 P1", commutative=False)
    assert sp.expand(p0 + R * p1 - R * (p0 + p1) - (1 - R) * p0) == 0
    # and Phi_dark^dag(P01) = p00 P01: the kept weight Tr[P01 rho] = 1 - W shrinks at most to p00 r (1 - W)
    assert sp.expand(1 - WEIGHT_OUT - P00 * R * (1 - W)) == 0


_EXACT = {name: sp.lambdify(args, expr, modules=[]) for name, args, expr in (
    ("f_low", (ETA_MIN, ETA_MAX), F_LOW),
    ("keep", (ETA_S, ETA_MIN, ETA_STAR), KEEP),
    ("weight_out", (W, P00, R), WEIGHT_OUT),
)}
_EFFICIENCY = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-100, 0.5, 1.0]), st.floats(0.0, 1.0, exclude_min=True))


@functools.cache
def _passive_numeric(k):
    return (
        sp.lambdify(RATES[:k], _kronecker_dark_map(k), "numpy"),
        sp.lambdify(RATES[:k], _merged_dark_map(k), "numpy") if k > 1 else None,
    )


@settings(max_examples=100, deadline=None)
@given(rates=st.lists(_UNIT, min_size=1, max_size=4))
def test_dark_count_builders_are_their_stated_formulas(rates):
    k = len(rates)
    dark, merged = _passive_numeric(k)
    np.testing.assert_allclose(dark_count_matrix(rates).entries, dark(*rates), rtol=0, atol=1e-15)
    if merged is not None:
        # coarse_grained_dc_ansatz takes, per merged event, the column of M P_db its first pattern gives
        cg = multiclick_coarse_graining(enumerate_events(k))
        first = cg.entries.argmax(axis=1)
        p_dc = coarse_grained_dc_ansatz(dark_count_matrix(rates), cg).entries
        np.testing.assert_allclose(p_dc, np.asarray(merged(*rates), dtype=float)[:, first], rtol=0, atol=1e-15)


def _admissible_eta_star(eta, u):
    """``f + u (1 - f)`` for the :func:`eta_star_range` lower end ``f`` of ``eta``, and ``f``."""
    f = eta_star_range(min(eta), max(eta))[0]
    eta_star = f + u * (1.0 - f)
    assume(min(eta) < eta_star and f <= eta_star <= 1.0)
    return eta_star, f


@settings(max_examples=100, deadline=None)
@given(eta=st.lists(_EFFICIENCY, min_size=2, max_size=4), u=st.floats(0.0, 1.0), weight=_UNIT, p00=_UNIT)
def test_eta_star_and_weight_builders_are_their_stated_formulas(eta, u, weight, p00):
    lo, hi = min(eta), max(eta)
    eta_star, f = _admissible_eta_star(eta, u)
    assert abs(f - float(_EXACT["f_low"](Fraction(lo), Fraction(hi)))) <= 1e-15
    exact_weight = _EXACT["weight_out"](Fraction(weight), Fraction(p00), Fraction(lo) / Fraction(eta_star))
    assert abs(propagate_weight(weight, p00, lo, eta_star) - float(exact_weight)) <= 1e-15


def _exact_keep(eta, eta_star):
    lo = Fraction(min(eta))
    return np.array([float(min(1, _EXACT["keep"](Fraction(e), lo, Fraction(eta_star)))) for e in eta])


# Over efficiencies in [1e-100, 1]; the subnormal ones are the next test's.
@settings(max_examples=100, deadline=None)
@given(eta=st.lists(st.floats(1e-100, 1.0), min_size=2, max_size=4), u=st.floats(0.0, 1.0))
def test_loss_split_builder_is_its_stated_formula(eta, u):
    eta_star, _ = _admissible_eta_star(eta, u)
    keep = np.diag(_loss_split_entries(np.array(eta), eta_star))[1:]
    np.testing.assert_allclose(keep, _exact_keep(eta, eta_star), rtol=0, atol=1e-15)


def test_loss_split_builder_is_its_stated_formula_at_subnormal_efficiencies():
    # eta_star (eta_s - eta_min) would underflow here; both eta_star are
    # admissible, as f rounds to 1.5e-323, and keep 0.6 and 0.9
    eta = [1e-323, 0.3]
    for eta_star, want in ((2e-323, 0.6), (1.5e-323, 0.9)):
        keep = np.diag(_loss_split_entries(np.array(eta), eta_star))[1:]
        np.testing.assert_allclose(keep, _exact_keep(eta, eta_star), rtol=0, atol=1e-15)
        assert keep[1] == pytest.approx(want, rel=1e-15)


@st.composite
def _isometric_setups(draw):
    """An isometric ``k x n_in`` map (QR of a Gaussian, real or complex), efficiencies, rates and a graining flag."""
    k = draw(st.integers(1, 4))
    n_in = draw(st.integers(1, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(k, n_in))
    if draw(st.booleans()):
        g = g + 1j * rng.normal(size=(k, n_in))
    eta = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=k, max_size=k))
    rates = draw(st.lists(_UNIT, min_size=k, max_size=k))
    return np.linalg.qr(g)[0], np.array(eta), rates, k > 1 and draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(case=_isometric_setups())
def test_click_count_and_dark_count_conditions_hold_by_construction(case):
    mode_map, eta, rates, coarse = case
    k = len(mode_map)
    povm = build_threshold_povm(DetectionSetup(k=k, mode_map=mode_map, eta=eta), 1)
    p_db, table = dark_count_matrix(rates), enumerate_events(k)
    if coarse:
        cg = multiclick_coarse_graining(table)
        povm, p_fine = apply_postprocessing(cg, povm), p_db
        p_db, table = coarse_grained_dc_ansatz(p_fine, cg), cg.row_table
        # the merged columns agree only to rounding: the grained swap is not exact
        assert postprocessing.swap_residual(p_db.entries, cg.entries, p_fine.entries) <= 1e-15
    assert verify_single_photon_assumption(povm).max_violation == 0.0
    assert validate_dark_count_pp(p_db, table).residual == 0.0
