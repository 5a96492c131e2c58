"""The closed forms the certificate rests on, proved symbolically.

Each formula is stated once in ``sympy``; each fact about it is an exact
identity, and each sign fact on the box ``[0, 1]^2`` is read off from
factors of visible sign.  A hypothesis test compares the numeric builder
with the stated formula.

The squasher's swap LP (Beaudry, Moroder and Lütkenhaus, PRL 101, 093601
(2008)): for dark rates ``(d1, d2)`` its optimal ``P_dc`` is ``P`` below,
and the optimum is ``|d1 - d2| / 8``.  So every rate pair a descriptor
admits lies in the closed form's domain.
"""

import functools

import numpy as np
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import detcert.postprocessing as postprocessing
from detcert import bb84_qubit_squasher, dark_count_matrix

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


def _bernstein_coefficients(expr):
    """The coefficients of ``expr`` on the products of ``d`` and ``1 - d`` per variable, checked to expand to it.

    ``expr`` must be of degree at most 1 in each rate.  Then it equals
    ``sum_v expr(v) prod_i (d_i if v_i else 1 - d_i)`` over the box's
    vertices ``v``: each product is a product of factors that are
    nonnegative on ``[0, 1]^2``, so nonnegative coefficients prove ``expr >=
    0`` there.
    """
    assert all(sp.degree(expr, d) <= 1 for d in (D1, D2)), expr
    coefficients, expansion = [], 0
    for v1 in (0, 1):
        for v2 in (0, 1):
            value = expr.subs({D1: v1, D2: v2})
            coefficients.append(value)
            expansion += value * (D1 if v1 else 1 - D1) * (D2 if v2 else 1 - D2)
    assert sp.expand(expansion - expr) == 0
    return coefficients


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

