from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import reference_dark_count_matrix, reference_multiclick_ansatz
from scipy.optimize import linprog

import detcert.postprocessing as postprocessing
from detcert import (
    CoarseGraining,
    StochasticMatrix,
    apply_postprocessing,
    bb84_qubit_squasher,
    bb84_squashed_dark_matrix,
    build_threshold_povm,
    coarse_grained_dc_ansatz,
    dark_count_matrix,
    enumerate_events,
    multiclick_coarse_graining,
    passive_bb84_setup,
    single_photon_loss_matrix,
    solve_swap_lp,
    validate_dark_count_pp,
)


def test_dark_matrix_single_detector():
    np.testing.assert_allclose(
        dark_count_matrix([0.1]).entries, [[0.9, 0.0], [0.1, 1.0]], atol=1e-15
    )


def test_dark_matrix_two_detectors_no_click_column():
    d1, d2 = 0.07, 0.2
    col = dark_count_matrix([d1, d2]).entries[:, 0]
    np.testing.assert_allclose(
        col,
        [(1 - d1) * (1 - d2), d1 * (1 - d2), d2 * (1 - d1), d1 * d2],
        atol=1e-15,
    )


def test_dark_matrix_zero_rates_is_identity():
    np.testing.assert_allclose(dark_count_matrix([0.0, 0.0]).entries, np.eye(4))


def test_dark_matrix_composition_is_combined_rate():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = rng.uniform(0, 0.3, 3)
        dp = rng.uniform(0, 0.3, 3)
        combined = 1.0 - (1.0 - d) * (1.0 - dp)
        product = dark_count_matrix(dp) @ dark_count_matrix(d)
        np.testing.assert_allclose(
            product.entries, dark_count_matrix(combined).entries, atol=1e-12
        )


def test_dark_matrix_rejects_bad_rate():
    with pytest.raises(ValueError):
        dark_count_matrix([0.5, 1.4])


def test_loss_matrix_values():
    np.testing.assert_allclose(
        single_photon_loss_matrix([0.8]).entries, [[1.0, 0.2], [0.0, 0.8]]
    )
    np.testing.assert_allclose(
        single_photon_loss_matrix([1.0, 1.0]).entries, np.eye(3)
    )
    np.testing.assert_allclose(
        single_photon_loss_matrix([0.8, 0.6]).entries,
        [[1.0, 0.2, 0.4], [0.0, 0.8, 0.0], [0.0, 0.0, 0.6]],
    )


def test_loss_matrix_accepts_zero_efficiency():
    np.testing.assert_array_equal(
        single_photon_loss_matrix([0.0, 0.5]).entries,
        [[1.0, 1.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]],
    )


def test_column_stochastic_under_composition():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = dark_count_matrix(rng.uniform(0, 0.5, 2))
        b = dark_count_matrix(rng.uniform(0, 0.5, 2))
        prod = (a @ b).entries
        np.testing.assert_allclose(prod.sum(axis=0), np.ones(4), atol=1e-10)
        assert prod.min() >= 0.0


def test_stochastic_matrix_validation():
    with pytest.raises(ValueError, match="sum"):
        StochasticMatrix([[0.5, 0.0], [0.4, 1.0]])
    with pytest.raises(ValueError, match="negative"):
        StochasticMatrix([[1.1, 0.0], [-0.1, 1.0]])


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: StochasticMatrix([[np.nan]]), "NaN"),
        (lambda: StochasticMatrix([[1.0, np.nan], [0.0, 1.0]]), "NaN"),
        (lambda: dark_count_matrix([np.nan]), "dark rates"),
        (lambda: dark_count_matrix([0.01, np.nan]), "dark rates"),
        (lambda: single_photon_loss_matrix([np.nan]), "efficiencies"),
        (lambda: passive_bb84_setup([np.nan, 0.5, 0.5, 0.5]), "efficiencies"),
    ],
    ids=["stochastic", "stochastic-column", "dark", "dark-second", "loss", "passive-setup"],
)
def test_range_checks_reject_nan(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_dark_conditions_hold_for_any_rates():
    rng = np.random.default_rng(6)
    for k in (1, 2, 3, 4):
        events = enumerate_events(k)
        for _ in range(5):
            report = validate_dark_count_pp(
                dark_count_matrix(rng.uniform(0, 0.9, k)), events
            )
            assert report.passed


def test_dark_conditions_catch_click_erasure():
    events = enumerate_events(1)
    bad = StochasticMatrix([[0.9, 0.1], [0.1, 0.9]])
    report = validate_dark_count_pp(bad, events)
    assert not report.passed
    assert (0, 1) in report.click_erased


def test_dark_conditions_catch_single_to_single():
    events = enumerate_events(2)
    entries = dark_count_matrix([0.1, 0.1]).entries.copy()
    entries[1, 2] += 0.05
    entries[2, 2] -= 0.05
    report = validate_dark_count_pp(StochasticMatrix(entries), events)
    assert not report.passed
    assert (1, 2) in report.single_to_single


def test_dark_conditions_catch_survival_ordering():
    events = enumerate_events(1)
    # single click survives less often than no-click does
    bad = StochasticMatrix([[0.5, 0.6], [0.5, 0.4]])
    # P[0|1] > 0 also trips condition 2, so check condition 3 directly
    report = validate_dark_count_pp(bad, events)
    assert 1 in report.survival_violations


def test_multiclick_coarse_graining_k2():
    cg = multiclick_coarse_graining(enumerate_events(2))
    np.testing.assert_allclose(cg.entries, np.eye(4))
    assert cg.row_table.labels == ("00", "01", "10", "multi")


def test_multiclick_coarse_graining_k4():
    cg = multiclick_coarse_graining(enumerate_events(4))
    assert cg.shape == (6, 16)
    assert cg.entries[5].sum() == 11
    np.testing.assert_allclose(cg.entries[:5, :5], np.eye(5))


def test_multiclick_coarse_graining_idempotent_on_image():
    cg = multiclick_coarse_graining(enumerate_events(3))
    lifted = multiclick_coarse_graining(cg.row_table)
    np.testing.assert_allclose(
        (lifted @ cg).entries, cg.entries, atol=1e-15
    )


def test_multiclick_coarse_graining_needs_multi_events():
    with pytest.raises(ValueError):
        multiclick_coarse_graining(enumerate_events(1))


def test_squasher_after_dark_counts_product():
    # the printed product: squashing the dark-counted statistics merges the
    # double click into random singles, leaving the forced 3x3 block plus a
    # column (0, 1/2, 1/2) that a stochastic solution must reproduce
    d1, d2 = 0.04, 0.09
    product = (bb84_qubit_squasher() @ dark_count_matrix([d1, d2])).entries
    expected = np.array(
        [
            [(1 - d1) * (1 - d2), 0.0, 0.0, 0.0],
            [d1 * (1 - d2 / 2), 1 - d2 / 2, d1 / 2, 0.5],
            [d2 * (1 - d1 / 2), d2 / 2, 1 - d1 / 2, 0.5],
        ]
    )
    np.testing.assert_allclose(product, expected, atol=1e-14)


@pytest.mark.parametrize("d", [0.01, 0.05, 0.1])
def test_swap_lp_reproduces_forced_solution(d):
    result = solve_swap_lp(dark_count_matrix([d, d]), bb84_qubit_squasher())
    assert result.feasible
    np.testing.assert_allclose(
        result.matrix.entries, bb84_squashed_dark_matrix(d).entries, atol=1e-9
    )


def test_swap_lp_unequal_rates_infeasible():
    p_db, p_sq = dark_count_matrix([0.01, 0.02]), bb84_qubit_squasher()
    result = solve_swap_lp(p_db, p_sq)
    assert not result.feasible
    assert result.matrix is None
    assert result.residual > 100 * result.tolerance
    # at tol = that residual the verdict flips, on the residual of the returned matrix
    at_tol = solve_swap_lp(p_db, p_sq, tol=result.residual)
    assert at_tol.feasible
    assert at_tol.residual == result.residual
    assert postprocessing.swap_residual(at_tol.matrix.entries, p_sq.entries, p_db.entries) == result.residual


@pytest.mark.parametrize(
    ("p_sq", "expected"),
    [
        (bb84_qubit_squasher().entries, np.eye(3)),
        # everything merged into row 0: the start vertex P_dc = e_0 1^T is
        # optimal at t = 0, with a fully degenerate basis
        (np.eye(3)[[0, 0, 0, 0]].T, np.eye(3)[[0, 0, 0]].T),
        (np.ones((1, 4)), np.ones((1, 1))),  # one output
    ],
    ids=["squasher", "merged-into-row-0", "one-row"],
)
def test_swap_lp_identity_case(p_sq, expected):
    result = solve_swap_lp(StochasticMatrix(np.eye(4)), StochasticMatrix(p_sq))
    assert result.feasible
    assert result.residual == pytest.approx(_reference_swap_lp(np.eye(4), p_sq), abs=1e-12)
    np.testing.assert_allclose(result.matrix.entries, expected, atol=1e-9)


def test_swap_lp_solution_reverified_independently():
    p_sq = bb84_qubit_squasher()
    result = solve_swap_lp(dark_count_matrix([0.08, 0.08]), p_sq)
    assert result.feasible
    residual = np.abs(
        result.matrix.entries @ p_sq.entries
        - p_sq.entries @ dark_count_matrix([0.08, 0.08]).entries
    ).max()
    assert residual <= 1e-9
    assert residual == pytest.approx(result.residual, abs=1e-12)


def test_swap_lp_infeasible_verdict_carries_dual_bound():
    # strong duality: the bound from the final tableau's dual weights is the optimum
    result = solve_swap_lp(dark_count_matrix([0.01, 0.02]), bb84_qubit_squasher())
    assert not result.feasible
    assert result.dual_bound == pytest.approx(result.residual, abs=1e-12)
    assert solve_swap_lp(dark_count_matrix([0.05, 0.05]), bb84_qubit_squasher()).dual_bound is None


def test_swap_lp_unproved_infeasibility_raises(monkeypatch):
    # an infeasible verdict stands only on a dual bound above tolerance
    monkeypatch.setattr(postprocessing, "_dual_bound", lambda w, s, target: 0.0)
    with pytest.raises(RuntimeError, match="dual bound"):
        solve_swap_lp(dark_count_matrix([0.01, 0.02]), bb84_qubit_squasher())
    feasible = solve_swap_lp(dark_count_matrix([0.05, 0.05]), bb84_qubit_squasher())
    assert feasible.feasible


def _reference_swap_lp(p_db, p_sq):
    """HiGHS on the same min-t LP, one row per entry and sign, at its tightest feasibility tolerances."""
    target = p_sq @ p_db
    n_out, n_in = target.shape
    n_var = n_out * n_out + 1
    rows, rhs = [], []
    for i in range(n_out):
        for j in range(n_in):
            for sign in (1.0, -1.0):
                coeff = np.zeros(n_var)
                coeff[i * n_out : (i + 1) * n_out] = sign * p_sq[:, j]
                coeff[-1] = -1.0
                rows.append(coeff)
                rhs.append(sign * target[i, j])
    a_eq = np.zeros((n_out, n_var))
    for col in range(n_out):
        a_eq[col, col : n_out * n_out : n_out] = 1.0
    cost = np.zeros(n_var)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=rhs, A_eq=a_eq, b_eq=np.ones(n_out),
                  bounds=[(0, None)] * n_var, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return res.fun


def _exact_lp_min(a, b, cost):
    """``min cost . x`` over ``a x = b, x >= 0`` in rationals: a two-phase tableau simplex, Bland's rule."""
    m, n = len(a), len(cost)
    # Each row scaled to a nonnegative right side, with its own artificial variable.
    rows = [[v if rhs >= 0 else -v for v in (*row, *[Fraction(0)] * m, rhs)] for row, rhs in zip(a, b)]
    for r in range(m):
        rows[r][n + r] = Fraction(1)
    basis = list(range(n, n + m))

    def pivot(r, col):
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        basis[r] = col

    def run(c, columns):
        while True:
            duals = [c[j] for j in basis]
            enter = next((j for j in range(columns) if c[j] < sum(y * row[j] for y, row in zip(duals, rows))), None)
            if enter is None:
                return sum(y * row[-1] for y, row in zip(duals, rows))
            pivot(min((row[-1] / row[enter], basis[i], i) for i, row in enumerate(rows) if row[enter] > 0)[2], enter)

    assert run([0] * n + [1] * m, n + m) == 0, "infeasible"
    for r in range(m):  # artificials left in the basis are zero: pivot them out
        if basis[r] >= n:
            pivot(r, next(j for j in range(n) if rows[r][j]))
    return run([*cost, *[0] * m], n)


def _exact_swap_lp(p_db, p_sq):
    """The swap LP's optimum for the given doubles, in exact rationals (:func:`_exact_lp_min`)."""
    s = [[Fraction(float(x)) for x in row] for row in np.asarray(p_sq)]
    q = [[Fraction(float(x)) for x in row] for row in np.asarray(p_db)]
    n_out, n_in = len(s), len(q)
    # Variables: P_dc row-major, t, one slack per entry and sign.
    n_p, n_ub = n_out * n_out, 2 * n_out * n_in
    n_var = n_p + 1 + n_ub
    a, b = [], []
    for i in range(n_out):
        for j in range(n_in):
            target = sum(s[i][l] * q[l][j] for l in range(n_in))
            for sign in (1, -1):
                row = [Fraction(0)] * n_var
                for l in range(n_out):
                    row[i * n_out + l] = sign * s[l][j]
                row[n_p] = Fraction(-1)
                row[n_p + 1 + len(a)] = Fraction(1)
                a.append(row)
                b.append(sign * target)
    for col in range(n_out):
        a.append([Fraction(int(v < n_p and v % n_out == col)) for v in range(n_var)])
        b.append(Fraction(1))
    return _exact_lp_min(a, b, [Fraction(int(v == n_p)) for v in range(n_var)])


def _random_stochastic(rng, n_rows, n_cols):
    # sparse, coarsely quantised entries and repeated rows give degenerate pivots
    kind = rng.integers(3)
    if kind == 0:
        a = rng.random((n_rows, n_cols))
    elif kind == 1:
        a = rng.integers(0, 3, size=(n_rows, n_cols)).astype(float)
    else:
        a = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.4)
    if n_rows > 1 and rng.random() < 0.5:
        a[rng.integers(n_rows)] = a[rng.integers(n_rows)]
    a[rng.integers(n_rows, size=n_cols), range(n_cols)] += 1.0
    return a / a.sum(axis=0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_in=st.integers(1, 5), n_out=st.integers(1, 6))
def test_swap_lp_matches_reference_solver(seed, n_in, n_out):
    rng = np.random.default_rng(seed)
    p_sq = _random_stochastic(rng, n_out, n_in)
    p_db = np.eye(n_in) if rng.random() < 0.25 else _random_stochastic(rng, n_in, n_in)
    optimum = _reference_swap_lp(p_db, p_sq)
    result = solve_swap_lp(StochasticMatrix(p_db), StochasticMatrix(p_sq))
    assert result.feasible == (optimum <= result.tolerance)
    assert result.residual == pytest.approx(optimum, abs=1e-9)
    if result.feasible:
        # the verdict and the reported residual are those of the returned matrix
        assert result.residual == postprocessing.swap_residual(result.matrix.entries, p_sq, p_db)
    else:
        assert result.dual_bound == pytest.approx(optimum, abs=1e-9)
        # the bound holds for every column-stochastic P, not only the optimum
        target = p_sq @ p_db
        for p in rng.dirichlet(np.ones(n_out), size=(20, n_out)).transpose(0, 2, 1):
            assert np.abs(p @ p_sq - target).max() >= result.dual_bound - 1e-12


def _pair_scores(pair, s, p_db):
    """A ``(P_dc, W)`` pair scored as :func:`solve_swap_lp` scores it: (residual, dual bound)."""
    p_dc, w = pair
    p_dc = np.clip(p_dc, 0.0, None)
    p_dc = p_dc / p_dc.sum(axis=0)
    return postprocessing.swap_residual(p_dc, s, p_db), postprocessing._dual_bound(w, s, s @ p_db)


def _kernel_pair_scores(s, p_db):
    """The closed form's pair scored by :func:`_pair_scores`, or None."""
    pair = postprocessing._kernel_pair(s, s @ p_db)
    return None if pair is None else _pair_scores(pair, s, p_db)


def _kernel_pair_from_scratch(s, target):
    """The closed-form pair with nothing kept between calls: the reference for the kept kernel plan."""
    n_out, n_in = s.shape
    if n_in - n_out not in (0, 1) or np.linalg.matrix_rank(s) < n_out:
        return None
    w = np.zeros_like(target)
    keep = np.ones(n_in, dtype=bool)
    if n_in > n_out:
        drop_one = np.nonzero(~np.eye(n_in, dtype=bool))[1].reshape(n_in, n_out)
        z = (-1.0) ** np.arange(n_in) * np.linalg.det(s[:, drop_one].swapaxes(0, 1))
        c = target @ z
        target = target - np.outer(c, np.sign(z)) / np.abs(z).sum()
        worst = np.argmax(np.abs(c))
        w[worst] = -np.sign(c[worst]) * z
        keep[np.argmax(np.abs(z))] = False
    p_dc = np.linalg.solve(s[:, keep].T, target[:, keep].T).T
    return (p_dc, w) if (p_dc >= -postprocessing._ENTRY_TOL).all() else None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_out=st.integers(1, 6), nullity=st.integers(0, 1),
       fortran=st.booleans())
def test_kept_kernel_plan_gives_the_pair_bit_for_bit(seed, n_out, nullity, fortran):
    rng = np.random.default_rng(seed)
    p_sq = _random_stochastic(rng, n_out, n_out + nullity)
    assume(np.linalg.matrix_rank(p_sq) == n_out)
    target = p_sq @ _random_stochastic(rng, n_out + nullity, n_out + nullity)
    want = _kernel_pair_from_scratch(p_sq, target)
    postprocessing._kernel_plan.cache_clear()
    s = np.asfortranarray(p_sq) if fortran else p_sq
    for _ in range(2):  # built, then found
        got = postprocessing._kernel_pair(s, target)
        if want is None:
            assert got is None
        else:
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert postprocessing._kernel_plan.cache_info().hits == 1


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_out=st.integers(1, 6), nullity=st.integers(0, 1))
def test_closed_form_pair_is_optimal_for_full_row_rank_nullity_at_most_one(seed, n_out, nullity):
    rng = np.random.default_rng(seed)
    n_in = n_out + nullity
    p_sq = _random_stochastic(rng, n_out, n_in)
    assume(np.linalg.matrix_rank(p_sq) == n_out)
    p_db = np.eye(n_in) if rng.random() < 0.25 else _random_stochastic(rng, n_in, n_in)
    scores = _kernel_pair_scores(p_sq, p_db)
    assume(scores is not None)  # a negative closed-form P_dc goes to the simplex
    residual, bound = scores
    assert residual == pytest.approx(bound, abs=1e-12)
    assert residual == pytest.approx(_reference_swap_lp(p_db, p_sq), abs=1e-9)


def test_squasher_swap_lp_never_reaches_the_simplex(monkeypatch):
    def refuse(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(postprocessing, "_simplex", refuse)
    p_sq = bb84_qubit_squasher()
    rates = [0.0, *np.logspace(-12, 0, 25)]
    for d1 in rates:
        for d2 in rates:
            result = solve_swap_lp(dark_count_matrix([d1, d2]), p_sq)
            # the optimum is |d1 - d2| / 8: the kernel vector (0, 1/2, 1/2, -1) meets rows 1 and 2
            assert result.residual == pytest.approx(abs(d1 - d2) / 8, abs=1e-15)
            assert result.feasible == (result.residual <= result.tolerance)
            if not result.feasible:
                assert result.dual_bound == pytest.approx(result.residual, abs=1e-15)


@pytest.mark.parametrize(
    ("p_sq", "p_db"),
    [
        # nullity 2: the squasher with its double-click column repeated
        ([[1, 0, 0, 0, 0], [0, 1, 0, 0.5, 0.5], [0, 0, 1, 0.5, 0.5]],
         np.block([[dark_count_matrix([0.01, 0.02]).entries, np.zeros((4, 1))], [np.zeros((1, 4)), 1.0]])),
        # rank-deficient: two equal rows
        ([[0.5, 0, 0.5, 0], [0.5, 0, 0.5, 0], [0, 1, 0, 1]], dark_count_matrix([0.01, 0.02]).entries),
        # full row rank and nullity 1, but the closed-form P_dc is [[1.25, 0.25], [-0.25, 0.75]]
        ([[1, 0, 0.5], [0, 1, 0.5]], [[1, 0, 1], [0, 1, 0], [0, 0, 0]]),
    ],
    ids=["nullity-2", "rank-deficient", "negative-closed-form"],
)
def test_swap_lp_falls_back_to_the_simplex(monkeypatch, p_sq, p_db):
    p_sq, p_db = np.array(p_sq, dtype=float), np.array(p_db, dtype=float)
    assert postprocessing._kernel_pair(p_sq, p_sq @ p_db) is None
    calls = []
    simplex = postprocessing._simplex
    monkeypatch.setattr(postprocessing, "_simplex", lambda *args: calls.append(1) or simplex(*args))
    result = solve_swap_lp(StochasticMatrix(p_db), StochasticMatrix(p_sq))
    assert calls == [1]
    assert result.residual == pytest.approx(_reference_swap_lp(p_db, p_sq), abs=1e-9)
    assert result.residual == pytest.approx(float(_exact_swap_lp(p_db, p_sq)), abs=1e-15)


NULLITY_2 = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0.5, 0.5], [0, 0, 1, 0.5, 0.5]])


@pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9, 1e-12])
def test_simplex_reaches_the_exact_optimum_at_small_rates(d):
    # The squasher with its double-click column repeated, rates [0, d]: the
    # exact optimum is d/8.  Ratios tying within an absolute 1e-9 made the
    # simplex stop at residual d with dual bound 0 below about d = 1e-9.
    p_db = np.block([[dark_count_matrix([0.0, d]).entries, np.zeros((4, 1))], [np.zeros((1, 4)), 1.0]])
    optimum = float(_exact_swap_lp(p_db, NULLITY_2))
    assert optimum == pytest.approx(d / 8, rel=1e-12)
    residual, bound = _pair_scores(postprocessing._simplex_pair(NULLITY_2, NULLITY_2 @ p_db), NULLITY_2, p_db)
    assert residual == pytest.approx(optimum, abs=1e-15)
    assert bound == pytest.approx(optimum, abs=1e-15)


def test_swap_lp_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_swap_lp(dark_count_matrix([0.1]), bb84_qubit_squasher())


def test_coarse_ansatz_frozen_column():
    # k=2, d=(0.1, 0.2): multi mass out of the no-click column is d1*d2
    cg = multiclick_coarse_graining(enumerate_events(2))
    p_db = dark_count_matrix([0.1, 0.2])
    p_dc = coarse_grained_dc_ansatz(p_db, cg)
    np.testing.assert_allclose(
        p_dc.entries[:, 0], [0.72, 0.08, 0.18, 0.02], atol=1e-15
    )
    np.testing.assert_allclose(
        cg.entries @ p_db.entries, p_dc.entries @ cg.entries, atol=1e-15
    )


def test_coarse_ansatz_zero_rates():
    cg = multiclick_coarse_graining(enumerate_events(3))
    p_dc = coarse_grained_dc_ansatz(dark_count_matrix([0.0, 0.0, 0.0]), cg)
    np.testing.assert_allclose(p_dc.entries, np.eye(5))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coarse_ansatz_satisfies_conditions(k):
    rng = np.random.default_rng(10 + k)
    cg = multiclick_coarse_graining(enumerate_events(k))
    for _ in range(10):
        p_db = dark_count_matrix(rng.uniform(0, 0.1, k))
        p_dc = coarse_grained_dc_ansatz(p_db, cg)
        assert validate_dark_count_pp(p_dc, cg.row_table).passed
        np.testing.assert_allclose(
            cg.entries @ p_db.entries, p_dc.entries @ cg.entries, atol=1e-12
        )


def test_coarse_graining_rejects_an_output_no_outcome_merges_into():
    # Full row rank is what makes the swap solution the column mean.
    with pytest.raises(ValueError, match="each row must merge at least one outcome"):
        CoarseGraining([[1.0, 1.0], [0.0, 0.0]])


def test_coarse_ansatz_rejects_demoting_map():
    # With one multi column the swap always has a solution; the demotion is
    # rejected by the structural conditions, as click erasure.
    events = enumerate_events(2)
    cg = multiclick_coarse_graining(events)
    entries = dark_count_matrix([0.1, 0.1]).entries.copy()
    entries[0, 3] += 0.2  # multi-click demoted to no-click
    entries[3, 3] -= 0.2
    p_dc = coarse_grained_dc_ansatz(StochasticMatrix(entries), cg)
    report = validate_dark_count_pp(p_dc, cg.row_table)
    assert not report.passed
    assert report.click_erased == ((0, 3),)


def test_coarse_ansatz_names_the_column_without_swap_solution():
    # k = 3: the multi columns are events 3, 5, 6 and 7.  Demoting event 5
    # to a single click and no other leaves the merged columns unequal.
    events = enumerate_events(3)
    cg = multiclick_coarse_graining(events)
    entries = dark_count_matrix([0.1, 0.05, 0.02]).entries.copy()
    entries[1, 5] += 0.2
    entries[5, 5] -= 0.2
    with pytest.raises(ValueError, match=r"column 5 of M P_db is 1\.500e-01 from the mean"):
        coarse_grained_dc_ansatz(StochasticMatrix(entries), cg)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dark_matrix_is_bit_equal_to_the_loop(data):
    k = data.draw(st.integers(1, 4))
    rates = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    assert np.array_equal(dark_count_matrix(rates).entries, reference_dark_count_matrix(rates))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coarse_ansatz_is_bit_equal_to_the_block_construction(data):
    k = data.draw(st.integers(2, 4))
    rates = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    cg = multiclick_coarse_graining(enumerate_events(k))
    p_db = dark_count_matrix(rates)
    assert np.array_equal(
        coarse_grained_dc_ansatz(p_db, cg).entries,
        reference_multiclick_ansatz(p_db.entries, cg.entries),
    )


def _inject_single_to_single(v):
    entries = dark_count_matrix([0.1, 0.1]).entries.copy()
    entries[1, 2], entries[2, 2] = v, entries[2, 2] - v
    return entries, v


def _inject_click_erased(v):
    entries = dark_count_matrix([0.1, 0.1]).entries.copy()
    entries[0, 3], entries[3, 3] = v, 1.0 - v
    return entries, v


def _inject_survival(v):
    entries = dark_count_matrix([0.1, 0.1]).entries.copy()
    entries[1, 1] = entries[0, 0] - v
    entries[3, 1] = 1.0 - entries[1, 1]
    return entries, entries[0, 0] - entries[1, 1]


@pytest.mark.parametrize(
    "inject, field, where",
    [
        (_inject_single_to_single, "single_to_single", (1, 2)),
        (_inject_click_erased, "click_erased", (0, 3)),
        (_inject_survival, "survival_violations", 1),
    ],
    ids=["single-to-single", "click-erased", "survival"],
)
@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 + 1e-6])
def test_dark_conditions_residual_is_the_violation(inject, field, where, scale):
    tol = 1e-9
    entries, violation = inject(tol * scale)
    report = validate_dark_count_pp(StochasticMatrix(entries), enumerate_events(2), tol)
    assert report.residual == violation
    assert violation == pytest.approx(tol * scale, rel=1e-8)
    assert report.tolerance == tol
    assert report.passed == (scale < 1.0)
    assert getattr(report, field) == (() if scale < 1.0 else (where,))


def _summed_term_by_term(p: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Reference ``G' = P G``: each output element summed in column order, zero weights skipped."""
    out = np.zeros((p.shape[0],) + dense.shape[1:], dtype=complex)
    for i, row in enumerate(p):
        for j in np.flatnonzero(row):
            out[i] += row[j] * dense[j]
    return out


@pytest.mark.parametrize("cutoff", [1, 2])
def test_coarse_graining_contraction_equals_term_by_term_sum(cutoff):
    cg = multiclick_coarse_graining(enumerate_events(4))
    rng = np.random.default_rng(cutoff)
    for eta in (np.ones(4), rng.uniform(0.05, 1.0, 4)):
        povm = build_threshold_povm(passive_bb84_setup(eta), cutoff)
        merged = apply_postprocessing(cg, povm)
        np.testing.assert_array_equal(merged.dense, _summed_term_by_term(cg.entries, povm.dense))
        assert merged.events is cg.row_table
