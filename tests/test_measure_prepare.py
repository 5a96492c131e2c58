"""The closed-form Choi witness of ``choi-check``, against its definition and the probe.

For the BB84 measurement (three orthogonal rank-one projectors on vacuum
plus one qubit) a channel with ``Phi^dag(F_k) = sum_j P_kj F_j`` exists iff
``P`` is column-stochastic, and the measure-and-prepare channel is then
one.  The dual probe, which searches for a witness or a Farkas ray without
that knowledge, is the reference on a few draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcert import (
    bb84_qubit_measurement,
    choi_feasibility,
    measure_prepare_witness,
    verify_choi_witness,
    verify_farkas_ray,
)

_ENTRY = st.floats(0.0, 1.0, allow_subnormal=True)
_COLUMN = st.lists(_ENTRY, min_size=3, max_size=3).filter(lambda c: sum(c) > 0.0)


def _stochastic(columns) -> np.ndarray:
    p = np.array(columns, dtype=float).T
    return p / p.sum(axis=0)


def _reference_witness(p, povm) -> np.ndarray:
    """``sum_k G_k^T (x) F_k`` with ``G_k = sum_j P_kj F_j``, by Kronecker products."""
    f = povm.dense
    return sum(np.kron(np.tensordot(p[k], f, axes=1).T, f[k]) for k in range(len(f)))


def _with_negative_entry(p, k, j, delta) -> np.ndarray:
    """``p`` with entry ``(k, j)`` set to ``-delta``, the column sum kept by the next row."""
    bent = p.copy()
    bent[(k + 1) % 3, j] += bent[k, j] + delta
    bent[k, j] = -delta
    return bent


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(_COLUMN, min_size=3, max_size=3), basis=st.sampled_from("ZX"))
def test_witness_of_a_stochastic_matrix_passes_at_rounding(columns, basis):
    p = _stochastic(columns)
    povm = bb84_qubit_measurement(basis)
    witness = measure_prepare_witness(p, povm, povm)
    np.testing.assert_allclose(witness, _reference_witness(p, povm), rtol=0, atol=1e-15)
    report = verify_choi_witness(witness, p, povm, povm, 1e-15)
    assert report.passed, report


@settings(max_examples=100, deadline=None)
@given(
    columns=st.lists(_COLUMN, min_size=3, max_size=3),
    k=st.integers(0, 2),
    j=st.integers(0, 2),
    delta=st.floats(1e-12, 1.0),
    basis=st.sampled_from("ZX"),
)
def test_witness_of_a_negative_entry_is_not_psd(columns, k, j, delta, basis):
    p = _with_negative_entry(_stochastic(columns), k, j, delta)
    povm = bb84_qubit_measurement(basis)
    report = verify_choi_witness(measure_prepare_witness(p, povm, povm), p, povm, povm, 1e-15)
    # G_k has the eigenvalue -delta on F_j, and F_k is rank one
    assert report.psd_residual > 0.0 and not report.passed
    assert report.psd_residual == pytest.approx(delta, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("basis", ["Z", "X"])
def test_probe_agrees_with_the_closed_form(seed, basis):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(3), size=3).T
    povm = bb84_qubit_measurement(basis)
    assert verify_choi_witness(measure_prepare_witness(p, povm, povm), p, povm, povm, 1e-15).passed
    found = choi_feasibility(p, povm, povm, tol=1e-6)
    assert found.verdict == "feasible-at-tol"
    assert verify_choi_witness(found.witness, p, povm, povm, 1e-6).passed

    k, j = rng.integers(0, 3, size=2)
    bent = _with_negative_entry(p, k, j, rng.uniform(0.05, 0.3))
    assert not verify_choi_witness(measure_prepare_witness(bent, povm, povm), bent, povm, povm, 1e-6).passed
    refuted = choi_feasibility(bent, povm, povm, tol=1e-6)
    assert refuted.verdict == "infeasible-at-tol"
    assert verify_farkas_ray(refuted.ray, bent, povm, povm, 1e-6).passed
