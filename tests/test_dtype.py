"""The certificate path's dtype follows the data: real mode maps give real arithmetic.

A real map and the same map stored as complex128 must give the same
measurements, targets, Choi matrices and residuals, with the same verdicts;
the shipped setups build only float64 stacks, and a complex map only
complex128 ones.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from detcert import channels, detectors, report
from detcert.channels import ChoiConstraintSystem, ChoiSupport, certify_choi
from detcert.descriptor import descriptor_from_dict, load_descriptor
from detcert.detectors import DetectionSetup, build_threshold_povm, enumerate_events
from detcert.postprocessing import StochasticMatrix, apply_postprocessing, dark_count_matrix, multiclick_coarse_graining
from detcert.squashing import eta_star_range, flag_state_target

DESCRIPTORS = Path(__file__).resolve().parents[1] / "descriptors"
_TOL = 1e-9


@st.composite
def _setups(draw):
    """A real isometric ``k x n_in`` map (QR of a Gaussian), a ``(depth, k)`` efficiency stack, rates and ``eta_star``."""
    k = draw(st.integers(2, 4))
    n_in = draw(st.integers(1, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    etas = np.array(draw(st.lists(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k), min_size=1, max_size=4)))
    rates = draw(st.lists(st.floats(0.0, 0.1), min_size=k, max_size=k))
    low = max(eta_star_range(float(v.min()), float(v.max()))[0] for v in etas)
    eta_star = min(1.0, low + draw(st.floats(0.0, 1.0)) * (1.0 - low))
    return q[:, :n_in], etas, rates, eta_star, draw(st.booleans())


def _certified(mode_map, etas, rates, eta_star, coarse):
    """What the analysis builds and scores at the stack ``etas``, as in ``report._analyze_flag_state``."""
    k, n = len(mode_map), len(etas)
    setup = DetectionSetup(k=k, mode_map=mode_map, eta=np.vstack([etas, np.full(k, eta_star)]))
    povms = build_threshold_povm(setup, 1)
    p = dark_count_matrix(np.vstack([np.tile(rates, (n, 1)), np.zeros(k)]))  # the ideal entry's map is the identity
    q = 1.0 - p.entries[0, 0, 0] * etas.min() / eta_star
    if coarse:
        cg = multiclick_coarse_graining(enumerate_events(k))
        p = StochasticMatrix(cg.entries @ p.entries, cg.row_table)
    targets = flag_state_target(apply_postprocessing(p, povms), 1)
    f_noise, f_ideal = targets.take(slice(0, n)), targets.take(n)
    proj01 = f_ideal.layout.projector(f_ideal.layout.photon_labels)
    support = report.generic_channel(f_noise, f_ideal, q).support
    system = ChoiConstraintSystem((None, f_noise, f_ideal), ([[1.0 - q]], [proj01], [proj01]))
    reports, residuals = certify_choi(support, system, _TOL)
    return povms, f_noise, support, reports, residuals


@settings(max_examples=40, deadline=None)
@given(case=_setups())
def test_real_and_complex_storage_of_a_real_map_agree(case):
    mode_map, etas, rates, eta_star, coarse = case
    real = _certified(mode_map, etas, rates, eta_star, coarse)
    cplx = _certified(mode_map.astype(complex), etas, rates, eta_star, coarse)
    for (povms, targets, support, _, _), dtype in ((real, np.float64), (cplx, np.complex128)):
        assert povms.dense.dtype == targets.dense.dtype == support.values.dtype == dtype
    for a, b in ((real[0].dense, cplx[0].dense), (real[1].dense, cplx[1].dense), (real[2].values, cplx[2].values)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(real[2].keys, cplx[2].keys)
    fields = ("min_choi_eigenvalue", "trace_preservation_dev", "hermiticity_dev", "residual")
    for r, c in zip(real[3], cplx[3], strict=True):
        np.testing.assert_allclose([getattr(r, f) for f in fields], [getattr(c, f) for f in fields], rtol=0, atol=1e-15)
        assert r.passed == c.passed
    np.testing.assert_allclose(real[4], cplx[4], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(real[4] <= _TOL, cplx[4] <= _TOL)


def _dtypes_built(monkeypatch, desc) -> set:
    """The dtypes of every lift, POVM, measure-prepare term, Choi support, identity stack and image ``desc``'s analysis builds."""
    seen = set()

    def after(owner, name, record):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            seen.update(a.dtype for a in record(args, out))
            return out

        monkeypatch.setattr(owner, name, wrapped)

    after(detectors, "_lift_isometry", lambda args, out: [out[0]])
    after(detectors.POVM, "__init__", lambda args, out: [args[0].dense])
    after(channels._MeasurePrepare, "entries", lambda args, out: [out[1]])
    after(ChoiSupport, "__init__", lambda args, out: [args[0].values])
    after(ChoiSupport, "heisenberg", lambda args, out: [out])
    after(report, "certify_choi", lambda args, out: [args[1].ops, args[1].targets])
    cert = report.run_analysis(desc)
    assert cert.all_passed, cert.failed_requirement
    return seen


def test_shipped_analyses_build_only_float64_stacks(monkeypatch):
    assert {channels.bb84_qubit_measurement(b).dense.dtype for b in "ZX"} == {np.dtype(np.float64)}
    for name in ("passive", "active"):
        assert _dtypes_built(monkeypatch, load_descriptor(DESCRIPTORS / f"{name}_bb84.json")) == {np.dtype(np.float64)}


def test_a_complex_mode_map_builds_only_complex128_stacks(monkeypatch):
    desc = descriptor_from_dict({
        "setup": "custom", "k": 2, "mode_map": [[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]],
        "eta_range": [[0.6, 0.7], [0.5, 0.8]], "dark_range": [[0, 0.01], [0, 0.03]],
    })
    assert report.build_setup(desc, [1.0, 1.0]).mode_map.dtype == np.complex128
    assert _dtypes_built(monkeypatch, desc) == {np.dtype(np.complex128)}


def test_a_custom_map_with_zero_imaginary_parts_is_real():
    desc = descriptor_from_dict({"setup": "custom", "k": 2, "mode_map": [[[0.6, 0], [0.8, -0.0]], [[0.8, 0], [-0.6, 0]]]})
    assert report.build_setup(desc, [1.0, 1.0]).mode_map.dtype == np.float64
