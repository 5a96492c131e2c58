"""The Choi-level check kernel against the definitions it replaces.

References kept here: the Choi matrix built by pushing matrix units through
each term's defining action, and the statistics residual maximized over the
Hermitian matrix-unit basis.  Fault injection shows that a certificate fails
for a small extra term, also one that only acts on off-block-diagonal
inputs, which block-diagonal test states cannot reach.
"""

import numpy as np
import pytest
from helpers import (
    hermitian_basis,
    mix_povms,
    random_density,
    random_squashed_povm,
    reference_choi,
    reference_heisenberg,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import detcert as dc
from detcert import report
from detcert.descriptor import descriptor_from_dict
from detcert.channels import (
    ChoiConstraintSystem,
    ChoiSupport,
    QuantumChannel,
    _KeepBlocks,
    _MeasurePrepare,
)
from detcert.feasibility import _measure_prepare

PASSIVE = {
    "setup": "passive-bb84",
    "eta_range": [0.5, 0.6],
    "dark_range": [0.0, 0.01],
    "cutoff": 1,
    "eta_star": 1.0,
    "coarse_grain": "multiclick",
    "seed": 7,
}


def _apply_stages(stages, mat):
    """Stage-by-stage action of CP terms, straight from their definitions."""
    for stage in stages:
        out = 0.0
        for term in stage:
            if isinstance(term, _KeepBlocks):
                out = out + term.weight * (term.projector @ mat @ term.projector)
            else:
                for op, prep in zip(term.ops, term.preps):
                    out = out + np.trace(op @ mat) * prep
        mat = out
    return mat


def _matrix_unit_choi(stages, d_in, d_out):
    j = np.zeros((d_in * d_out,) * 2, dtype=complex)
    for a in range(d_in):
        for b in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[a, b] = 1.0
            j[a * d_out : (a + 1) * d_out, b * d_out : (b + 1) * d_out] = _apply_stages(
                stages, unit
            )
    return j


def _oracle_cases():
    setup = dc.passive_bb84_setup(1.0)
    eta = np.array([0.5, 0.55, 0.6, 0.52])
    f_lossless = dc.flag_state_target(dc.build_threshold_povm(setup, 1), 1)
    f_eta = dc.flag_state_target(dc.build_threshold_povm(setup.with_eta(eta), 1), 1)
    dark = dc.dark_count_channel(dc.dark_count_matrix([0.01, 0.02, 0.015, 0.03]), f_eta)
    loss = dc.loss_channel(eta, 0.5 / 0.9, f_lossless)
    rng = np.random.default_rng(20)
    f_ideal = random_squashed_povm(rng)
    f_noise = mix_povms(f_ideal, random_squashed_povm(rng), 0.3)
    generic = dc.generic_channel(f_noise, f_ideal, 0.3)
    bb84 = dc.bb84_simple_noise_channel(0.05)
    return {
        "dark": (dark, (dark.terms,)),
        "loss": (loss, (loss.terms,)),
        "generic": (generic, (generic.terms,)),
        "bb84": (bb84, (bb84.terms,)),
        "composed": (dc.compose(loss, dark), (dark.terms, loss.terms)),
    }


@pytest.mark.parametrize("name", ["dark", "loss", "generic", "bb84", "composed"])
def test_choi_from_terms_matches_matrix_unit_reference(name):
    channel, stages = _oracle_cases()[name]
    d_in = channel.input_layout.total_dim
    d_out = channel.output_layout.total_dim
    reference = _matrix_unit_choi(stages, d_in, d_out)
    assert np.abs(channel.choi - reference).max() <= 1e-14
    if name == "generic":
        # random blocks are complex, where op^T and op^dag differ
        assert np.abs(channel.choi.imag).max() > 1e-3
    # application is the contraction with J, also on non-Hermitian inputs
    rng = np.random.default_rng(21)
    x = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    assert np.abs(channel.apply_dense(x) - _apply_stages(stages, x)).max() <= 1e-14


def _dense(measurement):
    return list(getattr(measurement, "dense", measurement))


def _basis_loop_per_event(p_mat, before, after, j):
    """Worst mismatch per event over the Hermitian matrix-unit basis."""
    before, after = _dense(before), _dense(after)
    d_in = before[0].shape[0]
    j4 = j.reshape(d_in, after[0].shape[0], d_in, after[0].shape[0])
    worst = np.zeros(len(after))
    for rho in hermitian_basis(d_in):
        lhs = p_mat @ np.array([np.trace(el @ rho).real for el in before])
        image = np.einsum("ab,aibj->ij", rho, j4)
        rhs = np.array([np.trace(el @ image).real for el in after])
        worst = np.maximum(worst, np.abs(lhs - rhs))
    return worst


def _random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


_SETUP = dc.passive_bb84_setup(1.0)
_CG = dc.multiclick_coarse_graining(dc.enumerate_events(4))


def _squashed(eta):
    povm = dc.apply_postprocessing(_CG, dc.build_threshold_povm(_SETUP.with_eta(eta), 1))
    return dc.flag_state_target(povm, 1)


@settings(max_examples=25, deadline=None)
@given(
    dark=st.lists(st.floats(0.0, 0.1), min_size=4, max_size=4),
    eta=st.lists(st.floats(0.4, 1.0), min_size=4, max_size=4),
    shift=st.floats(0.0, 1e-3),
    seed=st.integers(0, 2**16),
)
def test_kernel_per_event_equals_hermitian_basis_loop(dark, eta, shift, seed):
    eta = np.array(eta)
    f_eta = _squashed(eta)
    f_lossless = _squashed(1.0)
    p_db = dc.coarse_grained_dc_ansatz(dc.dark_count_matrix(dark), _CG)
    # a perturbed post-processing makes the residuals large enough to compare
    rng = np.random.default_rng(seed)
    n = len(f_eta)
    p_mat = p_db.entries + shift * rng.normal(size=(n, n))
    dark_ch = dc.dark_count_channel(p_db, f_eta)
    loss_ch = dc.loss_channel(eta, 1.0, f_lossless)
    # complex blocks and complex perturbations: Im D_ab counts too
    f_ideal = random_squashed_povm(rng)
    f_noise = mix_povms(f_ideal, random_squashed_povm(rng), 0.3)
    generic_ch = dc.generic_channel(f_noise, f_ideal, 0.3)
    d = f_noise.layout.total_dim
    shifted = [el + shift * _random_hermitian(rng, d) for el in f_noise.dense]
    for p, before, after, channel in (
        (p_mat, f_eta, f_eta, dark_ch),
        (np.eye(n) + shift * np.ones((n, n)), f_eta, f_lossless, loss_ch),
        (np.eye(3), shifted, f_ideal, generic_ch),
    ):
        kernel = dc.verify_statistics_equivalence(p, before, after, channel).per_event
        reference = _basis_loop_per_event(p, before, after, channel.choi)
        np.testing.assert_allclose(kernel, reference, rtol=1e-12, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(1e-8, 1.0))
def test_witness_linear_residual_equals_basis_loop(seed, scale):
    # a witness need not be Hermitian: the residual is that of Re Tr[...]
    rng = np.random.default_rng(seed)
    povm = dc.bb84_qubit_measurement("X")
    p_dc = dc.bb84_squashed_dark_matrix(0.05)
    j = dc.bb84_simple_noise_channel(0.05).choi + scale * (
        rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    )
    report_ = dc.verify_choi_witness(j, p_dc, povm, povm, 1e-6)
    reference = _basis_loop_per_event(p_dc.entries, povm, povm, j).max()
    assert report_.linear_residual == pytest.approx(reference, rel=1e-12, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_system_adjoint_is_adjoint_of_heisenberg_map(seed):
    # Re <MP(Y, F), J> = Re sum_k <Y_k, Phi_J^dag(F_k)> for every J and complex,
    # non-Hermitian Y, where MP(Y, F) = sum_k Y_k^T (x) F_k is the measure-prepare
    # support and Phi_J^dag comes from ChoiSupport.heisenberg; both are read off
    # the definition Tr[Phi_J^dag(F) X] = Tr[F Phi_J(X)] on unequal input and
    # output dimensions, trace preservation included
    rng = np.random.default_rng(seed)
    f_before, f_after = random_squashed_povm(rng), dc.bb84_qubit_measurement("X")
    p = rng.dirichlet(np.ones(3), size=3).T
    system = ChoiConstraintSystem((p, f_before, f_after))
    d_in, d_out = system.d_in, system.d_out
    assert (d_in, d_out) == (6, 3)
    j = rng.normal(size=(system.dim,) * 2) + 1j * rng.normal(size=(system.dim,) * 2)
    y = rng.normal(size=system.targets.shape) + 1j * rng.normal(size=system.targets.shape)
    j4 = j.reshape(d_in, d_out, d_in, d_out)
    reference = sum(
        np.trace(f_k @ np.einsum("ab,aibj->ij", y_k.conj().T, j4)).real
        for y_k, f_k in zip(y, system.ops)
    )
    adjoint = _measure_prepare(system, y).dense()[0]
    assert np.vdot(adjoint, j).real == pytest.approx(reference, rel=1e-12, abs=1e-12)
    (images,) = ChoiSupport.from_dense(j, d_in, d_out).heisenberg(system.ops)
    np.testing.assert_allclose(images, np.einsum("kji,aibj->kba", system.ops, j4), rtol=1e-12, atol=1e-12)
    assert np.vdot(y, images).real == pytest.approx(reference, rel=1e-12, abs=1e-12)


def test_statistics_check_names_a_layout_mismatch():
    f = random_squashed_povm(np.random.default_rng(23))
    channel = dc.bb84_simple_noise_channel(0.05)
    with pytest.raises(ValueError, match=r"dimensions \(6, 6\) but the channel maps 3 -> 3"):
        dc.verify_statistics_equivalence(None, f, f, channel)


def _faulty(build, fault_op):
    """``build`` with a term of size 1e-6 added to the channel, or to entry 0 of the stack, it returns."""

    def wrapped(*args):
        channel = build(*args)
        layout = channel.input_layout
        out = np.zeros((layout.total_dim,) * 2, dtype=complex)
        out[0, 0] = 1e-6  # onto the vacuum, off the last flag: trace preserved
        out[-1, -1] = -1e-6
        ops = np.zeros((len(channel.support.values), 1, *out.shape), dtype=complex)
        ops[0, 0] = fault_op(layout)
        fault = _MeasurePrepare(ops=ops, preps=(out,))
        return QuantumChannel(layout, layout, channel.terms + (fault,))

    return wrapped


def _one_photon_population(layout):
    op = np.zeros((layout.total_dim,) * 2, dtype=complex)
    off = layout.offset("m=1")
    op[off, off] = 1.0
    return op


def _vacuum_one_photon_coherence(layout):
    op = np.zeros((layout.total_dim,) * 2, dtype=complex)
    off = layout.offset("m=1")
    op[0, off] = op[off, 0] = 1.0
    return op


@pytest.mark.parametrize("fault_op", [_one_photon_population, _vacuum_one_photon_coherence])
@pytest.mark.parametrize("kind,factory", [("dark", "dark_count_channel"), ("loss", "loss_channel")])
def test_injected_fault_fails_the_certificate(monkeypatch, kind, factory, fault_op):
    # the analysis builds each channel once, for every corner: the fault
    # sits at corner 0 of the stack and fails corner 0 only
    desc = descriptor_from_dict(PASSIVE)
    clean = report.run_analysis(desc)
    assert clean.all_passed
    monkeypatch.setattr(report, factory, _faulty(getattr(report, factory), fault_op))
    cert = report.run_analysis(desc)
    assert not cert.all_passed
    assert cert.exit_code == report.EXIT_NOT_REDUCIBLE
    failed = {c["name"] for c in cert.checks if not c["passed"]}
    for check in ("statistics", "weight-relation"):
        assert f"{kind}-channel-{check}-corner0" in failed
    # the loss fault also prepares -1e-6 on a flag that no loss term touches
    assert all(name.startswith(f"{kind}-channel-") and name.endswith("-corner0") for name in failed)
    unchanged = [
        (c["name"], c["residual"]) for c in cert.checks if not c["name"].endswith("corner0")
    ]
    assert unchanged == [
        (c["name"], c["residual"]) for c in clean.checks if not c["name"].endswith("corner0")
    ]
    weight = next(
        c for c in cert.checks if c["name"] == f"{kind}-channel-weight-relation-corner0"
    )
    expected = 2e-6 if fault_op is _vacuum_one_photon_coherence else 1e-6
    assert weight["residual"] == pytest.approx(expected)


def test_off_block_fault_is_invisible_to_block_diagonal_states():
    # why the weight relation is checked as an operator identity: sampled
    # block-diagonal states see no trace of the coherence term
    f = dc.flag_state_target(dc.build_threshold_povm(_SETUP, 1), 1)
    clean = dc.loss_channel(np.full(4, 0.5), 1.0, f)
    faulty = _faulty(lambda: clean, _vacuum_one_photon_coherence)()
    proj01 = f.layout.projector(("m=0", "m=1"))
    rng = np.random.default_rng(22)
    for _ in range(10):
        rho = random_density(f.layout, rng)
        assert np.trace(proj01 @ faulty.apply_dense(rho)).real == pytest.approx(
            np.trace(proj01 @ clean.apply_dense(rho)).real, abs=1e-15
        )
    projs = [f.layout.projector("m=0"), f.layout.projector("m=1")]
    relation = dc.verify_statistics_equivalence([[1.0, 0.5]], projs, [proj01], faulty, tol=1e-12)
    assert relation.max_residual == pytest.approx(2e-6)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=12),
    zero_rows=st.integers(0, 4),
    scale=st.sampled_from([1e-9, 1.0, 1e3]),
    fill=st.sampled_from([0.0, 0.3, 1.0]),
)
@example(seed=5, sizes=[8], zero_rows=0, scale=1.0, fill=1.0)  # one dense component
@example(seed=6, sizes=[1], zero_rows=3, scale=1.0, fill=1.0)
@example(seed=7, sizes=[8, 8, 3], zero_rows=1, scale=1.0, fill=0.0)
def test_component_eigenvalue_equals_full_eigensolve(seed, sizes, zero_rows, scale, fill):
    # a block diagonal with zero rows, hidden by a random permutation; each
    # block is connected through a path in random order plus a share
    # ``fill`` of its other entries, so labels take several passes to settle
    rng = np.random.default_rng(seed)
    n = sum(sizes) + zero_rows
    h = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        keep = np.triu(rng.uniform(size=(size, size)) < fill)
        order = rng.permutation(size)
        keep[order[:-1], order[1:]] = True
        keep = keep | keep.T | np.eye(size, dtype=bool)
        block = scale * _random_hermitian(rng, size) * keep
        h[start : start + size, start : start + size] = block
        start += size
    perm = rng.permutation(n)
    h = h[perm][:, perm]
    full = np.linalg.eigvalsh(h)[0]
    tol = 1e-12 * max(1.0, float(np.linalg.norm(h, 2)))
    low = ChoiSupport.from_dense(h, n, 1).psd_residuals()[1][0]
    assert abs(low - full) <= tol


def _coarse_dark_channel():
    povm = dc.build_threshold_povm(dc.passive_bb84_setup([0.8, 0.85, 0.9, 0.75]), 1)
    p_dc = dc.coarse_grained_dc_ansatz(dc.dark_count_matrix([0.08, 0.05, 0.1, 0.07]), _CG)
    squashed = dc.flag_state_target(dc.apply_postprocessing(_CG, povm), 1)
    return p_dc, squashed, dc.dark_count_channel(p_dc, squashed)


@pytest.mark.parametrize("where", [(0, 0), (4, 4), (0, 4), (10, 3), (80, 79)])
def test_nan_in_choi_fails_cptp_and_witness(where):
    p_dc, squashed, channel = _coarse_dark_channel()
    j = channel.choi.copy()
    j[where] = np.nan
    bad = QuantumChannel.from_choi(j, channel.input_layout, channel.output_layout)
    report = dc.verify_cptp(bad, 1e-9)
    assert np.isnan(report.min_choi_eigenvalue)
    assert np.isnan(report.residual)
    assert not report.passed
    witness = dc.verify_choi_witness(j, p_dc, squashed, squashed, 1e-9)
    assert np.isnan(witness.psd_residual)
    assert not witness.passed


def test_hidden_negative_component_fails_cptp_and_witness():
    # a 2 x 2 component with eigenvalues +-1e-6 on two zero rows of the dark
    # Choi 81 whose output indices differ: Hermitian, trace preserving, not PSD
    p_dc, squashed, channel = _coarse_dark_channel()
    j = channel.choi.copy()
    d_out = channel.output_layout.total_dim
    zero = np.flatnonzero(~j.any(axis=1))
    p = zero[0]
    q = next(r for r in zero if r % d_out != p % d_out)
    j[p, q] = j[q, p] = 1e-6
    bad = QuantumChannel.from_choi(j, channel.input_layout, channel.output_layout)
    report = dc.verify_cptp(bad, 1e-9)
    assert report.trace_preservation_dev == dc.verify_cptp(channel, 1e-9).trace_preservation_dev
    assert report.hermiticity_dev == 0.0
    assert report.residual == pytest.approx(1e-6, abs=1e-15)
    assert not report.passed
    witness = dc.verify_choi_witness(j, p_dc, squashed, squashed, 1e-9)
    assert witness.psd_residual == pytest.approx(1e-6, abs=1e-15)
    assert not witness.passed


def _sparse(rng, shape, fill):
    """Random complex entries, each kept with probability ``fill``."""
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return values * (rng.uniform(size=shape) < fill)


@st.composite
def _term_stacks(draw):
    """Two stacks of random terms on one random layout pair, and the stack depth.

    Supports are random; a stacked term is all zero at a random subset of
    the entries (absent there), a keep-blocks weight is zero at some.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 16))
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fill = draw(st.sampled_from([0.2, 0.5, 1.0]))
    present = rng.uniform(size=depth) < 0.6
    channels = []
    for _ in range(2):
        terms = []
        for _ in range(draw(st.integers(0, 4))):
            stacked = draw(st.booleans())
            if d_in == d_out and draw(st.booleans()):
                projector = np.diag((rng.uniform(size=d_in) < 0.6).astype(float))
                weight = rng.uniform(size=depth) * present if stacked else float(rng.uniform())
                terms.append(_KeepBlocks(weight=weight, projector=projector))
                continue
            n = draw(st.integers(1, 3))
            ops = _sparse(rng, (depth, n, d_in, d_in) if stacked else (n, d_in, d_in), fill)
            if stacked:
                ops[~present] = 0.0
            terms.append(_MeasurePrepare(ops=ops, preps=_sparse(rng, (n, d_out, d_out), fill)))
        channels.append(terms)
    return d_in, d_out, depth, channels


def _layouts(d_in, d_out):
    return dc.SpaceLayout((("flag", d_in),)), dc.SpaceLayout((("flag", d_out),))


def _dense_score(defect):
    herm = (defect + defect.conj().swapaxes(-1, -2)) / 2
    weight = 2.0 - np.eye(herm.shape[-1])
    return (np.maximum(np.abs(herm.real), np.abs(herm.imag)) * weight).max(axis=(-2, -1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_term_stacks(), seed=st.integers(0, 2**16))
def test_support_kernel_matches_dense_oracle(case, seed):
    # assembly, Hermiticity, smallest eigenvalue and identity scores of the
    # support kernel against the dense term assembly and full eigensolves,
    # for two stacks on one union support
    d_in, d_out, depth, channels = case
    layout_in, layout_out = _layouts(d_in, d_out)
    built = [QuantumChannel(layout_in, layout_out, terms) for terms in channels]
    support = ChoiSupport.of(built)
    depths = [len(ch.support.values) for ch in built]
    assert all(n in (1, depth) for n in depths)
    reference = np.concatenate(
        [reference_choi(terms, d_in, d_out, n) for terms, n in zip(channels, depths)]
    )
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(support.dense(), reference, rtol=0, atol=1e-13 * scale)
    for ch, n, terms in zip(built, depths, channels):
        expected = reference_choi(terms, d_in, d_out, n)
        np.testing.assert_allclose(ch.choi, expected[0] if n == 1 else expected, rtol=0, atol=1e-13 * scale)

    herm, low = support.psd_residuals()
    adjoint = reference.conj().swapaxes(1, 2)
    np.testing.assert_allclose(herm, np.abs(reference - adjoint).max(axis=(1, 2)), rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(low, np.linalg.eigvalsh((reference + adjoint) / 2)[:, 0], rtol=0, atol=1e-12 * scale)

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    ops = _sparse(rng, (len(reference), k, d_out, d_out), 0.7)
    targets = _sparse(rng, (k, d_in, d_in), 0.7)
    images = np.array([reference_heisenberg(j, d_in, d_out, f) for j, f in zip(reference, ops)])
    np.testing.assert_allclose(support.heisenberg(ops), images, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        support.residuals(ops, targets), _dense_score(images - targets), rtol=0, atol=1e-12 * scale
    )


def _inject_at_corner2(fault):
    """A ``dark_count_channel`` for ``report`` whose Choi stack has ``fault`` applied at corner 2."""
    build = report.dark_count_channel

    def wrapped(p_db, f_eta):
        channel = build(p_db, f_eta)
        stack = channel.choi.copy()
        zero_rows = np.flatnonzero(~stack.any(axis=(0, 2)))
        fault(stack[2], zero_rows, channel.output_layout.total_dim)
        return QuantumChannel.from_choi(stack, channel.input_layout, channel.output_layout)

    return wrapped


def _nan_entry(j, zero_rows, d_out):
    j[4, 4] = np.nan


def _hidden_negative_component(j, zero_rows, d_out):
    # a 2 x 2 component with eigenvalues +-1e-6 on two rows that are zero at
    # every corner, whose output indices differ: Hermitian, trace preserving
    p = zero_rows[0]
    q = next(r for r in zero_rows if r % d_out != p % d_out)
    j[p, q] = j[q, p] = 1e-6


@pytest.mark.parametrize("fault", [_nan_entry, _hidden_negative_component])
def test_fault_at_one_corner_of_the_stack_fails_that_corner_only(monkeypatch, fault):
    desc = descriptor_from_dict(PASSIVE)
    clean = report.run_analysis(desc)
    assert len([c for c in clean.checks if c["name"].startswith("single-photon")]) == 4
    monkeypatch.setattr(report, "dark_count_channel", _inject_at_corner2(fault))
    cert = report.run_analysis(desc)
    failed = {c["name"] for c in cert.checks if not c["passed"]}
    assert "dark-channel-cptp-corner2" in failed
    assert all(name.startswith("dark-channel-") and name.endswith("-corner2") for name in failed)
    cptp = next(c for c in cert.checks if c["name"] == "dark-channel-cptp-corner2")["residual"]
    if fault is _nan_entry:
        assert np.isnan(cptp)
    else:
        assert cptp == pytest.approx(1e-6, abs=1e-15)
    assert [(c["name"], c["residual"]) for c in cert.checks if "corner2" not in c["name"]] == [
        (c["name"], c["residual"]) for c in clean.checks if "corner2" not in c["name"]
    ]


def test_assumption_failing_at_a_later_corner_stops_there(monkeypatch):
    # a POVM stack valid at every corner whose corner 2 moves 1e-3 of a
    # single click's one-photon weight to a multi-click: the certificate
    # keeps corners 0 and 1, records corner 2's failed assumption check and
    # stops, in the order and with the message of a corner-by-corner run
    desc = descriptor_from_dict(PASSIVE)
    clean = report.run_analysis(desc)
    build = report.build_threshold_povm

    def bent(setup, cutoff):
        povm = build(setup, cutoff)
        dense = povm.dense.copy()
        single, multi = povm.events.index_of("0001"), povm.events.index_of("0011")
        dense[2, single, 1, 1] -= 1e-3
        dense[2, multi, 1, 1] += 1e-3
        return dc.POVM(povm.layout, dense, povm.events)

    monkeypatch.setattr(report, "build_threshold_povm", bent)
    cert = report.run_analysis(desc)
    assert cert.status == "not reducible under this framework"
    assert cert.failed_requirement == "threshold POVM violates the click-count assumption"
    kept = [c for c in clean.checks if not c["name"].endswith(("corner2", "corner3"))]
    assert cert.checks[:-1] == kept
    last = cert.checks[-1]
    assert (last["name"], last["passed"]) == ("single-photon-assumption-corner2", False)
    assert last["residual"] == pytest.approx(1e-3, abs=1e-15)
    assert [c["name"] for c in kept][-8:] == [
        "loss-channel-weight-relation-corner0", "single-photon-assumption-corner1",
        "dark-channel-cptp-corner1", "dark-channel-statistics-corner1",
        "dark-channel-weight-relation-corner1", "loss-channel-cptp-corner1",
        "loss-channel-statistics-corner1", "loss-channel-weight-relation-corner1",
    ]


def test_dark_count_conditions_failing_stop_the_analysis(monkeypatch):
    # a dark-count map that erases 1e-3 of a single click: the certificate
    # records the failed conditions and certifies no channel
    fine = report.dark_count_matrix

    def bent(d_vec):
        entries = fine(d_vec).entries.copy()
        entries[1, 1] -= 1e-3
        entries[0, 1] += 1e-3
        return dc.StochasticMatrix(entries)

    monkeypatch.setattr(report, "dark_count_matrix", bent)
    cert = report.run_analysis(descriptor_from_dict(PASSIVE))
    assert cert.status == "not reducible under this framework"
    assert cert.failed_requirement.startswith("dark-count post-processing violates the structural conditions")
    assert [(c["name"], c["passed"]) for c in cert.checks] == [
        ("coarse-grain-swap", True), ("dark-count-conditions", False)
    ]
    assert cert.checks[-1]["residual"] == pytest.approx(1e-3, abs=1e-15)
    assert "p_no_dark" not in cert.derived


def test_lossless_target_breaking_the_assumption_stops_the_analysis(monkeypatch):
    # the lossless POVM (stack entry after the corners) moves 1e-3 of a
    # single click's one-photon weight to a multi-click: no corner is checked
    desc = descriptor_from_dict(PASSIVE)
    lossless = len(desc.points(box=True)[0])
    build = report.build_threshold_povm

    def bent(setup, cutoff):
        povm = build(setup, cutoff)
        dense = povm.dense.copy()
        single, multi = povm.events.index_of("0001"), povm.events.index_of("0011")
        dense[lossless, single, 1, 1] -= 1e-3
        dense[lossless, multi, 1, 1] += 1e-3
        return dc.POVM(povm.layout, dense, povm.events)

    monkeypatch.setattr(report, "build_threshold_povm", bent)
    cert = report.run_analysis(desc)
    assert cert.status == "not reducible under this framework"
    assert cert.failed_requirement == "threshold POVM violates the click-count assumption"
    assert [c["name"] for c in cert.checks] == ["coarse-grain-swap", "dark-count-conditions"]
    assert cert.all_passed is False
