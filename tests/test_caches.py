"""Objects that depend only on a setup's shape are built once per process.

Every shape-only object is kept by one rule, ``fock._kept``, on its first
use, keyed on its arguments' values and types (an array on its dtype,
shape and bytes) with every array it holds read-only: the BB84
measurements and squasher, event tables and the coarse graining, the
builders' layouts, block projectors and their keep-block supports,
mode-map lifts and isometry tests, the one click table of each detector
count (read by the threshold POVM and the dark-count map), Choi support
patterns and the squasher's kernel plan.
A layout keeps its block slices and off-block mask.  These tests check the
rule itself, and that sharing these objects changes nothing: every array
they hold is read-only, and the golden cases of ``helpers.CASES`` run in
any order in one process write the same exit code, stdout, stderr and
``--out`` bytes as each case run alone in a fresh interpreter.
"""

from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import detcert.postprocessing as postprocessing
from detcert import report
from detcert.channels import _keep_support, _KeepBlocks, bb84_qubit_measurement, bb84_simple_noise_channel
from detcert.descriptor import load_descriptor
from detcert.detectors import (
    POVM, _click_bits, _lift_isometry, build_threshold_povm, enumerate_events, is_isometry, passive_bb84_setup,
)
from detcert.fock import SpaceLayout, _kept
from detcert.postprocessing import StochasticMatrix, bb84_qubit_squasher, multiclick_coarse_graining
from detcert.report import run_analysis
from detcert.squashing import flag_state_target
from helpers import CASES, ROOT, run_fresh, run_in_process


@pytest.fixture(scope="module")
def fresh_outputs(tmp_path_factory):
    """Each golden case run alone in a fresh interpreter: ``(exit code, stdout, stderr, --out text)``."""
    work = tmp_path_factory.mktemp("fresh")
    return work, [run_fresh(case, work) for case in CASES]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.lists(st.integers(0, len(CASES) - 1), min_size=2, max_size=10))
def test_interleaved_ops_write_what_a_fresh_process_writes(fresh_outputs, order):
    work, outputs = fresh_outputs
    for i in order:
        assert run_in_process(CASES[i], work) == outputs[i], CASES[i][:2]


def _kernel_plan_arrays():
    return postprocessing._kernel_plan(bb84_qubit_squasher().entries)


_LAYOUT = SpaceLayout((("m=0", 1), ("m=1", 2), ("flag", 3)))


def _keep_support_arrays():
    return _keep_support(_LAYOUT.projector("m=1"))


def _pattern():
    return bb84_simple_noise_channel(0.01).support._pattern


# Every array a kept object holds.
KEPT_ARRAYS = {
    "squasher": lambda: bb84_qubit_squasher().entries,
    "kernel-kept-columns": lambda: _kernel_plan_arrays()[0],
    "kernel-keep-mask": lambda: _kernel_plan_arrays()[1],
    "kernel-vector": lambda: _kernel_plan_arrays()[2],
    "kernel-sign": lambda: _kernel_plan_arrays()[3],
    "projector": lambda: _LAYOUT.projector(("m=0", "m=1")),
    "projector-one-block": lambda: _LAYOUT.projector("flag"),
    "keep-block-positions": lambda: _keep_support_arrays()[0],
    "keep-block-values": lambda: _keep_support_arrays()[1],
    "layout-off-blocks": lambda: _LAYOUT.off_blocks,
    **{f"pattern-{name}": lambda name=name: getattr(_pattern(), name)
       for name in ("slot", "keys", "rows", "cols", "mirror", "gather", "starts", "targets")},
    "lift": lambda: _lift_isometry(passive_bb84_setup().mode_map, 2)[0],
    "click-bits": lambda: _click_bits(4),
    "coarse-graining": lambda: multiclick_coarse_graining(enumerate_events(4)).entries,
    "measurement-Z": lambda: bb84_qubit_measurement("Z").dense,
    "measurement-X": lambda: bb84_qubit_measurement("X").dense,
}


@pytest.mark.parametrize("name", sorted(KEPT_ARRAYS))
def test_writing_into_a_kept_array_raises(name):
    array = KEPT_ARRAYS[name]()
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1


def test_kept_objects_are_built_once():
    layout = SpaceLayout((("m=0", 1), ("m=1", 2)))
    assert bb84_qubit_measurement("X") is bb84_qubit_measurement("X")
    assert bb84_qubit_squasher() is bb84_qubit_squasher()
    assert enumerate_events(3) is enumerate_events(3)
    assert _click_bits(3) is _click_bits(3)
    assert multiclick_coarse_graining(enumerate_events(3)) is multiclick_coarse_graining(enumerate_events(3))
    # an equal layout, built anew, finds the same projector
    assert layout.projector("m=1") is SpaceLayout((("m=0", 1), ("m=1", 2))).projector(["m=1"])
    mode_map = passive_bb84_setup().mode_map
    assert _lift_isometry(mode_map, 1)[0] is _lift_isometry(mode_map.copy(), 1)[0]
    # the builders make one layout per block structure, which keeps its mask
    povm = build_threshold_povm(passive_bb84_setup(0.5), 1)
    assert povm.layout is build_threshold_povm(passive_bb84_setup(0.9), 1).layout
    assert flag_state_target(povm, 1).layout is flag_state_target(povm, 1).layout
    assert layout.off_blocks is layout.off_blocks
    # an equal projector finds the same keep-block support
    projector = layout.projector("m=1")
    assert _KeepBlocks(1.0, projector).entries(3, 3)[0] is _KeepBlocks(0.5, projector.copy()).entries(3, 3)[0]
    # the BB84 channel and measurements share one layout
    assert bb84_simple_noise_channel(0.01).input_layout is bb84_qubit_measurement("Z").layout
    with pytest.raises(FrozenInstanceError):
        enumerate_events(2).labels = ()


def test_lift_is_keyed_on_the_mode_map_bytes():
    # equal shapes, different entries: two lifts
    a = np.eye(2, dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    assert not np.array_equal(_lift_isometry(a, 1)[0], _lift_isometry(b, 1)[0])
    np.testing.assert_array_equal(_lift_isometry(b, 1)[0], b)


def test_a_passive_analysis_validates_two_measurements(monkeypatch):
    # The threshold stack, then the one stack the generic channel links:
    # each corner after its dark counts and the ideal entry after a zero
    # row's identity, each then grained, in one post-processing.  The
    # flag-state targets are built from their validated blocks and are not
    # validated again.
    init, validated, calls = POVM.__init__, [], []

    def counted(self, layout, dense, events):
        validated.append(events.n_events)
        init(self, layout, dense, events)

    monkeypatch.setattr(POVM, "__init__", counted)
    for name in ("apply_postprocessing", "flag_state_target"):
        build = getattr(report, name)
        monkeypatch.setattr(report, name, lambda *args, name=name, build=build: calls.append(name) or build(*args))
    assert run_analysis(load_descriptor(ROOT / "descriptors" / "passive_bb84.json")).all_passed
    assert validated == [16, 6]
    assert calls == ["apply_postprocessing", "flag_state_target"]


@settings(max_examples=40, deadline=None)
@given(values=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=4),
                     elements=st.floats(-1e3, 1e3, allow_nan=False)))
@example(values=np.array([[1.0]]))  # the bytes of int64 4607182418800017408
@example(values=np.arange(6.0).reshape(2, 3))
def test_kept_keys_an_array_on_its_value_and_hands_out_only_read_only_arrays(values):
    built = []

    @_kept(maxsize=8)
    def kept(a):
        built.append((a.dtype, a.shape))
        with pytest.raises(ValueError, match="read-only"):  # no write reaches the caller's array
            a[(0,) * a.ndim] = 0
        return a * 2, a.T.copy()

    # equal values share one entry: C order, Fortran order and a strided view
    wide = np.zeros((values.shape[0], 2 * values.shape[1]))
    wide[:, ::2] = values
    first = kept(values)
    assert kept(np.asfortranarray(values)) is first and kept(wide[:, ::2]) is first
    assert built == [(values.dtype, values.shape)]
    # equal bytes of another dtype or shape do not
    others = [values.view(np.int64)]
    if values.shape[0] != values.shape[1]:
        others.append(values.reshape(values.shape[::-1]))
    for other in others:
        assert other.tobytes() == values.tobytes() and kept(other) is not first
    assert built[1:] == [(other.dtype, other.shape) for other in others]
    # every array in the value is read-only: the value itself, a tuple's items and an object's attributes,
    # in its __dict__ or in a slot, as a StochasticMatrix holds its entries
    summed = _kept(maxsize=1)(lambda a: SimpleNamespace(total=a.sum(axis=0), rows=len(a)))(values)
    slotted = _kept(maxsize=1)(lambda a: StochasticMatrix(np.eye(len(a))))(values)
    for array in (*first, summed.total, slotted.entries, _kept(maxsize=1)(np.negative)(values)):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    values[(0,) * values.ndim] = 1.0  # the caller's array stays writable


def test_the_passive_map_is_tested_for_an_isometry_once():
    is_isometry.cache_clear()
    for _ in range(2):
        assert run_analysis(load_descriptor(ROOT / "descriptors" / "passive_bb84.json")).all_passed
    assert is_isometry.cache_info().misses == 1 and is_isometry.cache_info().hits >= 1


@pytest.mark.parametrize("mode_map, want", [
    (((1.0, 0.0), (0.0, 1.0)), True),  # a descriptor's tuple rows
    (((0.6, 0.0), (0.0, 1.0)), False),
    (((0.6 + 0.8j,), (0.0,)), True),
    (np.array([[0.5, 0.5], [0.5, -0.5]]) * np.sqrt(2.0), True),  # an array, real or complex
    (np.array([[1.0, 0.0], [0.0, 1j]]), True),
    (np.array([[1.0, 0.0], [0.0, 2.0]]), False),
    (np.array([[np.nan], [0.0]]), False),
    (((float("nan"),), (0.0,)), False),
])
def test_kept_isometry_test_takes_tuple_rows_and_arrays(mode_map, want):
    for _ in range(2):  # built, then found
        assert is_isometry(mode_map) is want
