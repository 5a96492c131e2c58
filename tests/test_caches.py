"""Objects that depend only on a setup's shape are built once per process.

The BB84 measurements and squasher, the squasher's kernel plan, event
tables, coarse grainings, block projectors and mode-map lifts are kept and
shared by every op of one process.  These tests check that sharing them
changes nothing: every array they hold is read-only, and the golden cases
of ``helpers.CASES`` run in any order in one process write the same
exit code, stdout, stderr and ``--out`` bytes as each case run alone in a
fresh interpreter.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import detcert.postprocessing as postprocessing
from detcert.channels import bb84_qubit_measurement, bb84_simple_noise_channel
from detcert.detectors import _lift_isometry, enumerate_events, passive_bb84_setup
from detcert.fock import SpaceLayout
from detcert.postprocessing import bb84_qubit_squasher, multiclick_coarse_graining
from helpers import CASES, run_fresh, run_in_process


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
    s = bb84_qubit_squasher().entries
    return postprocessing._kernel_plan(s.shape, s.tobytes())


_LAYOUT = SpaceLayout((("m=0", 1), ("m=1", 2), ("flag", 3)))
# Every array a kept object holds.
KEPT_ARRAYS = {
    "squasher": lambda: bb84_qubit_squasher().entries,
    "kernel-kept-columns": lambda: _kernel_plan_arrays()[0],
    "kernel-keep-mask": lambda: _kernel_plan_arrays()[1],
    "kernel-vector": lambda: _kernel_plan_arrays()[2],
    "kernel-sign": lambda: _kernel_plan_arrays()[3],
    "projector": lambda: _LAYOUT.projector(("m=0", "m=1")),
    "projector-one-block": lambda: _LAYOUT.projector("flag"),
    "lift": lambda: _lift_isometry(passive_bb84_setup().mode_map, 2)[0],
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
    assert multiclick_coarse_graining(enumerate_events(3)) is multiclick_coarse_graining(enumerate_events(3))
    # an equal layout, built anew, finds the same projector
    assert layout.projector("m=1") is SpaceLayout((("m=0", 1), ("m=1", 2))).projector(["m=1"])
    mode_map = passive_bb84_setup().mode_map
    assert _lift_isometry(mode_map, 1)[0] is _lift_isometry(mode_map.copy(), 1)[0]
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

