import contextlib
import copy
import io
import json
import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detcert import (
    QuantumChannel,
    StochasticMatrix,
    apply_postprocessing,
    bb84_qubit_measurement,
    bb84_qubit_squasher,
    bb84_simple_noise_channel,
    build_threshold_povm,
    coarse_grained_dc_ansatz,
    dark_count_matrix,
    enumerate_events,
    flag_state_target,
    generic_channel,
    loss_channel,
    measure_prepare_witness,
    multiclick_coarse_graining,
    passive_bb84_setup,
    solve_swap_lp,
    verify_choi_witness,
    verify_cptp,
    verify_statistics_equivalence,
)
from detcert import cli, report
from detcert.channels import ChoiSupport, _MeasurePrepare
from detcert.descriptor import FIELD_NAMES, DescriptorError, SetupDescriptor, descriptor_from_dict, load_descriptor
from detcert.postprocessing import swap_residual
from detcert.squashing import eta_star_range
from detcert.report import (
    EXIT_NOT_REDUCIBLE,
    EXIT_OK,
    EXIT_TOOL_ERROR,
    Box,
    Certificate,
    _active_point,
    build_setup,
    canonical_json,
    run_analysis,
    weight,
    write_json,
)

from helpers import CASES, ROOT, reference_canonical_json

PASSIVE = {
    "setup": "passive-bb84",
    "eta_range": [0.5, 0.6],
    "dark_range": [0.0, 0.01],
    "cutoff": 1,
    "eta_star": 1.0,
    "coarse_grain": "multiclick",
    "seed": 7,
}


def test_descriptor_validation_errors():
    with pytest.raises(DescriptorError, match="setup"):
        descriptor_from_dict({"setup": "mystery"})
    with pytest.raises(DescriptorError, match="cutoff"):
        descriptor_from_dict({**PASSIVE, "cutoff": 5})
    with pytest.raises(DescriptorError, match="eta_range"):
        descriptor_from_dict({**PASSIVE, "eta_range": [0.9, 0.2]})
    with pytest.raises(DescriptorError, match="unknown descriptor fields"):
        descriptor_from_dict({**PASSIVE, "surprise": 1})
    with pytest.raises(DescriptorError, match="mode_map"):
        descriptor_from_dict({"setup": "custom", "k": 2})
    for name in ("tol", "feas_tol", "eta_star"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DescriptorError, match=f"^{name}:"):
                descriptor_from_dict({**PASSIVE, name: bad})
    with pytest.raises(DescriptorError, match="^seed:"):
        descriptor_from_dict({**PASSIVE, "seed": -1})
    for bad in (0, 1, -3):
        with pytest.raises(DescriptorError, match="^corner_limit:"):
            descriptor_from_dict({**PASSIVE, "corner_limit": bad})
    with pytest.raises(DescriptorError, match="unknown descriptor fields"):
        descriptor_from_dict({**PASSIVE, "tolerances": {"cert": 1e-9}})
    with pytest.raises(DescriptorError, match=r"^unknown descriptor fields: \['surprise'\]$"):
        SetupDescriptor("passive-bb84", surprise=1)  # built in Python, as the JSON reader refuses it
    with pytest.raises(DescriptorError, match="^setup: unknown kind None$"):
        SetupDescriptor(k=2)  # no setup, as from JSON
    nan, inf = float("nan"), float("inf")
    for name, bad in (
        ("eta", nan), ("eta", [0.5, inf, 0.5, 0.5]), ("dark", [nan] * 4), ("dark", -inf),
        ("observed", {"event": "multi", "probability": nan}),
    ):
        with pytest.raises(DescriptorError, match=f"^{name}:"):
            descriptor_from_dict({**PASSIVE, name: bad})
    for entry in (nan, [1.0, nan], [inf, 0.0]):
        with pytest.raises(DescriptorError, match="^mode_map:"):
            descriptor_from_dict({"setup": "custom", "k": 2, "mode_map": [[1.0], [entry]]})
    # only JSON numbers: no null, bool or string, and integral where an int is due
    for name, bad in (
        ("eta", None), ("eta", "abcd"), ("eta", [0.5, "0.6", 0.5, 0.5]), ("dark", True),
        ("eta_range", [["a", 0.6]] * 4), ("eta_range", ["0.5", 0.6]), ("dark_range", [0.0, None]),
        ("observed", {"event": "multi", "probability": "0.1"}), ("tol", "1e-9"),
        ("feas_tol", None), ("eta_star", "1"), ("weight_in", False), ("cutoff", "2"),
        ("cutoff", 1.5), ("seed", "x"), ("seed", None), ("seed", inf), ("corner_limit", "4"),
    ):
        with pytest.raises(DescriptorError, match=f"^{name}:"):
            descriptor_from_dict({**PASSIVE, name: bad})
    # an event is a label, not a number or bool that reads as one
    for setup, event in (({"setup": "custom", "k": 2, "mode_map": [[1.0, 0.0], [0.0, 1.0]]}, 10),
                         ({"setup": "custom", "k": 1, "mode_map": [[1.0]]}, 1), (PASSIVE, True)):
        with pytest.raises(DescriptorError, match=f"^observed: expected an event label, got {event}$"):
            descriptor_from_dict({**setup, "observed": {"event": event, "probability": 0.1}})
    for mode_map in (5, [1.0, 2.0], [[1.0], ["1"]], [[1.0], [[1.0, None]]], [[True], [1.0]]):
        with pytest.raises(DescriptorError, match="^mode_map:"):
            descriptor_from_dict({"setup": "custom", "k": 2, "mode_map": mode_map})
    with pytest.raises(DescriptorError, match="^k:"):
        descriptor_from_dict({"setup": "custom", "k": True, "mode_map": [[1.0]]})
    with pytest.raises(DescriptorError, match=r"^k: .*\[1, 4\], got 5"):
        descriptor_from_dict({"setup": "custom", "k": 5, "mode_map": [[1.0]] + [[0.0]] * 4})
    for mode_map in ([[1.0, 0.0], [0.0]], [[1.0]], [[], []]):
        with pytest.raises(DescriptorError, match="^mode_map: expected 2 rows"):
            descriptor_from_dict({"setup": "custom", "k": 2, "mode_map": mode_map})
    with pytest.raises(DescriptorError, match=r"^observed: .*'bogus'.*'0000'.*'multi'"):
        descriptor_from_dict({**PASSIVE, "observed": {"event": "bogus", "probability": 0.1}})
    with pytest.raises(DescriptorError, match=r"^observed: .*'multi'; expected one of \['0', '1'\]"):
        descriptor_from_dict(
            {"setup": "custom", "k": 1, "mode_map": [[1.0]],
             "observed": {"event": "multi", "probability": 0.1}}
        )
    assert descriptor_from_dict({**PASSIVE, "seed": 7.0, "cutoff": 1.0}).seed == 7
    assert descriptor_from_dict({"setup": "custom", "k": 2.0, "mode_map": [[1, 0], [0, 1]]}).k == 2
    with pytest.raises(DescriptorError, match="^k: expected an integer, got 2.5"):
        descriptor_from_dict({"setup": "custom", "k": 2.5, "mode_map": [[1, 0], [0, 1]]})
    for setup in ("active-bb84", "passive-bb84"):
        for name, value in (("mode_map", [[1.0, 0.0]]), ("k", 7), ("k", 2 if setup == "active-bb84" else 4)):
            with pytest.raises(DescriptorError, match=f"^{name}: fixed by the {setup} setup"):
                descriptor_from_dict({"setup": setup, name: value})
    with pytest.raises(DescriptorError, match="^coarse_grain: multiclick needs at least 2 detectors"):
        descriptor_from_dict({"setup": "custom", "k": 1, "mode_map": [[1.0]], "coarse_grain": "multiclick"})
    # the active route squashes each basis to a qubit and applies no graining
    with pytest.raises(DescriptorError, match="^coarse_grain: the active-bb84 setup takes no graining, got 'multiclick'$"):
        descriptor_from_dict({"setup": "active-bb84", "coarse_grain": "multiclick"})


_PART = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf"), -float("inf")]))


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(_PART, _PART), min_size=1, max_size=4))
@example(entries=[(1.0, float("nan"))])
@example(entries=[(0.6, 0.8), (-float("inf"), 0.0)])
def test_mode_map_finiteness_agrees_with_numpy(entries):
    # the schema's scalar rule against numpy's, one [re, im] entry per row of a custom map
    finite = bool(np.isfinite(np.asarray([complex(*z) for z in entries], dtype=complex)).all())
    data = {"setup": "custom", "k": len(entries), "mode_map": [[list(z)] for z in entries]}
    try:
        descriptor_from_dict(data)
        rejected = False
    except DescriptorError as exc:
        rejected = str(exc).startswith("mode_map: values must be finite")
    assert rejected is not finite


@pytest.mark.parametrize(
    "fields,prefix",
    [
        ({"setup": "passive-bb84", "k": 3}, "k:"),
        ({"setup": "active-bb84", "k": 4}, "k:"),
        ({"setup": "custom", "k": 6, "mode_map": ((1.0,),) + ((0.0,),) * 5}, "k:"),
        ({"setup": "passive-bb84", "mode_map": ((1.0, 0.0),)}, "mode_map:"),
        ({"setup": "active-bb84", "eta": (0.5, 0.6, 0.7)}, "eta: expected 2 values, got 3"),
        ({"setup": "passive-bb84", "dark_range": ((0.0, 0.1),) * 3}, "dark_range: expected 4 ranges, got 3"),
    ],
)
def test_setup_descriptor_checks_every_rule_however_built(fields, prefix):
    # the rules hold for a descriptor built directly, not only for one read from JSON
    with pytest.raises(DescriptorError, match=f"^{re.escape(prefix)}"):
        SetupDescriptor(**fields)


@pytest.mark.parametrize(
    "name,value",
    [("corner_limit", 2.5), ("cutoff", True), ("seed", "x"), ("tol", "1e-9"), ("weight_in", None),
     ("eta_star", "0.9"), ("eta_range", [[0.5, "x"]]), ("dark_range", [[0.0, None]]), ("dark", "x"),
     ("eta", ("x",)), ("mode_map", [["a"]]), ("observed", ("multi", "0.1")), ("observed", (10, 0.1))],
)
def test_setup_descriptor_built_in_python_rejects_a_field_of_the_wrong_type(name, value):
    # as the JSON reader does, naming the field, instead of failing later or with a bare TypeError
    with pytest.raises(DescriptorError, match=f"^{name}: expected "):
        SetupDescriptor(setup="passive-bb84", **{name: value})


@pytest.mark.parametrize(
    "data",
    [{**PASSIVE, "observed": {"event": "multi", "probability": 0.1}}, {**PASSIVE, "eta_range": [0.5, 0.6]},
     {"setup": "custom", "k": 1, "mode_map": [[1.0]]}, {"setup": "custom", "k": 1, "mode_map": [[[0.0, 1.0]]]}],
    ids=["observed-object", "one-shared-range", "real-map", "complex-map"],
)
def test_setup_descriptor_built_in_python_converts_as_the_json_reader(data):
    built = SetupDescriptor(**data)
    assert built == descriptor_from_dict(data)
    assert hash(built) == hash(descriptor_from_dict(data))


@pytest.mark.parametrize(
    "fields,prefix",
    [({"k": 3}, "k:"), ({"mode_map": ((1.0, 0.0),)}, "mode_map:"), ({"eta": (0.5,) * 3}, "eta:"),
     ({"coarse_grain": "bogus"}, "coarse_grain:"), ({"tol": math.nan}, "tol:"),
     ({"surprise": 1}, r"unknown descriptor fields: \['surprise'\]$")],
)
def test_setup_descriptor_checks_every_rule_on_replace(fields, prefix):
    # the path of the command-line overrides
    with pytest.raises(DescriptorError, match=f"^{prefix}"):
        descriptor_from_dict(PASSIVE).replace(**fields)


@pytest.mark.parametrize("data", [PASSIVE, {"setup": "custom", "k": 2, "mode_map": [[0.6], [[0.0, 0.8]]],
                                            "observed": {"event": "10", "probability": 0.1}}],
                         ids=["passive", "custom-observed"])
def test_setup_descriptor_is_an_immutable_value(data):
    desc = descriptor_from_dict(data)
    copies = [copy.copy(desc), copy.deepcopy(desc)]
    copies += [pickle.loads(pickle.dumps(desc, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is SetupDescriptor and other == desc and hash(other) == hash(desc)
        assert other.to_dict() == desc.to_dict()
    assert desc != descriptor_from_dict({**data, "seed": desc.seed + 1})
    assert desc.__eq__(desc.to_dict()) is NotImplemented
    assert all(f"{name}=" in repr(desc) for name in FIELD_NAMES)
    for name in FIELD_NAMES:
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(desc, name, None)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(desc, name)
    assert desc == descriptor_from_dict(data)  # unchanged by the refused assignments


def test_setup_descriptor_broadcasts_one_entry_to_every_detector():
    built = SetupDescriptor(setup="passive-bb84", eta=(0.5,), eta_range=((0.5, 0.6),), dark_range=((0.0, 0.01),))
    assert built.k == 4
    assert built.eta == (0.5,) * 4
    assert built.dark_range == ((0.0, 0.01),) * 4
    data = {"setup": "passive-bb84", "eta_range": [0.5, 0.6]}
    assert built == descriptor_from_dict({**data, "eta": 0.5, "dark_range": [0.0, 0.01]})
    assert built == descriptor_from_dict({**data, "eta": [0.5], "dark_range": [[0.0, 0.01]]})


@pytest.mark.parametrize(
    "data,prefix",
    [
        ([PASSIVE], "descriptor must be a JSON object"),
        ({**PASSIVE, "eta_range": 5}, "eta_range: expected a range or list of ranges"),
        ({**PASSIVE, "eta_range": [[0.5, 0.6, 0.7]] * 4}, "eta_range: malformed range entry"),
        ({**PASSIVE, "eta_range": [[0.5, 0.6]] * 3}, "eta_range: expected 4 ranges, got 3"),
        ({**PASSIVE, "eta": [0.5, 0.6]}, "eta: expected 4 values, got 2"),
        ({**PASSIVE, "observed": 0.1}, "observed: needs fields 'event' and 'probability'"),
        ({**PASSIVE, "coarse_grain": "bogus"}, "coarse_grain: unknown mode 'bogus'"),
        ({**PASSIVE, "weight_in": 2.0}, "weight_in: must lie in [0, 1]"),
        # a point inside [0, 1] but outside the declared box
        ({**PASSIVE, "eta": 0.9}, "eta: values must lie in eta_range [[0.5, 0.6], "),
        ({"setup": "active-bb84", "dark_range": [0.04, 0.05], "dark": [0, 0]},
         "dark: values must lie in dark_range [[0.04, 0.05], [0.04, 0.05]], got [0.0, 0.0]"),
    ],
)
def test_descriptor_from_dict_names_the_field(data, prefix):
    with pytest.raises(DescriptorError, match=f"^{re.escape(prefix)}"):
        descriptor_from_dict(data)


@pytest.mark.parametrize(
    "cmd,data",
    [
        ("weight", {"setup": "active-bb84", "observed": {"event": "01", "probability": 0.1}}),
        ("swap-lp", PASSIVE),
        ("choi-check", PASSIVE),
        ("choi-check", {"setup": "custom", "k": 2, "mode_map": [[1.0, 0.0], [0.0, 1.0]]}),
    ],
)
def test_cli_names_the_setup_a_command_does_not_support(tmp_path, capsys, cmd, data):
    assert cli.main([cmd, _write_descriptor(tmp_path, data)]) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("descriptor error: setup:")
    assert f"'{data['setup']}'" in captured.err


@pytest.mark.parametrize("cmd", ["analyze", "choi-check", "weight"])
@pytest.mark.parametrize(
    "extra,override",
    [({"seed": -1}, []), ({}, ["--seed", "-1"]), ({}, ["--tol", "nan"]),
     ({"feas_tol": float("inf")}, []), ({}, ["--eta-star", "nan"]),
     ({"dark": float("nan")}, []), ({"eta": float("nan")}, []),
     ({"observed": {"event": "multi", "probability": float("inf")}}, []),
     ({"setup": "custom", "k": 1, "mode_map": [[[1.0, float("nan")]]]}, []),
     ({"eta": None}, []), ({"eta": "abcd"}, []), ({"eta_range": ["0.5", 0.6]}, []),
     ({"dark_range": [0.0, "x"]}, []), ({"seed": "x"}, []), ({"cutoff": "2"}, []),
     ({"tol": "1e-9"}, []), ({"observed": {"event": "bogus", "probability": 0.1}}, []),
     ({"mode_map": [[1.0, 0.0]]}, []), ({"k": 7}, []),
     ({"setup": "custom", "k": 1, "mode_map": [[1.0]], "coarse_grain": "multiclick"}, []),
     ({"setup": "custom", "k": 1, "mode_map": [[1.0]]}, ["--coarse-grain", "multiclick"]),
     ({"setup": "active-bb84", "coarse_grain": "none"}, ["--coarse-grain", "multiclick"]),
     ({"eta": 1.5}, []), ({"dark": -0.1}, []), ({"dark": 2.0}, []),
     ({"observed": {"event": "multi", "probability": 1.5}}, []),
     ({"eta_star": 1.5}, []), ({"eta_star": -0.5}, []), ({}, ["--eta-star", "0"])],
)
def test_cli_rejects_bad_values_before_running(tmp_path, capsys, cmd, extra, override):
    base = {
        "analyze": PASSIVE,
        "choi-check": {"setup": "active-bb84", "dark_range": [0.0, 0.05]},
        "weight": {**PASSIVE, "observed": {"event": "multi", "probability": 0.002}},
    }[cmd]
    desc = _write_descriptor(tmp_path, {**base, **extra})
    assert cli.main([cmd, desc, *override]) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("descriptor error:")
    for name in ("eta", "dark", "observed", "coarse_grain", "eta_star"):  # the field with the bad value is named
        if name in extra:
            assert captured.err.startswith(f"descriptor error: {name}:")


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["analyze", "desc.json", "--tol", "abc"],
     ["analyze", "desc.json", "--bogus"], ["bogus", "desc.json"]],
)
def test_cli_usage_error_exits_as_tool_error(capsys, argv):
    # exit 2 is reserved for "not reducible"; argparse's own code must not leak
    assert cli.main(argv) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_cli_help_exits_zero(capsys):
    assert cli.main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage:")
    for cmd in ("analyze", "swap-lp", "verify-channel", "weight", "choi-check"):
        assert f"\n    {cmd} " in out
        assert cli.main([cmd, "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal width
        assert text.startswith(f"usage: detcert {cmd} ") and cli._COMMANDS[cmd][0] in text, cmd


def test_cli_calls_share_no_parsed_state(tmp_path, capsys):
    # one parser serves every call in a process: overrides, usage errors
    # and --help of one call must not reach the next
    desc = _write_descriptor(tmp_path, PASSIVE)
    assert cli.main(["analyze", desc, "--tol", "1e-6", "--coarse-grain", "none"]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert first["descriptor"]["tol"] == 1e-6
    assert first["descriptor"]["coarse_grain"] == "none"
    assert cli.main(["analyze", desc]) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    expected = run_analysis(load_descriptor(desc)).to_dict()
    assert second == json.loads(canonical_json(expected))
    assert cli.main(["analyze", desc, "--tol", "abc"]) == EXIT_TOOL_ERROR
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out
    assert cli.main(["analyze", desc]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == second


def test_analysis_passive_bb84_values():
    cert = run_analysis(descriptor_from_dict(PASSIVE))
    assert cert.status == "reducible"
    assert cert.all_passed
    assert cert.derived["p_no_dark"] == pytest.approx(0.99**4, abs=1e-12)
    assert cert.derived["efficiency_ratio"] == pytest.approx(0.5, abs=1e-12)
    names = [c["name"] for c in cert.checks]
    assert names == [
        f"generic-channel-{check}-corner{i}" for i in range(4) for check in ("cptp", "statistics", "weight-relation")
    ]
    assert {c["inputs"]["q"] for c in cert.checks} == {1.0 - cert.derived["p_no_dark"] * 0.5}
    assert cert.exit_code == EXIT_OK


def test_analysis_active_unequal_rates_not_reducible():
    desc = descriptor_from_dict(
        {
            "setup": "active-bb84",
            "eta_range": [1.0, 1.0],
            "dark_range": [[0.0, 0.01], [0.0, 0.02]],
            "seed": 1,
        }
    )
    cert = run_analysis(desc)
    assert cert.status == "not reducible under this framework"
    assert "P_sq' P_db = P_dc P_sq" in cert.failed_requirement
    assert cert.exit_code == EXIT_NOT_REDUCIBLE


def test_analysis_active_equal_rates_reducible():
    desc = descriptor_from_dict(
        {
            "setup": "active-bb84",
            "eta_range": [1.0, 1.0],
            "dark_range": [0.0, 0.05],
            "seed": 1,
        }
    )
    cert = run_analysis(desc)
    assert cert.all_passed
    assert cert.derived["p_no_dark"] == pytest.approx(0.95**2, abs=1e-12)


def test_analysis_active_reads_the_dark_box_not_the_point():
    # a `dark` point inside the declared box but not its top: the box's dark row is what is certified
    desc = descriptor_from_dict({"setup": "active-bb84", "dark_range": [0.04, 0.05], "dark": [0.04, 0.04]})
    cert = run_analysis(desc)
    assert cert.all_passed
    swap, *channel = cert.checks
    assert swap["name"] == "swap-equation-lp" and swap["inputs"]["dark"] == [0.05, 0.05]
    assert [c["inputs"]["dark"] for c in channel] == [0.05] * 3
    assert cert.derived["p_no_dark"] == pytest.approx(0.95**2, abs=1e-12)


def test_analysis_degenerate_point_is_pinch():
    desc = descriptor_from_dict(
        {
            "setup": "passive-bb84",
            "eta_range": [0.7, 0.7],
            "dark_range": [0.0, 0.0],
            "eta_star": 0.7,
            "seed": 3,
        }
    )
    cert = run_analysis(desc)
    assert cert.all_passed
    assert cert.derived["p_no_dark"] == 1.0
    assert cert.derived["efficiency_ratio"] == pytest.approx(1.0)
    assert cert.derived["weight_out"] == pytest.approx(cert.derived["weight_in"])


def test_analysis_rejects_inadmissible_eta_star():
    desc = descriptor_from_dict({**PASSIVE, "eta_star": 0.5})
    cert = run_analysis(desc)
    assert cert.status != "reducible"
    assert "admissible" in cert.failed_requirement


def test_analysis_downgrades_eta_star_inadmissible_at_a_corner(tmp_path, capsys):
    # 0.85 lies in the interval [0.5 / 0.6, 1] of the whole range, but the
    # all-high corner (eta = 0.9 everywhere) admits only [0.9, 1]
    data = {**PASSIVE, "eta_range": [0.5, 0.9], "eta_star": 0.85}
    cert = run_analysis(descriptor_from_dict(data))
    assert cert.status == "not reducible under this framework"
    assert "[0.9, 0.9, 0.9, 0.9]" in cert.failed_requirement
    assert "[0.9, 1.0]" in cert.failed_requirement
    assert cert.exit_code == EXIT_NOT_REDUCIBLE
    assert cli.main(["analyze", _write_descriptor(tmp_path, data)]) == EXIT_NOT_REDUCIBLE
    assert capsys.readouterr().err == ""


ACTIVE_NARROW = {"setup": "active-bb84", "eta_range": [0.6, 0.7], "dark_range": [0, 0.05]}


@pytest.mark.parametrize("eta_star", [0.5, 0.65])
def test_active_analysis_downgrades_eta_star_inadmissible_over_the_box(tmp_path, capsys, eta_star):
    # the split at eta = (0.7, 0.7) admits only [0.7, 1]
    data = {**ACTIVE_NARROW, "eta_star": eta_star}
    assert cli.main(["analyze", _write_descriptor(tmp_path, data)]) == EXIT_NOT_REDUCIBLE
    captured = capsys.readouterr()
    assert captured.err == ""
    cert = json.loads(captured.out)
    assert cert["status"] == "not reducible under this framework"
    assert "[0.7, 1.0]" in cert["failed_requirement"]
    assert cert["derived"]["eta_star_range"] == [0.7, 1]
    assert [c["name"] for c in cert["checks"]] == ["swap-equation-lp"]


def test_weight_rejects_eta_star_inadmissible_at_its_efficiencies(tmp_path, capsys):
    observed = {"event": "multi", "probability": 0.002}
    data = {**PASSIVE, "eta_star": 0.4, "observed": observed}
    assert cli.main(["weight", _write_descriptor(tmp_path, data)]) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("descriptor error: eta_star:")
    assert "[0.6, 1.0]" in captured.err
    # without eta the interval is the box's, as analyze's: the all-high corner admits only [0.6, 1]
    with pytest.raises(DescriptorError, match="^eta_star: .*at efficiencies \\[0.6, 0.6, 0.6, 0.6\\]"):
        weight(descriptor_from_dict({**data, "eta_star": 0.52}))
    # an explicit point is what weight evaluates, so it sets the interval: [0.5 / 0.9, 1] here
    point = {**data, "eta_star": 0.52, "eta": [0.5, 0.5, 0.5, 0.6]}
    with pytest.raises(DescriptorError, match="^eta_star: .*at efficiencies \\[0.5, 0.5, 0.5, 0.6\\]"):
        weight(descriptor_from_dict(point))
    assert weight(descriptor_from_dict({**point, "eta_star": 0.56}))[0]["eta_star"] == 0.56


def test_weight_names_the_mode_map_whose_lift_is_not_a_measurement(tmp_path, capsys):
    # a 50/50 splitter typed to 10 digits: an isometry to 3.8e-11, but its 3-photon lift misses completeness
    s = 0.7071067812
    data = {
        "setup": "custom", "k": 2, "mode_map": [[s, s], [s, -s]], "eta_range": [0.5, 0.9],
        "dark_range": [0, 0.01], "observed": {"event": "multi", "probability": 0.01}, "cutoff": 2,
    }
    assert run_analysis(descriptor_from_dict({**data, "cutoff": 1})).status == "reducible"
    assert cli.main(["weight", _write_descriptor(tmp_path, data)]) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("descriptor error: mode_map: its 3-photon lift is not a measurement: ")


_CG = multiclick_coarse_graining(enumerate_events(4))


def _target(eta):
    return flag_state_target(apply_postprocessing(_CG, build_threshold_povm(passive_bb84_setup(eta), 1)), 1)


_F_LOSSLESS = _target(1.0)
_EFFICIENCY = st.floats(1e-3, 1.0)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_eta_star_interval_is_admissible_at_every_efficiency_of_the_box(data):
    ranges = [sorted(data.draw(st.tuples(_EFFICIENCY, _EFFICIENCY))) for _ in range(4)]
    desc = descriptor_from_dict({**PASSIVE, "eta_range": ranges, "eta_star": None})
    cert = run_analysis(desc)
    hi = [h for _, h in ranges]
    box_lo = min(hi) / (1.0 - (max(hi) - min(hi)))  # the all-high corner binds
    assert cert.derived["eta_star_range"] == [pytest.approx(box_lo, rel=1e-12), 1.0]
    box_lo = cert.derived["eta_star_range"][0]
    eta = np.array([data.draw(st.floats(lo, h)) for lo, h in ranges])
    channel = loss_channel(eta, box_lo, _F_LOSSLESS)
    assert verify_cptp(channel, 1e-9).passed
    assert verify_statistics_equivalence(None, _target(eta), _target(box_lo), channel).passed
    below = run_analysis(desc.replace(eta_star=box_lo * (1 - 1e-6)))
    assert below.status == "not reducible under this framework"
    assert "admissible interval" in below.failed_requirement
    assert below.checks == []


_UNIT = st.floats(0.0, 1.0)


def _draw_points(draw, data, k):
    """Maybe an ``eta`` and a ``dark`` point, each inside its drawn range (or the default one)."""
    for name, default in (("eta", [1.0, 1.0]), ("dark", [0.0, 0.0])):
        if not draw(st.booleans()):
            continue
        ranges = data.get(f"{name}_range", default)
        ranges = [ranges] if not isinstance(ranges[0], list) else ranges
        inside = [st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)) for lo, hi in ranges]
        if len(inside) == 1 and draw(st.booleans()):
            data[name] = draw(inside[0])  # one value shared by every detector
        else:
            data[name] = [draw(value) for value in (inside * k if len(inside) == 1 else inside)]


@st.composite
def _descriptor_json(draw):
    setup = draw(st.sampled_from(["active-bb84", "passive-bb84", "custom"]))
    data = {"setup": setup}
    k = {"active-bb84": 2, "passive-bb84": 4}.get(setup)
    if k is None:
        k = data["k"] = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (k, draw(st.integers(1, k)))
        isometry = np.linalg.qr(rng.normal(size=shape) + 1j * draw(st.booleans()) * rng.normal(size=shape))[0]
        # an entry is a number or a [re, im] pair
        data["mode_map"] = [
            [[z.real, z.imag] if z.imag or draw(st.booleans()) else z.real for z in row] for row in isometry.tolist()
        ]
    for name in ("eta_range", "dark_range"):
        one = st.tuples(_UNIT, _UNIT).map(sorted)
        if draw(st.booleans()):
            data[name] = draw(st.one_of(one, st.lists(one, min_size=k, max_size=k)))
    _draw_points(draw, data, k)
    optional = {
        "cutoff": st.integers(1, 3),
        "eta_star": st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)),
        "coarse_grain": st.sampled_from(["none", "multiclick"] if k > 1 and setup != "active-bb84" else ["none"]),
        "tol": st.floats(1e-15, 1.0),
        "feas_tol": st.floats(1e-15, 1.0),
        "seed": st.integers(0, 2**31),
        "weight_in": _UNIT,
        "corner_limit": st.integers(2, 64),
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            data[name] = draw(values)
    if draw(st.booleans()):
        events = enumerate_events(k)
        labels = events.labels + (("multi",) if events.multi_indices else ())
        data["observed"] = {"event": draw(st.sampled_from(labels)), "probability": draw(_UNIT)}
    return data


@settings(max_examples=200, deadline=None)
@given(data=_descriptor_json())
def test_descriptor_json_round_trip(data):
    desc = descriptor_from_dict(data)
    echoed = json.loads(json.dumps(desc.to_dict()))
    assert descriptor_from_dict(echoed) == desc
    assert "eta_star" in echoed  # echoed even when null
    # one conversion however built: in Python, by replace, and hashable
    assert SetupDescriptor(**data) == desc
    assert desc.replace() == desc
    hash(desc)
    if desc.setup == "custom":  # real exactly when no entry has a nonzero imaginary part
        real = not any(isinstance(z, list) and z[1] for row in data["mode_map"] for z in row)
        dtype = np.dtype(np.float64 if real else np.complex128)
        assert np.asarray(desc.mode_map).dtype == dtype
        assert build_setup(desc, Box(desc).eta).mode_map.dtype == dtype


# Edge values of the efficiencies and dark rates, and of eta_star beyond [0, 1].
_EDGES = [0.0, 1e-300, 3e-13, 1e-9, 1 - 1e-12, 1 - 5e-13, 1.0]
_EDGE_OR_UNIT = st.one_of(st.sampled_from(_EDGES), _UNIT)


@st.composite
def _loadable_descriptor(draw):
    setup = draw(st.sampled_from(["active-bb84", "passive-bb84", "custom"]))
    data = {"setup": setup}
    k = {"active-bb84": 2, "passive-bb84": 4}.get(setup)
    if k is None:
        k = data["k"] = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (k, draw(st.integers(1, k)))
        isometry = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
        if draw(st.booleans()):  # a first column off unit norm: not an isometry
            isometry[:, 0] *= draw(st.sampled_from([0.0, 1 + 1e-9, 2.0]))
        data["mode_map"] = [[[z.real, z.imag] for z in row] for row in isometry.tolist()]
    ranges = st.tuples(_EDGE_OR_UNIT, _EDGE_OR_UNIT).map(sorted)
    for name in ("eta_range", "dark_range"):
        data[name] = draw(st.one_of(ranges, st.lists(ranges, min_size=k, max_size=k)))
    _draw_points(draw, data, k)
    if draw(st.booleans()):
        data["corner_limit"] = draw(st.integers(2, 17))
    data["eta_star"] = draw(st.one_of(st.none(), st.sampled_from([*_EDGES, 1 + 5e-13]), _UNIT))
    if draw(st.booleans()):
        data["feas_tol"] = draw(st.sampled_from([1e-15, 1e-9, 1e-6, 1e-2]))
    if draw(st.booleans()):
        data["tol"] = draw(st.sampled_from([1e-300, 1e-16, 1e-9, 1.0]))
    if k > 1 and setup != "active-bb84" and draw(st.booleans()):
        data["coarse_grain"] = "multiclick"
    events = enumerate_events(k)
    labels = events.labels + (("multi",) if events.multi_indices else ())
    data["observed"] = {"event": draw(st.sampled_from(labels)), "probability": draw(_EDGE_OR_UNIT)}
    return data


@settings(max_examples=150, deadline=None)
@given(data=_loadable_descriptor())
@example(  # efficiencies one ulp apart, eta_star at the all-high corner's lower end rounded per operation
    data={**PASSIVE, "eta_range": [[0.237207102422257, 0.23720710242225704]] + [[0.5970086087894079] * 2] * 3,
          "eta_star": 0.37052118176069027, "observed": {"event": "multi", "probability": 0.01}},
)
@example(  # near-equal dark rates: the swap LP passes, both statistics checks fail at 4.25e-9
    data={"setup": "active-bb84", "dark_range": [[0.05, 0.05], [0.050000005, 0.050000005]],
          "observed": {"event": "01", "probability": 0.01}},
)
@example(  # a tol below the swap LP's rounding: its dual bound (0) cannot prove the residual
    data={**json.loads((ROOT / "descriptors" / "active_bb84.json").read_text()), "tol": 1e-300,
          "observed": {"event": "01", "probability": 0.01}},
)
@example(  # rates 1e-12 apart at tol 1e-16: decided infeasible, its dual bound equal to the residual
    data={"setup": "active-bb84", "dark_range": [[0, 0], [0, 1e-12]], "tol": 1e-16,
          "observed": {"event": "01", "probability": 0.01}},
)
def test_every_loadable_descriptor_ends_with_a_named_outcome(tmp_path_factory, data):
    path = _write_descriptor(tmp_path_factory.mktemp("descriptor"), data)
    active = data["setup"] == "active-bb84"
    codes = {}
    for command in ["analyze", "verify-channel", "weight"] + (["swap-lp", "choi-check"] if active else []):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = codes[command] = cli.main([command, path])
        if code == EXIT_TOOL_ERROR:
            assert re.match(r"descriptor error: \w+: ", err.getvalue()), (command, err.getvalue())
        else:
            assert code in (EXIT_OK, EXIT_NOT_REDUCIBLE) and err.getvalue() == ""
            payload = json.loads(out.getvalue())
            if command in ("analyze", "verify-channel"):
                assert (payload["status"] == "reducible") == (code == EXIT_OK), command
    if active:  # every drawn feas_tol is at least 1e-15, above the closed-form witness's rounding
        assert (codes["choi-check"] == EXIT_OK) == (codes["swap-lp"] == EXIT_OK)


@pytest.mark.parametrize("name", ["passive_bb84", "active_bb84"])
def test_certificate_descriptor_echo_round_trips(tmp_path, name):
    path = ROOT / "descriptors" / f"{name}.json"
    out = tmp_path / "certificate.json"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == EXIT_OK
    cert = json.loads(out.read_text())
    assert descriptor_from_dict(cert["descriptor"]) == load_descriptor(path)


@pytest.mark.parametrize(
    "residual, passed",
    [(0.0, True), (1e-9, True), (1e-9 * (1 + 1e-15), False), (float("nan"), False)],
)
def test_add_check_passes_iff_residual_within_tolerance(residual, passed):
    cert = Certificate(descriptor={}, derived={})
    cert.add_check("check", "operation", {}, residual, 1e-9)
    assert cert.checks[0]["passed"] is passed
    assert cert.all_passed is passed


def test_add_check_with_a_requirement_stops_only_on_failure():
    cert = Certificate(descriptor={}, derived={})
    cert.add_check("held", "operation", {}, 1e-9, 1e-9, "the requirement")
    assert cert.all_passed
    with pytest.raises(ValueError, match="^the requirement$"):
        cert.add_check("broken", "operation", {}, math.nan, 1e-9, "the requirement")
    assert [(c["name"], c["passed"]) for c in cert.checks] == [("held", True), ("broken", False)]


def _bent(p_db, pattern, to):
    """``p_db`` with 1e-3 of click pattern ``pattern``'s weight moved to pattern ``to``."""
    events = enumerate_events(p_db.row_table.k)
    src, dst = events.labels.index(pattern), events.labels.index(to)
    entries = p_db.entries.copy()
    entries[src, src] -= 1e-3
    entries[dst, src] += 1e-3
    return StochasticMatrix(entries)


# (descriptor, failing check or None, start of the failed requirement)
STOPS = {
    "eta-star-passive": ({**PASSIVE, "eta_star": 0.5}, None, "common efficiency 0.5 outside the admissible"),
    "eta-star-active": ({**ACTIVE_NARROW, "eta_star": 0.5}, None, "common efficiency 0.5 outside the admissible"),
    "zero-efficiency": ({**PASSIVE, "eta_range": [0.0, 0.5]}, None, "admissible common-efficiency interval is empty"),
    "unequal-active-rates": (
        {"setup": "active-bb84", "dark_range": [[0.0, 0.01], [0.0, 0.02]]}, "swap-equation-lp",
        "the swap equation P_sq' P_db = P_dc P_sq has no stochastic solution "
        "for the qubit squasher (it requires equal dark count rates)",
    ),
}


@pytest.mark.parametrize("name", list(STOPS))
def test_a_failed_requirement_ends_the_analysis_at_its_check(name):
    data, failing, requirement = STOPS[name]
    cert = run_analysis(descriptor_from_dict(data))
    assert cert.status == "not reducible under this framework"
    assert cert.failed_requirement.startswith(requirement)
    verdicts = [(c["name"], c["passed"]) for c in cert.checks]
    # the failing check, where there is one, is the last recorded; every check before it passed
    if failing is None:
        assert all(passed for _, passed in verdicts)
    else:
        assert verdicts[-1] == (failing, False)
        assert all(passed for _, passed in verdicts[:-1])


_MULTICLICK = {k: multiclick_coarse_graining(enumerate_events(k)) for k in (2, 3, 4)}


def test_a_graining_without_swap_records_the_gap_of_the_column_it_demotes():
    # a multi click demoted to a single one: 1e-3 leaves column 5 ("0011") of
    # M P_db, and the mean of the 11 columns merged with it moves by 1e-3 / 11
    bent = _bent(dark_count_matrix([0.01] * 4), "0011", "0001")
    with pytest.raises(ValueError, match=r"column 5 of M P_db is 9\.091e-04 from the mean"):
        coarse_grained_dc_ansatz(bent, _MULTICLICK[4])


@pytest.mark.parametrize("bent", [False, True], ids=["kronecker", "bent"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_graining_check_passes_exactly_when_the_ansatz_returns(bent, data):
    # the swap check of the one candidate, the mean of the merged columns of
    # M P_db, passes (to 1e-12) exactly when the ansatz returns it
    k = data.draw(st.integers(2, 4))
    rates = data.draw(st.lists(st.floats(0.0, 0.5), min_size=k, max_size=k))  # every diagonal entry >= 1/16
    p_db = dark_count_matrix(rates)
    if bent:  # a multi-click column bent to a single or no-click one parts from the columns merged with it
        labels = enumerate_events(k).labels  # labels[k + 1:] are the multi-click patterns
        pattern = data.draw(st.sampled_from(labels[k + 1:]) | st.sampled_from(labels))
        to = data.draw((st.sampled_from(labels[: k + 1]) | st.sampled_from(labels)).filter(lambda x: x != pattern))
        p_db = _bent(p_db, pattern, to)
    cg = _MULTICLICK[k].entries
    candidate = (cg @ p_db.entries @ cg.T) / cg.sum(axis=1)
    passed = swap_residual(candidate, cg, p_db.entries) <= 1e-12
    try:
        p_dc = coarse_grained_dc_ansatz(p_db, _MULTICLICK[k])
    except ValueError:
        assert not passed
    else:
        assert passed
        np.testing.assert_array_equal(p_dc.entries, candidate)


def _replayed_channel_checks(desc, cert, wrap) -> dict:
    """Each channel check of ``cert`` by name: the function it names and its residual on that corner's channel.

    The channels come from the public builders, each passed through ``wrap``.
    """
    tol, out = desc.tol, {}
    bb84, generic = map(wrap, (bb84_simple_noise_channel, generic_channel))
    if desc.setup == "active-bb84":
        d_vec, lp = _active_point(desc, "swap-lp")
        channel = bb84(float(d_vec[0]))
        out["bb84-channel-cptp"] = (verify_cptp, verify_cptp(channel, tol).residual)
        for basis in "ZX":
            povm = bb84_qubit_measurement(basis)
            stats = verify_statistics_equivalence(lp.matrix, povm, povm, channel, tol)
            out[f"bb84-channel-statistics-{basis}"] = (verify_statistics_equivalence, stats.max_residual)
        return out
    cg = multiclick_coarse_graining(enumerate_events(desc.k)) if desc.coarse_grain == "multiclick" else None

    def target(eta, dark=()):
        povm = build_threshold_povm(build_setup(desc, eta), 1)
        if dark:
            povm = apply_postprocessing(dark_count_matrix(dark), povm)
        return flag_state_target(povm if cg is None else apply_postprocessing(cg, povm), 1)

    f_ideal = target(np.full(desc.k, cert.derived["eta_star"]))
    proj01 = f_ideal.layout.projector(("m=0", "m=1"))
    for check in cert.checks:
        suffix = check["name"].removeprefix("generic-channel-cptp")
        if suffix == check["name"]:
            continue
        inputs = check["inputs"]
        f_noise, q = target(np.array(inputs["eta"]), inputs["dark"]), inputs["q"]
        channel = generic(f_noise, f_ideal, q)
        out[f"generic-channel-cptp{suffix}"] = (verify_cptp, verify_cptp(channel, tol).residual)
        for name, identities in (
            ("statistics", (None, f_noise, f_ideal)), ("weight-relation", ([[1.0 - q]], [proj01], [proj01])),
        ):
            stats = verify_statistics_equivalence(*identities, channel, tol)
            out[f"generic-channel-{name}{suffix}"] = (verify_statistics_equivalence, stats.max_residual)
    return out


def _with_fault(build):
    """``build`` plus a term adding ``(1e-6 F[1, 1] + 3e-6 F[-1, -1]) |1><1|`` to each ``Phi^dag(F)``.

    Trace preservation, the weight relations and the statistics then fail
    by different amounts, so a residual scored against the wrong identity shows.
    """

    def wrapped(*args):
        channel = build(*args)
        d = channel.input_layout.total_dim
        op, prep = np.zeros((2, 1, d, d))
        op[0, 1, 1], prep[0, 1, 1], prep[0, -1, -1] = 1.0, 1e-6, 3e-6
        fault = _MeasurePrepare(ops=op, preps=prep)
        return QuantumChannel(channel.input_layout, channel.output_layout, channel.terms + (fault,))

    return wrapped


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("name", ["passive_bb84", "active_bb84"])
def test_certificate_checks_reproduce_through_the_operations_they_name(monkeypatch, name, faulty):
    # analyze scores every channel in one eigensolve and one contraction;
    # each channel check must still be what the public function it names
    # gives on that corner's channel, exact or failing; the analysis builds
    # its channels through the same public builders
    wrap = _with_fault if faulty else (lambda build: build)
    if faulty:
        for factory in ("bb84_simple_noise_channel", "generic_channel"):
            monkeypatch.setattr(report, factory, _with_fault(getattr(report, factory)))
    desc = load_descriptor(ROOT / "descriptors" / f"{name}.json")
    calls = []
    with pytest.MonkeyPatch.context() as counting:
        for method in ("residuals", "psd_residuals"):
            scorer = getattr(ChoiSupport, method)
            counting.setattr(ChoiSupport, method, lambda *a, _f=scorer: calls.append(_f.__name__) or _f(*a))
        cert = run_analysis(desc)
    assert sorted(calls) == ["psd_residuals", "residuals"]
    assert cert.all_passed is not faulty
    replayed = _replayed_channel_checks(desc, cert, wrap)
    checks = [c for c in cert.checks if "-channel-" in c["name"]]
    assert [c["name"] for c in checks] == list(replayed)
    for check in checks:
        operation, residual = replayed[check["name"]]
        assert check["operation"] == operation.__name__
        assert abs(check["residual"] - residual) <= 1e-15, check["name"]


# The dark and loss channels' preconditions and builders, and the generic builder's guard.
_OLD_ROUTE = (
    "validate_dark_count_pp",
    "verify_single_photon_assumption",
    "coarse_grained_dc_ansatz",
    "dark_count_channel",
    "loss_channel",
    "_deviation_bound",
)


@pytest.mark.parametrize("command", ["analyze", "verify-channel"])
def test_the_flag_state_route_calls_none_of_the_old_routes_functions(monkeypatch, tmp_path, command):
    # one generic channel per corner: no precondition is decided on the path,
    # no dark or loss channel is built, and the public generic builder's
    # deviation bound is not computed
    counts, wrapped = dict.fromkeys(_OLD_ROUTE, 0), set()
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "detcert"]:
        for name in set(_OLD_ROUTE) & vars(module).keys():

            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
            wrapped.add(name)
    assert wrapped == set(_OLD_ROUTE)
    path = str(ROOT / "descriptors" / "passive_bb84.json")
    assert cli.main([command, path, "--out", str(tmp_path / "out.json")]) == EXIT_OK
    assert counts == dict.fromkeys(_OLD_ROUTE, 0)


@settings(max_examples=40, deadline=None)
@given(data=_descriptor_json().filter(lambda data: data["setup"] != "active-bb84"))
def test_public_builders_accept_what_the_analysis_constructs(data):
    # the analysis calls the public generic builder once, on the stack of
    # corners, which admits q only if every corner's excess is PSD to
    # rounding; the builder admits q at each corner alone, and its Choi
    # matrix there is that corner's, bit for bit
    calls = []
    with pytest.MonkeyPatch.context() as recording:
        recording.setattr(report, "generic_channel", lambda *a: calls.append(a) or generic_channel(*a))
        run_analysis(descriptor_from_dict({**data, "cutoff": 1}))
    assume(calls)
    ((f_noise, f_ideal, q),) = calls
    for i, constructed in enumerate(generic_channel(f_noise, f_ideal, q).support.dense()):
        (built,) = generic_channel(f_noise.take(i), f_ideal, q).support.dense()
        assert built.tobytes() == constructed.tobytes()


_FRACTIONS = st.lists(_UNIT, min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    data=_descriptor_json().filter(lambda data: data["setup"] != "active-bb84"),
    star=_UNIT, eta_at=_FRACTIONS, dark_at=_FRACTIONS,
)
@example(  # no slack: eta_star at its lower end, which the least efficient detector sets, at the top dark rates
    data={**PASSIVE, "eta_range": [[0.5, 0.5]] + [[0.6, 0.6]] * 3}, star=0.0, eta_at=[0.0] * 4, dark_at=[1.0] * 4,
)
def test_the_certified_channel_exists_inside_the_box(data, star, eta_at, dark_at):
    # the analysis certifies the generic channel at the box's corners, at
    # q = 1 - p00 eta_min / eta_star; at any point (eta, d) of the box, for
    # any admissible eta_star, the noisy measurement still dominates
    # (1 - q) times the ideal one, so the public builder admits q there
    desc = descriptor_from_dict({**data, "cutoff": 1})
    box = Box(desc)
    corners, d_max = box.corners(), box.dark_hi
    eta_min = float(corners.min())
    assume(eta_min > 0.0)
    eta_hi = corners.max(axis=0)  # the all-high corner binds the admissible interval
    low = eta_star_range(float(eta_hi.min()), float(eta_hi.max()))[0]
    eta_star = min(1.0, low + star * (1.0 - low))
    (lo, hi), top = np.array(desc.eta_range).T, np.array(desc.dark_range)[:, 1]
    eta = lo + np.array(eta_at[: desc.k]) * (hi - lo)
    dark = top * np.array(dark_at[: desc.k])
    cg = multiclick_coarse_graining(enumerate_events(desc.k)) if desc.coarse_grain == "multiclick" else None

    def target(povm):
        return flag_state_target(povm if cg is None else apply_postprocessing(cg, povm), 1)

    f_noise = target(apply_postprocessing(dark_count_matrix(dark), build_threshold_povm(build_setup(desc, eta), 1)))
    f_ideal = target(build_threshold_povm(build_setup(desc, np.full(desc.k, eta_star)), 1))
    q = 1.0 - float(dark_count_matrix(d_max).entries[0, 0]) * (eta_min / eta_star)
    channel = generic_channel(f_noise, f_ideal, q)
    assert verify_cptp(channel, 1e-9).passed
    assert verify_statistics_equivalence(None, f_noise, f_ideal, channel, 1e-9).passed


def test_analysis_custom_setup():
    s2 = float(np.sqrt(0.5))
    desc = descriptor_from_dict(
        {
            "setup": "custom",
            "k": 3,
            "mode_map": [[[s2, 0.0]], [[0.0, 0.5]], [[0.5, 0.0]]],
            "eta_range": [0.6, 0.8],
            "dark_range": [0.0, 0.02],
            "cutoff": 1,
            "coarse_grain": "multiclick",
            "seed": 2,
        }
    )
    cert = run_analysis(desc)
    assert cert.all_passed
    assert cert.derived["efficiency_ratio"] == pytest.approx(0.6)


def test_analysis_needs_unit_cutoff():
    with pytest.raises(DescriptorError, match="cutoff"):
        run_analysis(descriptor_from_dict({**PASSIVE, "cutoff": 2}))


def test_eta_corners_include_extremes():
    desc = descriptor_from_dict(PASSIVE)
    box = Box(desc)
    corners = box.corners()
    assert box.dark_hi.tolist() == [0.01] * 4
    assert any(np.allclose(c, 0.5) for c in corners)
    assert any(np.allclose(c, 0.6) for c in corners)
    assert len(corners) <= desc.corner_limit
    # binary-counter order, detector 1 first
    assert [c.tolist() for c in corners] == [
        [0.5] * 4, [0.6] * 4, [0.6, 0.5, 0.5, 0.5], [0.5, 0.6, 0.5, 0.5]
    ]
    # detectors with a point range take no part in the count: no corner repeats
    ranges = [[0.5, 0.6], [0.5, 0.5], [0.5, 0.6], [0.5, 0.5]]
    desc = descriptor_from_dict({**PASSIVE, "eta_range": ranges, "corner_limit": 16})
    corners = Box(desc).corners()
    assert [c.tolist() for c in corners] == [
        [0.5] * 4, [0.6, 0.5, 0.6, 0.5], [0.6, 0.5, 0.5, 0.5], [0.5, 0.5, 0.6, 0.5]
    ]


@settings(max_examples=100, deadline=None)
@given(
    ranges=st.lists(st.tuples(_UNIT, _UNIT).map(sorted), min_size=4, max_size=4),
    corner_limit=st.integers(2, 20),
)
def test_corner_stack_ends_are_the_range_ends(ranges, corner_limit):
    desc = descriptor_from_dict({**PASSIVE, "eta_range": ranges, "corner_limit": corner_limit})
    corners = Box(desc).corners()
    lo, hi = np.array(ranges).T
    assert corners.min(axis=0).tolist() == lo.tolist() and corners.max(axis=0).tolist() == hi.tolist()
    assert len(corners) == min(corner_limit, 2 ** int((lo < hi).sum()))
    assert len({tuple(c) for c in corners.tolist()}) == len(corners)


def test_point_is_eta_and_dark_else_the_range_ends():
    box = Box(descriptor_from_dict(PASSIVE))
    assert [box.eta.tolist(), box.dark.tolist()] == [[0.5] * 4, [0.01] * 4]
    box = Box(descriptor_from_dict({**PASSIVE, "eta": [0.51, 0.52, 0.53, 0.54], "dark": 0.002}))
    assert [box.eta.tolist(), box.dark.tolist()] == [[0.51, 0.52, 0.53, 0.54], [0.002] * 4]
    # the active point commands report the Box point: the given dark, else the top of each range
    active = descriptor_from_dict({"setup": "active-bb84", "dark_range": [0.0, 0.05]})
    for desc in (active, active.replace(dark=(0.0, 0.05)), active.replace(dark=(0.02, 0.02))):
        for command in (report.swap_lp, report.choi_check):
            assert command(desc)[0]["dark"] == Box(desc).dark.tolist()
    assert Box(active).dark.tolist() == [0.05, 0.05]
    assert Box(active.replace(dark=(0.0, 0.05))).dark.tolist() == [0.0, 0.05]


def test_a_box_is_immutable():
    box = Box(descriptor_from_dict(PASSIVE))
    for name in ("eta_lo", "eta_hi", "dark_hi", "eta", "dark", "corner_limit"):
        with pytest.raises(AttributeError):
            setattr(box, name, None)
        with pytest.raises(AttributeError):
            delattr(box, name)
    with pytest.raises(ValueError, match="read-only"):
        box.eta[0] = 0.9
    assert box.eta.tolist() == [0.5] * 4


def test_canonical_json_round_trip():
    payload = {
        "b": [1.0, 0.5**20, 1e-17],
        "a": {"nested": True, "x": None},
        "s": "text",
        "n": 3,
    }
    text = canonical_json(payload)
    parsed = json.loads(text)
    assert parsed["b"] == payload["b"]
    assert parsed["a"] == payload["a"]
    assert list(json.loads(text)) == sorted(payload)


def test_canonical_json_fixed_float_format():
    assert canonical_json(1 / 3) == "0.33333333333333331"
    assert canonical_json(float(np.float64(0.1))) == "0.10000000000000001"


def test_emit_certificate_round_trip(tmp_path):
    cert = run_analysis(descriptor_from_dict(PASSIVE))
    path = write_json(cert.to_dict(), tmp_path / "cert.json")
    parsed = json.loads(path.read_text())
    assert parsed["status"] == "reducible"
    assert parsed["derived"]["p_no_dark"] == pytest.approx(0.99**4)
    # every check names the operation that reproduces its residual
    for check in parsed["checks"]:
        assert check["operation"]
        assert "inputs" in check


def test_emit_certificate_missing_directory(tmp_path):
    cert = Certificate(descriptor={}, derived={})
    with pytest.raises(OSError):
        write_json(cert.to_dict(), tmp_path / "missing" / "cert.json")


# Leaves of every JSON kind the certificate serializer accepts, and the numpy ones it refuses.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TEXT = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(["", "\x00\x1f\x7f", "é ∑ 😀", '"\\/'])
_ARRAY_ROWS = st.integers(0, 3)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FINITE, _TEXT)
_NUMPY_LEAVES = st.one_of(
    _FINITE.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(_FINITE, max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
    st.tuples(_ARRAY_ROWS, _ARRAY_ROWS).flatmap(
        lambda shape: st.lists(_FINITE, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        .map(lambda v: np.array(v, dtype=float).reshape(shape))
    ),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
        st.dictionaries(_FINITE, children, max_size=3),
    ),
    max_leaves=25,
)


@st.composite
def _shared_trees(draw):
    """A tree holding one container at two depths and at several places."""
    shared = draw(st.one_of(
        st.dictionaries(_TEXT, _TREES, max_size=3),
        st.lists(_TREES, max_size=3),
        st.lists(_TREES, max_size=3).map(tuple),
    ))
    other = draw(_TREES)
    return {
        "a": shared,
        "b": [shared, {"c": shared, "d": other}, shared],
        "e": (other, [shared]),
    }


@settings(max_examples=300, deadline=None)
@given(tree=_TREES | _shared_trees())
def test_canonical_json_matches_reference_bytes(tree):
    assert canonical_json(tree) == reference_canonical_json(tree)


@st.composite
def _trees_holding_numpy(draw):
    """A JSON tree holding one numpy leaf, at a drawn depth among drawn siblings."""
    tree = draw(_NUMPY_LEAVES)
    for _ in range(draw(st.integers(0, 3))):
        items = draw(st.lists(_TREES, max_size=3))
        items.insert(draw(st.integers(0, len(items))), tree)
        kind = draw(st.sampled_from([list, tuple, dict]))
        tree = {f"k{i}": v for i, v in enumerate(items)} if kind is dict else kind(items)
    return tree


@settings(max_examples=100, deadline=None)
@given(tree=_trees_holding_numpy())
def test_canonical_json_rejects_a_numpy_leaf_anywhere(tree):
    # payloads hold JSON types only: a numpy value is refused wherever it sits
    with pytest.raises(TypeError, match="cannot serialize <class 'numpy."):
        canonical_json(tree)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: {"checks": [{"inputs": {"eta": [0.5]}, "residual": x}]},
        lambda x: (1.0, [[0.5, x]]),
        lambda x: [[0.0, x]],
    ],
)
def test_canonical_json_rejects_non_finite(bad, wrap):
    with pytest.raises(ValueError, match="cannot serialize"):
        reference_canonical_json(wrap(bad))
    with pytest.raises(ValueError, match="cannot serialize"):
        canonical_json(wrap(bad))


@pytest.mark.parametrize(
    "bad",
    [
        object(), 1j, np.complex128(1.0), {1, 2}, b"bytes", np.array(0.5), np.array([1j]), [{"x": object()}],
        # numpy values, finite or not, in place of the JSON types they hold (np.float64 subclasses float)
        np.float64(math.nan), np.float64(math.inf), np.float64(-math.inf), np.float64(0.5), np.int64(1), np.bool_(True),
        (1.0, [np.array([0.5, math.nan])]), np.array([[0.0, math.inf]]), np.array([]),
        {"checks": [{"residual": np.float64(0.5)}]},
    ],
)
def test_canonical_json_rejects_unsupported_types(bad):
    with pytest.raises(TypeError):
        reference_canonical_json(bad)
    with pytest.raises(TypeError):
        canonical_json(bad)


_BUILT_DESCRIPTORS = {
    "passive-ranges": {
        "setup": "passive-bb84",
        "eta_range": [[0.4, 0.9], [0.55, 0.7], [0.6, 0.6], [0.45, 0.8]],
        "dark_range": [[0.0, 0.02], [0.0, 0.01], [0.0, 0.03], [0.0, 0.0]],
        "cutoff": 1,
        "eta_star": 1.0,
        "coarse_grain": "multiclick",
        "seed": 3,
    },
    "passive-fine": {**PASSIVE, "coarse_grain": "none", "corner_limit": 8},
    "passive-downgraded": {**PASSIVE, "eta_star": 0.55},
    "active-equal": {
        "setup": "active-bb84", "eta_range": [1.0, 1.0], "dark_range": [0.0, 0.002],
        "cutoff": 1, "eta_star": 1.0, "seed": 5,
    },
    "active-unequal": {
        "setup": "active-bb84", "eta_range": [[0.8, 0.9], [0.7, 0.95]],
        "dark_range": [[0.0, 0.004], [0.0, 0.03]], "cutoff": 1, "eta_star": 1.0, "seed": 5,
    },
}


@pytest.mark.parametrize(
    "source",
    ["descriptors/passive_bb84.json", "descriptors/active_bb84.json", *_BUILT_DESCRIPTORS],
)
def test_analyze_out_writes_reference_bytes(source, tmp_path):
    if source in _BUILT_DESCRIPTORS:
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(_BUILT_DESCRIPTORS[source]))
    else:
        path = ROOT / source
    out = tmp_path / "certificate.json"
    code = cli.main(["analyze", str(path), "--out", str(out)])
    cert = run_analysis(load_descriptor(path))
    assert code == cert.exit_code
    assert out.read_text() == reference_canonical_json(cert.to_dict()) + "\n"


def test_emit_certificate_with_nan_writes_nothing(tmp_path):
    cert = run_analysis(descriptor_from_dict(PASSIVE))
    cert.add_check("nan-residual", "verify_cptp", {"eta": [0.5]}, math.nan, 1e-9)
    out = tmp_path / "cert.json"
    with pytest.raises(ValueError, match="cannot serialize nan"):
        write_json(cert.to_dict(), out)
    assert not out.exists()


def test_run_weight_requires_observation():
    with pytest.raises(DescriptorError, match="observed"):
        weight(descriptor_from_dict(PASSIVE))


def test_run_weight_values():
    desc = descriptor_from_dict(
        {**PASSIVE, "coarse_grain": "none", "observed": {"event": "multi", "probability": 0.001}}
    )
    payload, code = weight(desc)
    assert code == EXIT_OK
    assert payload["lambda_inside"] == pytest.approx(0.0, abs=1e-13)
    assert payload["weight_bound"] == pytest.approx(
        0.001 / payload["lambda_outside"], abs=1e-12
    )
    assert 0.0 <= payload["weight_propagated"] <= 1.0


_RATE = st.floats(1e-4, 0.3)
# Flag-state boxes: passive BB84, and custom setups of 3 detectors and of passive BB84's 4 (its map written out).
_BOXES = {
    "passive": {**PASSIVE, "eta_star": None},
    "custom-k3": {"setup": "custom", "k": 3, "mode_map": [[0.6, 0], [0.8, 0], [0, 1]], "coarse_grain": "multiclick"},
    "custom-k4": {"setup": "custom", "k": 4, "mode_map": [[math.sqrt(0.5), 0], [0, math.sqrt(0.5)], [0.5, 0.5],
                                                          [0.5, -0.5]], "coarse_grain": "multiclick"},
}


def _drawn_box(data, route: str) -> dict:
    """A descriptor of ``route`` with drawn dark tops, and for a flag-state box drawn efficiency ranges."""
    if route == "active":  # equal rates, so the swap LP is feasible and the relation is reached
        return {"setup": "active-bb84", "dark_range": [0.0, data.draw(_RATE)]}
    k = _BOXES[route].get("k", 4)
    eta_range = [sorted(data.draw(st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)))) for _ in range(k)]
    return {**_BOXES[route], "eta_range": eta_range, "dark_range": [[0.0, data.draw(_RATE)] for _ in range(k)]}


@pytest.mark.parametrize("route", ["active", *_BOXES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_p_no_dark_is_the_product_of_no_dark_chances_on_every_route(route, data):
    # bit for bit prod(1 - d) at the top of the dark box, on the active route too: not the swap LP's solved P_dc[0, 0]
    desc = descriptor_from_dict(_drawn_box(data, route))
    derived = run_analysis(desc).derived
    assert derived["p_no_dark"] == float(np.prod(1.0 - Box(desc).dark_hi))


@pytest.mark.parametrize("route", ["passive", "custom-k4"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_weight_and_analyze_share_one_weight_relation(route, data):
    # without eta or dark, weight evaluates the all-low efficiencies and the top of the dark box, as analyze does
    desc = descriptor_from_dict({**_drawn_box(data, route), "observed": {"event": "multi", "probability": 0.01}})
    payload, _ = weight(desc)
    derived = run_analysis(desc).derived
    assert (payload["eta_star"], payload["p_no_dark"]) == (derived["eta_star"], derived["p_no_dark"])
    propagated = run_analysis(desc.replace(weight_in=payload["weight_bound"])).derived["weight_out"]
    assert payload["weight_propagated"] == propagated


def test_the_eta_star_interval_is_computed_once_per_command(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return eta_star_range(*args)

    wrapped = [name for name, module in sorted(sys.modules.items())
               if name.split(".")[0] == "detcert" and vars(module).get("eta_star_range") is eta_star_range]
    for name in wrapped:
        monkeypatch.setattr(sys.modules[name], "eta_star_range", counted)
    assert {"detcert.report", "detcert.squashing"} <= set(wrapped)
    passive, active = (load_descriptor(ROOT / "descriptors" / f"{name}_bb84.json") for name in ("passive", "active"))
    golden = next(case for case in CASES if (case.command, case.name) == ("weight", "passive_bb84"))
    runs = {"analyze passive": (report.analyze, passive), "analyze active": (report.analyze, active),
            "verify-channel passive": (report.verify_channel, passive),
            "weight passive": (weight, descriptor_from_dict(golden.descriptor))}
    for name, (command, desc) in runs.items():
        calls.clear()
        assert command(desc)[1] == EXIT_OK, name
        assert len(calls) == 1, name


def _write_descriptor(tmp_path, data):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_analyze_deterministic(tmp_path):
    desc = _write_descriptor(tmp_path, PASSIVE)
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli.main(["analyze", desc, "--out", str(out1)]) == EXIT_OK
    assert cli.main(["analyze", desc, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_swap_lp_exit_codes(tmp_path):
    # The whole dark box reads its top corner, equal rates 1, at residual 0; rates
    # [0, 1e-6] leave the swap optimum |d1 - d2| / 8 = 1.25e-7.  Both hold on any build.
    for dark, code, residual in [
        ([0.0, 0.05], EXIT_OK, None),
        ([[0.0, 0.01], [0.0, 0.02]], EXIT_NOT_REDUCIBLE, None),
        ([[0, 1], [0, 1]], EXIT_OK, 0.0),
        ([[0, 0], [0, 1e-6]], EXIT_NOT_REDUCIBLE, 1.25e-7),
    ]:
        desc, out = _write_descriptor(tmp_path, {"setup": "active-bb84", "dark_range": dark}), tmp_path / "lp.json"
        assert cli.main(["swap-lp", desc, "--out", str(out)]) == code
        result = json.loads(out.read_text())
        assert result["feasible"] is (code == EXIT_OK)
        if residual is not None:
            assert result["residual"] == pytest.approx(residual, rel=1e-9, abs=0)



def test_cli_choi_check_stops_at_an_infeasible_swap_equation(tmp_path, capsys):
    desc = _write_descriptor(tmp_path, {"setup": "active-bb84", "dark_range": [[0.0, 0.01], [0.0, 0.03]]})
    assert cli.main(["choi-check", desc]) == EXIT_NOT_REDUCIBLE
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "swap equation infeasible"
    assert payload["residual"] == pytest.approx(2.5e-3, rel=1e-9)
    assert payload["dark"] == [0.01, 0.03]


def test_cli_swap_lp_rejects_the_passive_setup(capsys):
    desc = str(ROOT / "descriptors" / "passive_bb84.json")
    assert cli.main(["swap-lp", desc]) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("descriptor error: setup: swap-lp ")


def test_cli_analyze_into_a_missing_directory_writes_nothing(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    desc = str(ROOT / "descriptors" / "passive_bb84.json")
    assert cli.main(["analyze", desc, "--out", str(out)]) == EXIT_TOOL_ERROR
    assert capsys.readouterr().err.startswith("error:")
    assert not out.parent.exists()


def test_cli_analyze_with_zero_efficiency_has_no_common_efficiency(tmp_path, capsys):
    data = {**json.loads((ROOT / "descriptors" / "passive_bb84.json").read_text()), "eta_range": [0.0, 0.5]}
    assert cli.main(["analyze", _write_descriptor(tmp_path, data)]) == EXIT_NOT_REDUCIBLE
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "not reducible under this framework"
    assert payload["checks"] == []
    assert payload["failed_requirement"].startswith("admissible common-efficiency interval is empty")

def test_cli_rejects_malformed_descriptor(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["analyze", str(path)]) == EXIT_TOOL_ERROR
    missing = tmp_path / "nope.json"
    assert cli.main(["analyze", str(missing)]) == EXIT_TOOL_ERROR


@pytest.mark.parametrize("content", [
    b'{"setup": "active-bb84", "seed": 7, "note": "\xe9"}',  # Latin-1, not UTF-8
    b"[" * 200_000,  # nested deeper than the JSON reader recurses
], ids=["not-utf8", "deep"])
@pytest.mark.parametrize("cmd", ["analyze", "swap-lp", "verify-channel", "weight", "choi-check"])
def test_cli_names_an_unreadable_descriptor(tmp_path, capsys, cmd, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert cli.main([cmd, str(path)]) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("descriptor error: cannot read descriptor: ")


@pytest.mark.parametrize("data", [
    {**json.loads((ROOT / "descriptors" / "active_bb84.json").read_text()), "tol": 1e-300},
], ids=["shipped-1e-300"])
@pytest.mark.parametrize("cmd", ["analyze", "verify-channel", "swap-lp", "choi-check"])
def test_cli_names_a_tolerance_the_swap_lp_cannot_decide(tmp_path, capsys, cmd, data):
    # the LP's residual lies above tol, but its dual bound cannot prove the violation
    assert cli.main([cmd, _write_descriptor(tmp_path, data)]) == EXIT_TOOL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("descriptor error: tol: the swap LP cannot decide at ")
    d_vec = Box(descriptor_from_dict(data)).dark
    with pytest.raises(RuntimeError, match="dual bound"):  # the library keeps its own guard
        solve_swap_lp(dark_count_matrix(d_vec), bb84_qubit_squasher(), tol=data["tol"])


@pytest.mark.parametrize("cmd", ["analyze", "verify-channel", "swap-lp", "choi-check"])
def test_cli_decides_rates_1e_12_apart_at_tol_1e_16(tmp_path, capsys, cmd):
    # the squasher's optimum is d/8 in closed form, with a dual bound equal to it
    data = {"setup": "active-bb84", "dark_range": [[0, 0], [0, 1e-12]], "tol": 1e-16}
    assert cli.main([cmd, _write_descriptor(tmp_path, data)]) == EXIT_NOT_REDUCIBLE
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    if cmd in ("analyze", "verify-channel"):
        assert payload["status"] == "not reducible under this framework"
        assert "P_sq' P_db = P_dc P_sq" in payload["failed_requirement"]
    elif cmd == "swap-lp":
        assert payload["feasible"] is False and payload["residual"] == pytest.approx(1.25e-13, rel=1e-3)
    else:
        assert payload["verdict"] == "swap equation infeasible"
    result = solve_swap_lp(dark_count_matrix([0.0, 1e-12]), bb84_qubit_squasher(), tol=1e-16)
    assert not result.feasible
    assert result.dual_bound == pytest.approx(result.residual, rel=1e-12)


def test_cli_verify_channel(tmp_path, capsys):
    desc = _write_descriptor(tmp_path, PASSIVE)
    assert cli.main(["verify-channel", desc]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "reducible"
    assert all("channel" in c["name"] for c in payload["checks"])


def test_cli_overrides_apply(tmp_path, capsys):
    desc = _write_descriptor(tmp_path, {**PASSIVE, "eta_star": None})
    assert cli.main(["analyze", desc, "--eta-star", "0.9", "--seed", "11"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived"]["eta_star"] == pytest.approx(0.9)
    assert payload["descriptor"]["seed"] == 11


def test_cli_weight(tmp_path, capsys):
    desc = _write_descriptor(
        tmp_path,
        {**PASSIVE, "coarse_grain": "none", "observed": {"event": "multi", "probability": 0.002}},
    )
    assert cli.main(["weight", desc]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["weight_bound"] > 0


def test_cli_choi_check(tmp_path, capsys):
    desc = _write_descriptor(
        tmp_path, {"setup": "active-bb84", "dark_range": [0.0, 0.05], "seed": 0}
    )
    assert cli.main(["choi-check", desc]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    for basis in ("Z", "X"):
        assert payload["bases"][basis]["verdict"] == "feasible-at-tol"
        assert payload["bases"][basis]["witness_report"]["passed"]


def test_choi_check_prints_no_negative_zero(capsys):
    # the shipped witness has a zero row, so its smallest Choi eigenvalue is 0
    path = str(ROOT / "descriptors" / "active_bb84.json")
    desc = load_descriptor(path)
    _, lp = _active_point(desc, "swap-lp")
    for basis in ("Z", "X"):
        povm = bb84_qubit_measurement(basis)
        witness = measure_prepare_witness(lp.matrix, povm, povm)
        residual = verify_choi_witness(witness, lp.matrix, povm, povm, desc.feas_tol).psd_residual
        assert math.copysign(1.0, residual) == 1.0
    assert cli.main(["choi-check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"psd_residual"' in out
    assert re.findall(r"(?<![\w.])-0(?![\w.])", out) == []


def test_cli_choi_check_decides_at_the_feasibility_tolerance(tmp_path, capsys):
    # the closed-form witness of the shipped descriptor misses by at most 4.4e-16 (X) and 0 (Z)
    data = json.loads((ROOT / "descriptors" / "active_bb84.json").read_text())
    assert cli.main(["choi-check", _write_descriptor(tmp_path, {**data, "feas_tol": 1e-15})]) == EXIT_OK
    for entry in json.loads(capsys.readouterr().out)["bases"].values():
        assert entry["verdict"] == "feasible-at-tol" and entry["witness_report"]["passed"]
        assert set(entry) == {"verdict", "residual", "witness_report"}
        assert entry["residual"] <= 1e-15
    assert cli.main(["choi-check", _write_descriptor(tmp_path, {**data, "feas_tol": 1e-16})]) == EXIT_NOT_REDUCIBLE
    bases = json.loads(capsys.readouterr().out)["bases"]
    assert bases["Z"]["verdict"] == "feasible-at-tol"
    assert bases["X"]["verdict"] == "undetermined"
    assert not bases["X"]["witness_report"]["passed"]
    assert bases["X"]["residual"] > 1e-16
