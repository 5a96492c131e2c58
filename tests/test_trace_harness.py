"""The benchmark's span instrumentation still finds what it wraps.

``bench/spans.py`` patches the library by module, function and method
name.  A refactor that removes one of them would break a traced benchmark
run (``bench/run.py --trace 1``) without failing any library test; this
test runs one traced ``analyze`` op and one traced ``choi-check`` op in
process and fails instead.
"""

import json
from pathlib import Path

from detcert import cli
from detcert.channels import QuantumChannel

ROOT = Path(__file__).resolve().parents[1]


def test_traced_analyze_records_library_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    choi, apply_dense = QuantumChannel.__dict__["choi"], QuantumChannel.__dict__["apply_dense"]
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    instrumentation.install()
    try:
        with tracer.op("analyze"):
            code = cli.main(
                [
                    "analyze",
                    str(ROOT / "descriptors" / "passive_bb84.json"),
                    "--out",
                    str(tmp_path / "certificate.json"),
                ]
            )
    finally:
        instrumentation.uninstall()

    assert code == 0
    assert QuantumChannel.__dict__["choi"] is choi
    assert QuantumChannel.__dict__["apply_dense"] is apply_dense
    names = {span[3] for span in tracer.spans}
    for name in (
        "channels.dark_count_channel",
        "channels.loss_channel",
        "channels.certify_choi",
        "detectors.build_threshold_povm",
        "squashing.flag_state_target",
        "report.emit_certificate",
    ):
        assert name in names, name
    metrics = spans.layer_metrics(tracer)
    # every corner is certified on the Choi support: no dense Choi matrix is built
    assert metrics["channels.choi_calls"][0] == 0
    assert metrics["detectors.povm_calls"][0] == 1
    assert 0.0 < metrics["trace.coverage"][0] <= 1.0


def test_traced_active_analyze_records_the_kept_builders(tmp_path, monkeypatch):
    # The squasher and the BB84 measurements are built once per process, but
    # their public builders are still called per op, so their time stays in
    # their own layers rather than in report.self.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    instrumentation.install()
    try:
        for _ in range(2):  # a cold op, then a warm one
            with tracer.op("analyze"):
                code = cli.main(
                    ["analyze", str(ROOT / "descriptors" / "active_bb84.json"), "--out", str(tmp_path / "a.json")]
                )
            assert code == 0
    finally:
        instrumentation.uninstall()

    names = [span[3] for span in tracer.spans]
    assert names.count("postprocessing.bb84_qubit_squasher") == 2
    assert names.count("channels.bb84_qubit_measurement") == 4  # both bases, per op
    assert "postprocessing.solve_swap_lp" in names
    assert spans.layer_metrics(tracer)["detectors.povm_calls"][0] == 0


def test_traced_choi_check_records_the_witness_and_the_writer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    from detcert import report

    written = []
    write_json = report.write_json
    monkeypatch.setattr(
        cli, "write_json", lambda payload, path: written.append(path) or write_json(payload, path)
    )
    out = tmp_path / "choi-check.json"
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    instrumentation.install()
    try:
        with tracer.op("choi-check"):
            code = cli.main(["choi-check", str(ROOT / "descriptors" / "active_bb84.json"), "--out", str(out)])
    finally:
        instrumentation.uninstall()

    assert code == 0
    assert written == [str(out)]
    names = [span[3] for span in tracer.spans]
    for name in ("feasibility.measure_prepare_witness", "feasibility.verify_choi_witness", "report.canonical_json"):
        assert name in names, name
    # the writer serializes once, and what it wrote is the payload's canonical text
    assert names.count("report.canonical_json") == 1
    payload = json.loads(out.read_text())
    assert out.read_text() == report.canonical_json(payload) + "\n"
    metrics = spans.layer_metrics(tracer)
    assert metrics["feasibility.probe_ms"][0] > 0.0  # the feasibility layer's bucket, the witness included
    assert metrics["report.serialize_ms"][0] > 0.0
