"""Smoke test of the benchmark at tiny sizes; it has no timing bounds.

Every metric BENCHMARK.json names must come out of each workload with its
unit, the checks must pass on honest outputs and fail on corrupted ones, and
the tracer must survive a traced function that no longer exists.
"""

import dataclasses
import json
import math

import pytest

import program

dmdk = program.load()

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spec import DESK, FULL  # noqa: E402

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = dict(d=8, heads=2, decoder_layers=1, ffn_multiplier=2, view_rows=3, view_cols=6,
            epochs=2, decodes_per_round=4, decode_records=2, decode_length=5, setup_reps=1)
SHAPES = {
    "desk": dataclasses.replace(DESK, setup_reps=1),
    "full": dataclasses.replace(FULL, **TINY),
}


def test_spec_names_each_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(SHAPES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SHAPES))
def test_every_metric_emitted_with_its_unit(tmp_path, name, trace):
    w = SHAPES[name]
    inputs.make_inputs(w, 3, tmp_path)
    ledger, values, details = workloads.run(w, tmp_path, 0.01, bool(trace))
    assert ledger.failures == []
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    out = run.result(ledger, values, wanted)
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in out["metrics"].items()
    }
    for key, metric in out["metrics"].items():
        assert math.isfinite(metric["value"]), key
        if not trace:
            assert metric["value"] > 0, key
    if trace:
        assert details["missing"] == []
    json.dumps(out)


def test_inputs_repeat_for_a_seed(tmp_path):
    w = SHAPES["full"]
    for seed, sub in ((4, "a"), (4, "b"), (5, "c")):
        inputs.make_inputs(w, seed, tmp_path / sub)
    digests = [inputs.digest(tmp_path / sub) for sub in "abc"]
    assert digests[0] == digests[1] != digests[2]


def test_corrupted_decode_fails_the_checks(tmp_path, monkeypatch):
    w = SHAPES["full"]
    inputs.make_inputs(w, 3, tmp_path)
    honest = dmdk.generate_for_records

    def corrupted(model, records, base, fallback="all"):
        pairs = honest(model, records, base, fallback)
        rid, text = pairs[0]
        tokens = text.split()
        tokens[-1] = next(t for t in model.vocab.tokens[4:] if t != tokens[-1])
        return [(rid, " ".join(tokens))]

    monkeypatch.setattr(workloads.dmdk, "generate_for_records", corrupted)
    ledger, _, _ = workloads.run(w, tmp_path, 0.01, False)
    assert ledger.failed >= 1
    assert any("teacher-forced replay" in f for f in ledger.failures)


def test_report_check_catches_a_changed_word():
    records = [dmdk.CorpusRecord("r00", [], report) for report in inputs.DESK_REPORTS]
    texts = list(inputs.DESK_REPORTS)
    assert workloads.report_problems(records, texts) == []
    texts[2] = texts[2].replace("edema", "effusion")
    assert len(workloads.report_problems(records, texts)) == 1


def test_tracer_reports_a_removed_function_as_missing(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("model", "decode_removed", None)])
    original = dmdk.model.decoder_forward
    with tracing.Tracer() as tracer:
        assert dmdk.model.decoder_forward is not original
    assert dmdk.model.decoder_forward is original
    assert tracer.missing == ["model.decode_removed"]
