"""Tests of the benchmark's own logic; run with
``python -m pytest perfbench/tests``."""

import json
import re
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.bench import END_TO_END
from perfbench.tracing import (
    LAYERS,
    PER_LAYER,
    Tracer,
    coverage_problems,
    layer_totals,
    per_layer_metrics,
)
from perfbench.workloads import TINY, WORKLOADS, check_report, config_mapping, quality, run_op
from selflabel import clustering, ensemble, pipeline

ROOT = Path(__file__).resolve().parents[2]


# --- percentile choice -----------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
     (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert sum(x > stats.nearest_rank(range(n), expected) for x in range(n)) >= stats.MIN_BEYOND


def test_summarize_reports_median_percentile_and_count():
    s = stats.summarize(range(1, 101))
    assert s == {"median": 50.5, "percentile": 90.0, "percentile_value": 90, "n": 100}
    assert stats.summarize([3.0]) == {
        "median": 3.0, "percentile": None, "percentile_value": None, "n": 1}
    with pytest.raises(ValueError):
        stats.summarize([])


# --- metric extraction and the output check --------------------------------


def _report(rounds=1, **overrides):
    rows = [{"round": 0, "k": 4, "nmi_audio": 0.5, "nmi_visual": None, "nmi_joint": None,
             "nmi_fused": None, "eer_audio": 0.2, "eer_visual": None}]
    rows += [{"round": r, "k": 4, "nmi_audio": 0.6, "nmi_visual": 0.55, "nmi_joint": 0.7,
              "nmi_fused": 0.75, "eer_audio": 0.15, "eer_visual": 0.18}
             for r in range(1, rounds + 1)]
    system = {"eer": 0.1, "min_dcf": 0.4, "eer_norm": 0.09, "min_dcf_norm": 0.35,
              "threshold": 0.3}
    report = {"rounds": rows, "final_scoring": {"systems": {
        "audio": dict(system), "visual": dict(system), "fusion": dict(system)}}}
    for path, value in overrides.items():
        target = report
        *keys, last = path.split("/")
        for key in keys:
            target = target[int(key)] if key.isdigit() else target[key]
        target[last] = value
    return json.dumps(report).encode()


def test_quality_reads_last_round_and_normalized_fusion():
    blob = _report(rounds=2, **{"rounds/2/nmi_fused": 0.81,
                                "final_scoring/systems/fusion/eer_norm": 0.07})
    assert quality(blob) == {"nmi_fused": 0.81, "nmi_audio": 0.6,
                             "eer_fusion_norm": 0.07, "min_dcf_fusion_norm": 0.35}


def test_check_report_accepts_a_good_report():
    assert check_report(_report(rounds=2), rounds=2) == []


@pytest.mark.parametrize(
    "blob, needle",
    [
        (_report(rounds=1), "expected 3"),
        (_report(rounds=2, **{"rounds/1/nmi_fused": float("nan")}), "rounds[1].nmi_fused"),
        (_report(rounds=2, **{"rounds/2/eer_audio": 1.5}), "rounds[2].eer_audio"),
        (_report(rounds=2, **{"final_scoring/systems/audio/min_dcf": -0.1}), "audio.min_dcf"),
        (_report(rounds=2, **{"final_scoring/systems/fusion/eer_norm": "x"}), "fusion.eer_norm"),
        (b"{not json", "malformed"),
        (json.dumps({"rounds": []}).encode(), "malformed"),
    ],
)
def test_check_report_flags_each_problem(blob, needle):
    problems = check_report(blob, rounds=2)
    assert problems and any(needle in p for p in problems), problems


def test_output_check_on_a_tiny_run(tmp_path):
    op = run_op(config_mapping(TINY, seed=3), tmp_path / "run")
    assert op.ok, op.problems
    assert 0 < op.stage1_s < op.wall_s
    assert len(op.round_s) == TINY["rounds"]
    assert all(t > 0 for t in op.round_s)
    assert op.stage1_s + sum(op.round_s) < op.wall_s
    assert op.report == (tmp_path / "run" / "report.json").read_bytes()
    # a resume pass over the finished run reproduces the report exactly
    again = run_op(config_mapping(TINY, seed=3), tmp_path / "run")
    assert again.ok and again.report == op.report


def test_a_raising_run_counts_as_failed(tmp_path):
    op = run_op(config_mapping({**TINY, "eval.cohort_size": 10_000}, seed=3), tmp_path / "run")
    assert not op.ok
    assert op.problems[0].startswith("raised ConfigError")


# --- tracing ---------------------------------------------------------------


def _span(id, name, start, end, parent=None, child_s=0.0, **counters):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "child_s": child_s, "thread": 1, **counters}


def test_per_layer_metrics_from_spans():
    spans = [
        _span(1, "kernels.assign_points", 1.0, 1.5, parent=0, gflop=2.0, gbyte=0.5),
        _span(2, "kernels.assign_points", 1.5, 2.0, parent=0, gflop=2.0, gbyte=0.5),
        _span(0, "clustering.kmeans", 1.0, 3.0, child_s=1.0, restarts=4, k=10),
        _span(3, "clustering.kmeans", 3.0, 4.0, restarts=4, k=10),
    ]
    m = per_layer_metrics(spans, traced_wall_s=5.0, untraced_wall_s=4.5)
    assert set(m) == {name for name, _, _ in PER_LAYER}
    assert m["clustering.kmeans.s"] == 3.0
    assert m["clustering.kmeans.self_s"] == 2.0
    assert m["clustering.kmeans.calls"] == 2 and m["clustering.kmeans.restarts"] == 8
    assert m["clustering.kmeans.kept_ratio"] == 0.25
    assert m["kernels.assign_points.gflop"] == 4.0
    assert m["kernels.assign_points.gflop_per_s"] == 4.0
    assert m["kernels.assign_points.gbyte"] == 1.0
    assert m["trace.overhead_s"] == 0.5
    assert m["trace.uncovered_s"] == 2.0
    assert m["encoder.train_classifier.calls"] == 0
    assert coverage_problems(m, ["clustering.kmeans.calls"], []) == []
    assert len(coverage_problems(m, ["encoder.embed.s"], ["clustering.kmeans.calls"])) == 2


def test_tracer_covers_every_layer_and_restores_the_program(tmp_path):
    originals = (pipeline.kmeans, ensemble.kmeans, clustering.assign_points)
    untraced = run_op(config_mapping(TINY, seed=5), tmp_path / "a")
    tracer = Tracer()
    with tracer.installed():
        assert pipeline.kmeans is ensemble.kmeans is not originals[0]
        traced = run_op(config_mapping(TINY, seed=5), tmp_path / "b")
    assert (pipeline.kmeans, ensemble.kmeans, clustering.assign_points) == originals
    assert traced.ok and traced.report == untraced.report
    totals = layer_totals(tracer.spans)
    # the tiny config has a fixed K, so only the sweep is never reached
    assert set(LAYERS) - set(totals) == {"clustering.sweep_k"}
    by_id = {s["id"]: s for s in tracer.spans}
    for span in tracer.spans:
        assert span["child_s"] <= span["end"] - span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    k = {s["k"] for s in tracer.spans if s["name"] == "ensemble.correspond"}
    assert k == {TINY["fixed_k"]}


# --- the declared benchmark ------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    # report_40k is left out: its set-ups do not fit the time of a full
    # set of runs (see the README)
    assert [w["name"] for w in spec["workloads"]] == ["default", "fixed_k"]
    assert set(WORKLOADS) == {"default", "fixed_k", "report_40k"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
