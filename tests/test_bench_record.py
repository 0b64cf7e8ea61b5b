"""scripts/bench_record.py: the committed summary of perfbench result records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_record(seed, seconds, problems):
    return {
        "workload": "fixed_k", "seed": seed, "trace": 1, "k": 200,
        "failed": 0, "attempted": 2, "problems": problems,
        "provenance": {"src_lines": 100, "nproc": 2, "blas_threads": 1, "git_commit": "abc"},
        "metrics": {
            "encoder.train_classifier.s": {"unit": "s", "value": seconds},
            "encoder.train_classifier.calls": {"unit": "count", "value": 3},
        },
    }


def test_traced_layers_are_the_median_over_every_traced_seed(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    for seed, seconds, problems in ((8, 3.0, []), (7, 4.0, ["slow span"])):
        record = fake_record(seed, seconds, problems)
        (results / f"fixed_k-seed{seed}-trace1.json").write_text(json.dumps(record))
    out = tmp_path / "BENCH.json"
    assert load_script().main(["--side", f"change={results}", "--out", str(out)]) == 0
    trace = json.loads(out.read_text())["change"]["workloads"]["fixed_k"]["trace"]
    assert trace == {
        "seeds": [7, 8],
        "k": [200, 200],
        "problems": ["slow span"],
        "median": {"encoder.train_classifier.s": 3.5, "encoder.train_classifier.calls": 3},
    }


def test_tier1_time_goes_to_its_side(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "fixed_k-seed7-trace1.json").write_text(json.dumps(fake_record(7, 3.0, [])))
    out = tmp_path / "BENCH.json"
    script = load_script()
    assert script.main(["--side", f"change={results}", "--tier1", "change=42.5",
                        "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["change"]
    assert summary["tier1_s"] == 42.5 and summary["src_lines"] == 100
    with pytest.raises(SystemExit):  # no --side names it
        script.main(["--side", f"change={results}", "--tier1", "parent=60",
                     "--out", str(out)])


def test_records_of_more_than_one_commit_are_refused(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    for seed, commit in ((7, "abc"), (8, "abc"), (9, "def")):
        record = fake_record(seed, 3.0, [])
        record["provenance"]["git_commit"] = commit
        (results / f"fixed_k-seed{seed}-trace1.json").write_text(json.dumps(record))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match=r"abc \(2 records\), def \(1 records\)"):
        load_script().main(["--side", f"change={results}", "--out", str(out)])
    assert not out.exists()
