"""scripts/workload_tree.py: the run tree of a perfbench workload."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "workload_tree.py"


def write_tree(out, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "tiny", "--seed", "3", "--out", str(out),
         *extra],
        capture_output=True, text=True,
    )


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_tiny_tree_holds_every_round(tmp_path):
    out = tmp_path / "run"
    assert write_tree(out).returncode == 0
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert {"report.json", "round_001/metrics.json"} <= files


def test_set_overrides_the_workload_mapping(tmp_path):
    assert write_tree(tmp_path / "plain").returncode == 0
    assert write_tree(tmp_path / "set", "--set", "classifier.epochs=1").returncode == 0
    plain, changed = tree_bytes(tmp_path / "plain"), tree_bytes(tmp_path / "set")
    assert plain.keys() == changed.keys()
    # another fingerprint, and other trained bytes from round 1 on
    assert plain["run_config.json"] != changed["run_config.json"]
    assert plain["round_001/encoder_audio.enc"] != changed["round_001/encoder_audio.enc"]
    assert plain["round_000/encoder_audio.enc"] == changed["round_000/encoder_audio.enc"]


def test_unknown_key_exits_2_before_writing(tmp_path):
    result = write_tree(tmp_path / "run", "--set", "classifier.epoch=1")
    assert result.returncode == 2
    assert "unknown config key 'classifier.epoch'" in result.stderr
    assert not (tmp_path / "run").exists()
