"""scripts/workload_tree.py: the run tree of a perfbench workload."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "workload_tree.py"


def test_tiny_tree_holds_every_round(tmp_path):
    out = tmp_path / "run"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "tiny", "--seed", "3", "--out", str(out)],
        check=True, capture_output=True,
    )
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert {"report.json", "round_001/metrics.json"} <= files
