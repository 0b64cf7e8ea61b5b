"""scripts/workload_tree.py: the run tree of a perfbench workload."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "workload_tree.py"


def tree_bytes(root: Path) -> dict:
    """Every file under ``root`` by relative path, the way ``diff -r`` sees it."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_tiny_tree_is_the_same_at_one_and_two_workers(tmp_path):
    trees = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", "tiny", "--seed", "3",
             "--workers", str(workers), "--out", str(out)],
            check=True, capture_output=True,
        )
        trees.append(tree_bytes(out))
    assert {"report.json", "round_001/metrics.json"} <= trees[0].keys()
    assert trees[0] == trees[1]
