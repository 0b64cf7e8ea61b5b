"""scripts/ab.py: the paired A/B of two checkouts."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges():
    assert load_script().parse_seeds("11-14,20") == [11, 12, 13, 14, 20]


def test_checkout_against_itself_differs_nowhere(tmp_path, capsys):
    ab = load_script()
    assert ab.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "tiny",
                    "--seeds", "3-4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("files differing: 0") == 2
    assert "seed 3 (parent first)" in out and "seed 4 (change first)" in out
    for seed in (3, 4):
        parent, change = (ab.quality(tmp_path / side / f"seed_{seed}") for side in ab.SIDES)
        assert parent == change
        assert len(parent["rounds"]) == 2 and parent["final"]["eer_norm"] is not None
    # a second run into the same trees would resume them, so it is refused
    with pytest.raises(SystemExit):
        ab.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "tiny",
                 "--seeds", "3", "--out", str(tmp_path)])
