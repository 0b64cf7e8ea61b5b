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
    assert out.count("  k: 6/6") == 2 and "same K in 2/2 seeds" in out
    assert "seed 3 (parent first)" in out and "seed 4 (change first)" in out
    for seed in (3, 4):
        parent, change = (ab.quality(tmp_path / side / f"seed_{seed}") for side in ab.SIDES)
        assert parent == change
        assert len(parent["rounds"]) == 2 and parent["final"]["eer_norm"] is not None
    # a second run into the same trees would resume them, so it is refused
    with pytest.raises(SystemExit):
        ab.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "tiny",
                 "--seeds", "3", "--out", str(tmp_path)])


def test_summary_counts_the_seeds_whose_k_matched(capsys):
    ab = load_script()

    def side(k):
        return {"k": k, "rounds": [{key: 0.5 for key in ab.ROUND_KEYS}],
                "final": {key: 0.1 for key in ab.FINAL_KEYS}}

    pairs = [{"wall": {"parent": 2.0, "change": 1.0},
              "quality": {"parent": side(200), "change": side(k)}} for k in (200, 250, 200)]
    ab.print_summary(pairs)
    assert "change faster in 3/3 pairs, same K in 2/3 seeds" in capsys.readouterr().out
