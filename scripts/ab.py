#!/usr/bin/env python3
"""Paired A/B of two checkouts on one perfbench workload.

    python3 scripts/ab.py --parent ../parent --change . --workload fixed_k --seeds 11-14

For each seed, each checkout writes the workload's run tree with its own
``scripts/workload_tree.py``: a fresh process that imports that checkout's
``src/``, with one BLAS thread. The two runs of a seed go back to back,
and the side that goes first alternates from seed to seed. Per seed it prints
each side's wall time and their ratio (change over parent), each side's
chosen K, the per-round ``nmi_audio``, ``nmi_fused`` and ``eer_audio``, the
final fusion ``eer_norm`` and ``min_dcf_norm`` (each as parent/change), and
the run-tree files whose bytes differ. The summary gives the median ratio,
the count of pairs the change ran faster, the count of seeds whose K
matched (a pair with different K compares two workloads) and each side's
range of every quality figure.

A wall time is that of the whole process, so it includes interpreter
start-up and imports (a few tenths of a second) on both sides. The trees are
deleted at exit unless ``--out`` names a new or empty directory to keep them
in (a run into an existing tree would resume it instead of running).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
ROUND_KEYS = ("nmi_audio", "nmi_fused", "eer_audio")
FINAL_KEYS = ("eer_norm", "min_dcf_norm")


def parse_seeds(text: str) -> list[int]:
    """``11-14`` or ``11,13,20`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_side(checkout: Path, workload: str, seed: int, out: Path) -> float:
    """Wall seconds of one run of ``checkout``'s pipeline into ``out``."""
    cmd = [sys.executable, str(checkout / "scripts" / "workload_tree.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    start = time.perf_counter()
    result = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if result.returncode:
        raise SystemExit(f"ab: {' '.join(cmd)} exited {result.returncode}\n{result.stderr}")
    return wall


def quality(run_dir: Path) -> dict:
    """The chosen K, the per-round figures and the final fusion figures of
    one run's report."""
    report = json.loads((run_dir / "report.json").read_text())
    fusion = report["final_scoring"]["systems"].get("fusion", {})
    return {"k": report["k"],
            "rounds": [{key: r.get(key) for key in ROUND_KEYS} for r in report["rounds"]],
            "final": {key: fusion.get(key) for key in FINAL_KEYS}}


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that are missing from one tree or whose
    bytes differ, the way ``diff -rq`` sees them."""
    def files(root):
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    return sorted((in_a ^ in_b) | {rel for rel in in_a & in_b
                                   if (a / rel).read_bytes() != (b / rel).read_bytes()})


def run_pairs(checkouts: dict, workload: str, seeds: list[int], out: Path):
    """Yield one record per seed: each side's wall time and quality, and the
    run-tree files that differ. Even-numbered pairs run the parent first."""
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        wall, trees = {}, {}
        for side in order:
            trees[side] = out / side / f"seed_{seed}"
            wall[side] = run_side(checkouts[side], workload, seed, trees[side])
        yield {"seed": seed, "first": order[0], "wall": wall,
               "quality": {side: quality(trees[side]) for side in SIDES},
               "differ": differing_files(trees["parent"], trees["change"])}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def print_pair(pair: dict) -> None:
    wall = pair["wall"]
    print(f"seed {pair['seed']} ({pair['first']} first): parent {wall['parent']:.2f} s, "
          f"change {wall['change']:.2f} s, ratio {wall['change'] / wall['parent']:.3f}")
    parent, change = (pair["quality"][side] for side in SIDES)
    print(f"  k: {parent['k']}/{change['k']}")
    for r, (a, b) in enumerate(zip(parent["rounds"], change["rounds"])):
        print(f"  round {r}: " + "  ".join(f"{key} {_fmt(a[key])}/{_fmt(b[key])}"
                                           for key in ROUND_KEYS))
    a, b = parent["final"], change["final"]
    print("  fusion:  " + "  ".join(f"{key} {_fmt(a[key])}/{_fmt(b[key])}" for key in FINAL_KEYS))
    print(f"  files differing: {len(pair['differ'])}")
    for rel in pair["differ"]:
        print(f"    {rel}")


def print_summary(pairs: list) -> None:
    ratios = [p["wall"]["change"] / p["wall"]["parent"] for p in pairs]
    faster = sum(r < 1 for r in ratios)
    same_k = sum(p["quality"]["parent"]["k"] == p["quality"]["change"]["k"] for p in pairs)
    print(f"summary: median ratio {statistics.median(ratios):.3f}, "
          f"change faster in {faster}/{len(pairs)} pairs, same K in {same_k}/{len(pairs)} seeds")
    for side in SIDES:
        figures = {}
        for pair in pairs:
            q = pair["quality"][side]
            for r, values in enumerate(q["rounds"]):
                for key in ROUND_KEYS:
                    figures.setdefault(f"round {r} {key}", []).append(values[key])
            for key in FINAL_KEYS:
                figures.setdefault(f"fusion {key}", []).append(q["final"][key])
        cells = [f"{name} {_fmt(min(v))}-{_fmt(max(v))}"
                 for name, v in figures.items() if None not in v]
        print(f"  {side}: " + "; ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/ab.py")
    parser.add_argument("--parent", type=Path, required=True, help="baseline checkout")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--workload", required=True, help="perfbench workload, or tiny")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 11-14")
    parser.add_argument("--out", type=Path, help="keep the run trees in this directory")
    args = parser.parse_args(argv)
    if args.out is not None and args.out.exists() and any(args.out.iterdir()):
        parser.error(f"--out {args.out} is not empty")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        out = args.out if args.out is not None else Path(scratch)
        pairs = []
        for pair in run_pairs(checkouts, args.workload, args.seeds, out):
            print_pair(pair)
            pairs.append(pair)
    print_summary(pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
