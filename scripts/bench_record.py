#!/usr/bin/env python3
"""Summarize perfbench result records into one committed BENCH_<n>.json.

    python3 scripts/bench_record.py --out BENCH_8.json \
        --side parent=../parent/.perfbench/results --side change=.perfbench/results \
        --tier1 parent=61.4 --tier1 change=42.4

Each ``--side NAME=DIR`` names a ``.perfbench/results/`` directory written by
``perfbench/run.py`` in one checkout. For every workload found there, the
output holds the median of each end-to-end metric over the untraced records
(one per seed) with the per-seed values, and the median of each per-layer
metric over the traced records with their seeds: a single traced run of
unchanged code can read up to 30% off in one layer. ``src_lines`` comes from
the records' provenance. A directory whose records name more than one
``provenance.git_commit`` is refused, so records of an earlier checkout
never mix into a side's medians. Each ``--tier1 NAME=SECONDS`` records the
wall time of that side's tier-1 test suite as ``tier1_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import Counter
from pathlib import Path


def _medians(records: list) -> dict:
    return {m: statistics.median(r["metrics"][m]["value"] for r in records)
            for m in records[0]["metrics"]}


def summarize(results: Path) -> dict:
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    if not records:
        raise SystemExit(f"bench_record: no result records in {results}")
    commits = Counter(r["provenance"].get("git_commit") for r in records)
    if len(commits) > 1:
        found = ", ".join(f"{commit} ({count} records)" for commit, count in commits.items())
        raise SystemExit(f"bench_record: records in {results} come from more than one "
                         f"commit: {found}")
    provenance = records[0]["provenance"]
    workloads = {}
    for name in sorted({r["workload"] for r in records}):
        untraced = sorted((r for r in records if r["workload"] == name and not r["trace"]),
                          key=lambda r: r["seed"])
        traced = sorted((r for r in records if r["workload"] == name and r["trace"]),
                        key=lambda r: r["seed"])
        entry = {"seeds": [r["seed"] for r in untraced],
                 "k": [r["k"] for r in untraced],
                 "failed": sum(r["failed"] for r in untraced),
                 "attempted": sum(r["attempted"] for r in untraced)}
        if untraced:
            metrics = untraced[0]["metrics"]
            entry["median"] = _medians(untraced)
            entry["units"] = {m: metrics[m]["unit"] for m in metrics}
            entry["per_seed"] = {m: [r["metrics"][m]["value"] for r in untraced] for m in metrics}
        if traced:
            entry["trace"] = {"seeds": [r["seed"] for r in traced], "k": [r["k"] for r in traced],
                              "problems": [p for r in traced for p in r["problems"]],
                              "median": _medians(traced)}
        workloads[name] = entry
    return {"src_lines": provenance["src_lines"], "nproc": provenance["nproc"],
            "blas_threads": provenance["blas_threads"], "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/bench_record.py")
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    parser.add_argument("--tier1", action="append", default=[], metavar="NAME=SECONDS")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    out = {}
    for side in args.side:
        name, _, directory = side.partition("=")
        out[name] = summarize(Path(directory))
    for side in args.tier1:
        name, _, seconds = side.partition("=")
        if name not in out:
            parser.error(f"--tier1 names {name!r}, which no --side names")
        out[name]["tier1_s"] = float(seconds)
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
