#!/usr/bin/env python3
"""Summarize perfbench result records into one committed BENCH_<n>.json.

    python3 scripts/bench_record.py --out BENCH_8.json \
        --side parent=../parent/.perfbench/results --side change=.perfbench/results

Each ``--side NAME=DIR`` names a ``.perfbench/results/`` directory written by
``perfbench/run.py`` in one checkout. For every workload found there, the
output holds the median of each end-to-end metric over the untraced records
(one per seed) with the per-seed values, and the per-layer metrics of one
traced record. ``src_lines`` comes from the records' provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(results: Path) -> dict:
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    if not records:
        raise SystemExit(f"bench_record: no result records in {results}")
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
            entry["median"] = {m: statistics.median(r["metrics"][m]["value"] for r in untraced)
                               for m in metrics}
            entry["units"] = {m: metrics[m]["unit"] for m in metrics}
            entry["per_seed"] = {m: [r["metrics"][m]["value"] for r in untraced] for m in metrics}
        if traced:
            entry["trace"] = {"seed": traced[0]["seed"], "k": traced[0]["k"],
                              "problems": traced[0]["problems"],
                              "metrics": {m: v["value"] for m, v in traced[0]["metrics"].items()}}
        workloads[name] = entry
    return {"src_lines": provenance["src_lines"], "nproc": provenance["nproc"],
            "blas_threads": provenance["blas_threads"], "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/bench_record.py")
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    out = {}
    for side in args.side:
        name, _, directory = side.partition("=")
        out[name] = summarize(Path(directory))
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
