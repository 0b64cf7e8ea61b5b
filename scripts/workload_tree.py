#!/usr/bin/env python3
"""Write the run tree of one perfbench workload, for byte-identity checks.

    python3 scripts/workload_tree.py --workload fixed_k --seed 7 --out /tmp/new
    diff -r /tmp/old /tmp/new

The run takes the settings perfbench gives the workload at that seed
(``perfbench.workloads.config_mapping``); ``tiny`` is the warm-up run's
mapping. Run it in two checkouts and compare the trees with ``diff -r``: a
change that claims to leave every output byte alone leaves them equal. The
program is imported from this checkout's ``src/``, with one BLAS thread as
in perfbench.

Each ``--set KEY=VALUE`` (repeatable) sets one config key over the
workload's mapping, parsed as a line of a config file, so one checkout can
probe a setting without a source change:

    python3 scripts/workload_tree.py --workload fixed_k --seed 7 --out /tmp/e20 \\
        --set classifier.epochs=20

A key that names no setting exits with code 2 before anything is written.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import TINY, WORKLOADS, config_mapping
    from selflabel import pipeline
    from selflabel.configio import build_pipeline_config, parse_kv_text
    from selflabel.errors import ConfigError

    overrides = {name: w.overrides for name, w in WORKLOADS.items()}
    overrides["tiny"] = TINY
    parser = argparse.ArgumentParser(prog="scripts/workload_tree.py")
    parser.add_argument("--workload", required=True, choices=sorted(overrides))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="run directory to write")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="set one config key over the workload's mapping (repeatable)")
    args = parser.parse_args(argv)

    mapping = config_mapping(overrides[args.workload], args.seed)
    try:
        mapping.update(parse_kv_text("\n".join(args.set)))
        config = build_pipeline_config(mapping, args.out)
    except ConfigError as exc:
        parser.error(str(exc))
    pipeline.run_pipeline(config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
