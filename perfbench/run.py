#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload default --seed 7 --seconds 15 --trace 0

With ``--trace 0`` the end-to-end metrics are measured with nothing wrapped;
with ``--trace 1`` one untraced and one traced operation give the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Full records
(samples, percentiles, provenance, span breakdown) go to
``.perfbench/results/`` and the spans to ``.perfbench/spans/``.

The program is imported from this checkout's ``src/`` only; without it the
script exits with an error and prints no result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread, set before numpy is first imported (the set-up children
# inherit it). On a shared two-core host, a fixed 600x600 matrix product
# timed over 20 s spread by 35% (interquartile range over median) with two
# BLAS threads and by 4% with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_program() -> None:
    """Put this checkout's src/ first on the path and make sure the program
    comes from there, not from an installed copy."""
    package = ROOT / "src" / "selflabel"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {package}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import selflabel

    if Path(selflabel.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: selflabel was imported from {selflabel.__file__}, not {package}")


if __name__ == "__main__":
    _import_program()
    from perfbench.bench import main

    sys.exit(main())
