"""Measurement loop, result record and printing for ``perfbench/run.py``."""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench.stats import summarize
from perfbench.tracing import (
    PER_LAYER,
    Tracer,
    coverage_problems,
    layer_totals,
    per_layer_metrics,
    self_time_by_module,
)
from perfbench.workloads import WORKLOADS, check_report, config_mapping, quality, run_op, warm_up
from selflabel import _kernels, pipeline
from selflabel.configio import build_pipeline_config

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
RUN_PY = Path(__file__).resolve().with_name("run.py")
SETUP_TIMEOUT_S = 170

# (metric, unit, better) measured with tracing off, in BENCHMARK.json order
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("stage1_s", "s", "lower"),
    ("round_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("nmi_fused", "ratio", "higher"),
    ("nmi_audio", "ratio", "higher"),
    ("eer_fusion_norm", "ratio", "lower"),
    ("min_dcf_fusion_norm", "ratio", "lower"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: perform one set-up in this process, then exit
    parser.add_argument("--setup-dir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload, seed: int, directory: Path) -> Path:
    """Everything before the timed operation: a tiny warm-up run and, for a
    resume workload, the finished run the operation re-reads."""
    directory.mkdir(parents=True)
    warm_up(directory / "tiny")
    run_dir = directory / "run"
    config = build_pipeline_config(config_mapping(workload.overrides, seed), run_dir)
    if workload.resume:
        pipeline.run_pipeline(config)
    return run_dir


def _timed_setups(workload, seed: int, work: Path) -> tuple[list[float], Path]:
    """Run the set-up in fresh processes, so imports count, and time each.
    The first one's directory is kept for the timed operations."""
    times = []
    for i in range(workload.setups):
        directory = work / f"setup{i}"
        command = [sys.executable, str(RUN_PY), "--workload", workload.name,
                   "--seed", str(seed), "--setup-dir", str(directory)]
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if i:
            shutil.rmtree(directory)
    return times, work / "setup0" / "run"


def _set_up_report(workload, mapping, run_dir: Path) -> tuple[bytes | None, list[str]]:
    """A resume workload's set-up report (every pass must reproduce it) and
    what its check found; nothing for a fresh workload."""
    if not workload.resume:
        return None, []
    blob = (run_dir / "report.json").read_bytes()
    rounds = build_pipeline_config(mapping, run_dir).rounds
    return blob, [f"set-up run: {p}" for p in check_report(blob, rounds)]


def _another_op(elapsed: float, last: float, seconds: float) -> bool:
    """Whether to start another operation: until ``seconds`` have passed, but
    none that, as long as the last one, would end after 1.5 x ``seconds``.
    Without the second rule a 40 s run of 38-53 s operations did one or two
    of them as the host's speed drifted, and the run's length with it."""
    return elapsed < seconds and elapsed + last <= 1.5 * seconds


def _run_ops(workload, mapping, work: Path, run_dir: Path, seconds: float, reference,
             tracer: Tracer | None = None):
    """Timed operations for about ``seconds`` (see ``_another_op``), at least
    one. Each report must equal ``reference``, or the first operation's when
    that is None. Returns the operations and the reference used."""
    ops = []
    start = time.perf_counter()
    last_s = 0.0
    while not ops or _another_op(time.perf_counter() - start, last_s, seconds):
        op_start = time.perf_counter()
        target = run_dir if workload.resume else work / f"op{len(ops)}"
        # each operation starts with no garbage left over from the last one
        gc.collect()
        if tracer is None:
            op = run_op(mapping, target)
        else:
            with tracer.installed():
                op = run_op(mapping, target)
        if not workload.resume:
            shutil.rmtree(target, ignore_errors=True)
        if reference is None:
            reference = op.report
        elif op.report is not None and op.report != reference:
            op.problems.append("report.json differs byte for byte from "
                               + ("the set-up run's" if workload.resume else "the first run's"))
        ops.append(op)
        last_s = time.perf_counter() - op_start
    return ops, reference


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """End-to-end metrics with tracing off."""
    mapping = config_mapping(workload.overrides, seed)
    setup_times, run_dir = _timed_setups(workload, seed, work)
    warm_up(work / "tiny")
    reference, problems = _set_up_report(workload, mapping, run_dir)
    ops, _ = _run_ops(workload, mapping, work, run_dir, seconds, reference)
    good = [op for op in ops if op.ok]
    if not good:
        sys.exit("perfbench: every operation failed: " + "; ".join(ops[0].problems))
    samples = {
        "wall_s": [op.wall_s for op in good],
        "stage1_s": [op.stage1_s for op in good],
        # every supervised round of every operation; final scoring is in wall_s
        "round_s": [t for op in good for t in op.round_s],
        "setup_s": setup_times,
    }
    summaries = {name: summarize(values) for name, values in samples.items()}
    values = {name: s["median"] for name, s in summaries.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values.update(quality(good[0].report))
    return {"ops": ops, "problems": problems, "values": values,
            "summaries": summaries, "samples": samples}


def measure_traced(workload, seed: int, work: Path) -> dict:
    """Per-layer metrics: one untraced then one traced operation."""
    mapping = config_mapping(workload.overrides, seed)
    run_dir = set_up(workload, seed, work / "setup0")
    reference, problems = _set_up_report(workload, mapping, run_dir)
    untraced, reference = _run_ops(workload, mapping, work, run_dir, 0.0, reference)
    tracer = Tracer()
    traced, _ = _run_ops(workload, mapping, work, run_dir, 0.0, reference, tracer)
    ops = untraced + traced
    if not all(op.ok for op in ops):
        sys.exit("perfbench: traced-run operation failed: "
                 + "; ".join(p for op in ops for p in op.problems))
    nmi_untraced, nmi_traced = (quality(op.report)["nmi_fused"] for op in ops)
    if nmi_traced != nmi_untraced:
        problems.append(f"traced nmi_fused {nmi_traced!r} differs from untraced {nmi_untraced!r}")
    values = per_layer_metrics(tracer.spans, traced[0].wall_s, untraced[0].wall_s)
    problems += coverage_problems(values, workload.must_run, workload.must_not_run)
    by_module = self_time_by_module(tracer.spans)
    return {"ops": ops, "problems": problems, "values": values, "spans": tracer.spans,
            "self_s_by_module": by_module, "dominant": max(by_module, key=by_module.get)}


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), name, None)
            if getter is not None:
                return int(getter())
    return None


def provenance(seed: int) -> dict:
    """Where and on what a result was measured; recorded, never gated."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": _kernels.active_backend(),
        "git_commit": commit,
        "seed": seed,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def _print_end_to_end(result: dict) -> None:
    for name, unit, _ in END_TO_END:
        line = f"  {name:<22}{result['values'][name]:>14.6g} {unit:<6}"
        s = result["summaries"].get(name)
        if s is not None:
            line += f"  median of n={s['n']}"
            if s["percentile"] is not None:
                line += f", p{s['percentile']:g}={s['percentile_value']:.6g}"
        print(line)


def _print_breakdown(workload, result: dict) -> None:
    values = result["values"]
    wall = values["trace.wall_s"]
    print(f"  traced wall {wall:.3f} s, untraced {wall - values['trace.overhead_s']:.3f} s")
    print(f"  {'layer':<34}{'s':>10}{'self_s':>10}{'calls':>8}")
    totals = layer_totals(result["spans"])
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<34}{t['s']:>10.3f}{t['self_s']:>10.3f}{int(t['calls']):>8}")
    print(f"  {'(uncovered remainder)':<34}{'':>10}{values['trace.uncovered_s']:>10.3f}")
    verdict = ("as predicted" if result["dominant"] == workload.dominant
               else f"predicted {workload.dominant}")
    print(f"  dominant module by self time: {result['dominant']} ({verdict})")


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_dir is not None:
        set_up(workload, args.seed, args.setup_dir)
        return 0

    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE / "work"))
    try:
        if args.trace:
            result = measure_traced(workload, args.seed, work)
        else:
            result = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    failed = sum(not op.ok for op in ops)
    problems = result["problems"] + [p for op in ops for p in op.problems]
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    # the K round 0 clustered at: on `default` the elbow picks it per seed
    k = next((json.loads(op.report)["k"] for op in ops if op.ok), None)
    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["values"][name], "unit": unit} for name, unit, _ in declared}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "k": k,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "op_wall_s": [op.wall_s for op in ops],
        "metrics": metrics,
    }

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: K={k}, "
          f"{len(ops)} operation(s), failed_ratio {failed / len(ops):g}")
    if args.trace:
        _print_breakdown(workload, result)
        record["self_s_by_module"] = result["self_s_by_module"]
        spans_dir = STATE / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        with open(spans_dir / f"{workload.name}-seed{args.seed}.jsonl", "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
    else:
        _print_end_to_end(result)
        record["summaries"] = result["summaries"]
        record["samples"] = result["samples"]
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0
