"""Per-layer spans for the traced benchmark run.

The program's modules bind their callees with ``from .x import f``, so a
layer function is reachable under several module globals. ``Tracer.installed``
finds every global in the ``selflabel`` package that refers to a layer
function and rebinds it to one timing wrapper, then restores them all. The
program's source is not touched. Spans are kept in memory and written out by
the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _assign_work(args, result) -> dict:
    # computed from the shapes: 2·n·k·d flops for the distance GEMM; bytes
    # are the float64 operands and the two length-n results, not the
    # intermediates a backend may materialize
    n, d = args["x"].shape
    k = args["centroids"].shape[0]
    return {"gflop": 2.0 * n * k * d / 1e9, "gbyte": 8.0 * (n * d + k * d + 2 * n) / 1e9}


# span name -> (home module, attribute, counters from (bound arguments, result))
LAYERS = {
    "pipeline.run_stage1": ("selflabel.pipeline", "run_stage1", None),
    "pipeline.run_round": ("selflabel.pipeline", "run_round", None),
    "pipeline.compute_round_metrics": ("selflabel.pipeline", "compute_round_metrics", None),
    "synthdata.generate_corpus": ("selflabel.synthdata", "generate_corpus", None),
    "synthdata.read_corpus": ("selflabel.synthdata", "read_corpus", None),
    "synthdata.write_corpus": ("selflabel.synthdata", "write_corpus", None),
    "synthdata.read_embeddings": ("selflabel.synthdata", "read_embeddings", None),
    "synthdata.write_embeddings": ("selflabel.synthdata", "write_embeddings", None),
    "encoder.train_contrastive": (
        "selflabel.encoder", "train_contrastive", lambda a, r: {"epochs": a["config"].epochs}
    ),
    "encoder.train_classifier": (
        "selflabel.encoder", "train_classifier", lambda a, r: {"epochs": a["config"].epochs}
    ),
    "encoder.embed": ("selflabel.encoder", "embed", None),
    "clustering.sweep_k": ("selflabel.clustering", "sweep_k", None),
    "clustering.kmeans": (
        "selflabel.clustering", "kmeans", lambda a, r: {"restarts": a["restarts"], "k": a["k"]}
    ),
    "clustering.read_assignment": ("selflabel.clustering", "read_assignment", None),
    "clustering.write_assignment": ("selflabel.clustering", "write_assignment", None),
    "kernels.assign_points": ("selflabel._kernels", "assign_points", _assign_work),
    "kernels.sq_residuals": ("selflabel._kernels", "sq_residuals", None),
    "kernels.hungarian_min_cost": ("selflabel._kernels", "hungarian_min_cost", None),
    "ensemble.fuse_pseudo_labels": ("selflabel.ensemble", "fuse_pseudo_labels", None),
    "ensemble.correspond": (
        "selflabel.ensemble", "correspond", lambda a, r: {"k": a["omega"].shape[0]}
    ),
    "scoring.cosine_score": ("selflabel.scoring", "cosine_score", lambda a, r: {"trials": len(r)}),
    "scoring.as_norm": ("selflabel.scoring", "as_norm", lambda a, r: {"trials": len(r)}),
    "scoring.read_trials": ("selflabel.scoring", "read_trials", None),
    "scoring.read_scores": ("selflabel.scoring", "read_scores", lambda a, r: {"rows": len(r)}),
    "scoring.write_scores": ("selflabel.scoring", "write_scores", None),
    "metrics.nmi": ("selflabel.metrics", "nmi", None),
    "metrics.eer": ("selflabel.metrics", "eer", None),
    "metrics.min_dcf": ("selflabel.metrics", "min_dcf", None),
}

# (metric, unit, better) reported by a traced run, in BENCHMARK.json order
PER_LAYER = (
    ("clustering.kmeans.s", "s", "lower"),
    ("clustering.kmeans.self_s", "s", "lower"),
    ("clustering.kmeans.calls", "count", "lower"),
    ("clustering.kmeans.restarts", "count", "lower"),
    ("clustering.kmeans.kept_ratio", "ratio", "higher"),
    ("clustering.sweep_k.s", "s", "lower"),
    ("clustering.read_assignment.s", "s", "lower"),
    ("clustering.write_assignment.s", "s", "lower"),
    ("kernels.assign_points.s", "s", "lower"),
    ("kernels.assign_points.calls", "count", "lower"),
    ("kernels.assign_points.gflop", "GFLOP", "lower"),
    ("kernels.assign_points.gflop_per_s", "GFLOP/s", "higher"),
    ("kernels.assign_points.gbyte", "GB", "lower"),
    ("kernels.sq_residuals.s", "s", "lower"),
    ("kernels.sq_residuals.calls", "count", "lower"),
    ("kernels.hungarian_min_cost.s", "s", "lower"),
    ("encoder.train_classifier.s", "s", "lower"),
    ("encoder.train_classifier.calls", "count", "lower"),
    ("encoder.train_classifier.epochs", "count", "lower"),
    ("encoder.train_contrastive.s", "s", "lower"),
    ("encoder.train_contrastive.epochs", "count", "lower"),
    ("encoder.embed.s", "s", "lower"),
    ("ensemble.fuse_pseudo_labels.s", "s", "lower"),
    ("ensemble.fuse_pseudo_labels.self_s", "s", "lower"),
    ("ensemble.correspond.s", "s", "lower"),
    ("ensemble.correspond.calls", "count", "lower"),
    ("scoring.as_norm.s", "s", "lower"),
    ("scoring.as_norm.calls", "count", "lower"),
    ("scoring.as_norm.trials", "count", "lower"),
    ("scoring.cosine_score.s", "s", "lower"),
    ("scoring.cosine_score.trials", "count", "lower"),
    ("scoring.read_scores.s", "s", "lower"),
    ("scoring.read_scores.rows", "count", "lower"),
    ("scoring.write_scores.s", "s", "lower"),
    ("scoring.read_trials.s", "s", "lower"),
    ("metrics.nmi.s", "s", "lower"),
    ("metrics.eer.s", "s", "lower"),
    ("metrics.min_dcf.s", "s", "lower"),
    ("synthdata.generate_corpus.s", "s", "lower"),
    ("synthdata.read_corpus.s", "s", "lower"),
    ("synthdata.write_corpus.s", "s", "lower"),
    ("synthdata.read_embeddings.s", "s", "lower"),
    ("synthdata.write_embeddings.s", "s", "lower"),
    ("pipeline.run_stage1.s", "s", "lower"),
    ("pipeline.run_stage1.self_s", "s", "lower"),
    ("pipeline.run_round.s", "s", "lower"),
    ("pipeline.run_round.self_s", "s", "lower"),
    ("pipeline.compute_round_metrics.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)


class Tracer:
    """Collects one span per call into a layer function while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _wrap(self, name: str, fn, counters):
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "thread": threading.get_ident(),
                "child_s": 0.0,
            }
            stack.append(span)
            span["start"] = time.perf_counter() - self._origin
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._origin
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]
                self.spans.append(span)
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counters(bound.arguments, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every ``selflabel`` global that names a layer function."""
        saved = []
        try:
            for name, (home, attr, counters) in LAYERS.items():
                original = getattr(importlib.import_module(home), attr)
                wrapper = self._wrap(name, original, counters)
                modules = [m for key, m in list(sys.modules.items())
                           if key == "selflabel" or key.startswith("selflabel.")]
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, value in reversed(saved):
                setattr(module, key, value)


def layer_totals(spans) -> dict:
    """Per layer: inclusive seconds, self seconds, calls and summed counters."""
    totals: dict = defaultdict(lambda: defaultdict(float))
    for span in spans:
        duration = span["end"] - span["start"]
        t = totals[span["name"]]
        t["s"] += duration
        t["self_s"] += duration - span["child_s"]
        t["calls"] += 1
        for key, value in span.items():
            if key in ("gflop", "gbyte", "epochs", "restarts", "trials", "rows"):
                t[key] += value
    return totals


def root_seconds(spans) -> float:
    """Time covered by spans that have no traced caller on their thread."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def per_layer_metrics(spans, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every ``PER_LAYER`` metric from one traced operation's spans."""
    totals = layer_totals(spans)
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        t = totals.get(layer, {})
        if stat == "kept_ratio":
            value = t["calls"] / t["restarts"] if t.get("restarts") else 0.0
        elif stat == "gflop_per_s":
            value = t["gflop"] / t["s"] if t.get("s") else 0.0
        elif layer == "trace":
            value = {
                "wall_s": traced_wall_s,
                "overhead_s": traced_wall_s - untraced_wall_s,
                "uncovered_s": traced_wall_s - root_seconds(spans),
            }[stat]
        else:
            value = t.get(stat, 0.0)
        out[metric] = int(value) if stat in ("calls", "restarts", "epochs", "trials", "rows") else value
    return out


def self_time_by_module(spans) -> dict:
    """Self seconds summed per module (the span name's first part)."""
    out: dict = defaultdict(float)
    for name, t in layer_totals(spans).items():
        out[name.split(".", 1)[0]] += t["self_s"]
    return dict(out)


def coverage_problems(metrics: dict, must_run, must_not_run) -> list[str]:
    """Layers that read zero where the workload must reach them, or nonzero
    where it must not."""
    problems = [f"{m} reads 0 but this workload must reach it" for m in must_run if not metrics[m]]
    problems += [f"{m} reads {metrics[m]} but this workload must not reach it"
                 for m in must_not_run if metrics[m]]
    return problems
