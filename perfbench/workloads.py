"""The benchmark's workloads and what one timed operation of each does.

Every workload reaches the program through the same public entry the CLI
uses: a plain ``key = value`` mapping goes through
``configio.build_pipeline_config`` into ``pipeline.run_pipeline``. The
workload seed is the pipeline seed: it fixes every random stream the
pipeline draws (initialization, batching, augmentation, k-means++ seeding,
the trial list). The corpus is the same for every seed.
"""

from __future__ import annotations

import json
import logging
import math
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from selflabel import pipeline
from selflabel.configio import build_pipeline_config

# Metrics the traced run must read nonzero on every workload that runs a
# pipeline from scratch: the five stages of the method plus their file I/O,
# reads included, since each round consumes the files it wrote.
_FRESH_LAYERS = (
    "encoder.train_contrastive.epochs",
    "encoder.train_classifier.calls",
    "encoder.embed.s",
    "clustering.kmeans.calls",
    "kernels.assign_points.calls",
    "kernels.sq_residuals.calls",
    "ensemble.fuse_pseudo_labels.s",
    "ensemble.correspond.calls",
    "kernels.hungarian_min_cost.s",
    "scoring.cosine_score.trials",
    "scoring.as_norm.calls",
    "scoring.write_scores.s",
    "scoring.read_scores.rows",
    "metrics.nmi.s",
    "metrics.eer.s",
    "metrics.min_dcf.s",
    "synthdata.generate_corpus.s",
    "synthdata.write_corpus.s",
    "clustering.write_assignment.s",
    "clustering.read_assignment.s",
    "scoring.read_trials.s",
    "synthdata.read_corpus.s",
    "synthdata.read_embeddings.s",
    "pipeline.run_stage1.s",
    "pipeline.run_round.s",
    "pipeline.compute_round_metrics.s",
)


# Every workload runs on one corpus, the one the ROADMAP's headline numbers
# use, so that seeds differ in the pipeline's random streams and not in how
# hard the data is. Across corpora the elbow rule picked K from 200 to 300,
# which moved the default run time by about a third; on this corpus it still
# picks 200 or 250 depending on the seed.
CORPUS_SEED = 7

# Balanced 40k-trial evaluation on every workload: at the default 1000 trials
# the EER's standard error (about 0.016) is as large as the differences the
# quality metrics must catch.
EVAL_40K = {"eval.target_trials": 20000, "eval.nontarget_trials": 20000}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    # True: set-up builds a finished run and the timed operation re-runs the
    # pipeline over it (a report pass); False: each operation is a fresh run
    resume: bool
    # set-ups per benchmark run; setup_s is their median
    setups: int
    # module predicted to hold the most self time in the traced run
    dominant: str
    must_run: tuple = ()
    must_not_run: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default",
            overrides=EVAL_40K,
            resume=False,
            setups=5,
            dominant="clustering",
            must_run=_FRESH_LAYERS + ("clustering.sweep_k.s",),
        ),
        Workload(
            name="fixed_k",
            overrides={**EVAL_40K, "fixed_k": 200, "cluster.restarts": 1},
            resume=False,
            setups=5,
            dominant="encoder",
            must_run=_FRESH_LAYERS,
        ),
        Workload(
            name="report_40k",
            overrides={
                **EVAL_40K,
                "fixed_k": 200,
                "cluster.restarts": 1,
                "rounds": 1,
                "eval.cohort_size": 1000,
                "eval.top_n": 100,
            },
            resume=True,
            setups=3,
            dominant="scoring",
            must_run=(
                "scoring.as_norm.calls",
                "scoring.read_scores.rows",
                "scoring.write_scores.s",
                "scoring.read_trials.s",
                "metrics.eer.s",
                "metrics.min_dcf.s",
                "synthdata.read_corpus.s",
                "synthdata.read_embeddings.s",
                "pipeline.run_stage1.s",
                "pipeline.run_round.s",
            ),
            # every round is found complete, so nothing is trained or clustered
            must_not_run=(
                "encoder.train_contrastive.s",
                "encoder.train_classifier.calls",
                "clustering.kmeans.calls",
                "synthdata.generate_corpus.s",
            ),
        ),
    )
}

# A tiny run through every code path, done once per process before anything
# is timed, so lazy imports and BLAS start-up land in set-up.
TINY = {
    "synth.num_identities": 12,
    "synth.groups_per_identity": 2,
    "synth.segments_per_group": 5,
    "fixed_k": 6,
    "rounds": 1,
    "contrastive.epochs": 1,
    "contrastive.batch_size": 16,
    "classifier.epochs": 2,
    "classifier.batch_size": 16,
    "cluster.restarts": 2,
    "eval.cohort_size": 10,
    "eval.top_n": 5,
    "eval.target_trials": 20,
    "eval.nontarget_trials": 20,
}


def config_mapping(overrides: dict, seed: int) -> dict:
    """The whole input of one run: the workload's settings plus its seed."""
    return {"seed": seed, "synth.seed": CORPUS_SEED, **overrides}


# Bytes of the block allocated and freed at the end of the warm-up. glibc's
# malloc serves blocks over 128 KiB from fresh mmaps, with fresh page
# faults, until it frees one of them; it then raises that threshold to the
# freed block's size, if that is under 32 MiB. The first pipeline run in a
# process paid this in contrastive training (about 1.1 s against 0.55 s
# after), so the first timed operation read up to half slower in stage1_s.
_ALLOCATOR_PRIMING_BYTES = 16 * 2**20


def warm_up(directory: Path) -> None:
    """Untimed: the tiny run, then one large block allocated and freed, so
    the timed operations meet the process as a long-running one would."""
    pipeline.run_pipeline(build_pipeline_config(config_mapping(TINY, seed=0), directory))
    block = np.ones(_ALLOCATOR_PRIMING_BYTES // 8)
    del block


class StageClock(logging.Handler):
    """Notes when each round ends, from the pipeline logger's "round N done"
    (or, on resume, "round N already complete") records; no program
    function is wrapped. Round 0's end is when the first pseudo-labels
    become available."""

    _ROUND_END = re.compile(r"round (\d+) (done|already complete)")

    def __init__(self):
        super().__init__(logging.INFO)
        self.round_ends: dict[int, float] = {}

    def emit(self, record: logging.LogRecord) -> None:
        match = self._ROUND_END.match(record.getMessage())
        if match:
            self.round_ends.setdefault(int(match.group(1)), time.perf_counter())

    @contextmanager
    def attached(self):
        logger = logging.getLogger(pipeline.__name__)
        level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.setLevel(level)


@dataclass
class Op:
    """One timed pipeline run and what its output check found."""

    wall_s: float | None = None
    stage1_s: float | None = None
    # time of each supervised round, from the end of the one before
    round_s: list = field(default_factory=list)
    report: bytes | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(mapping: dict, run_dir: Path) -> Op:
    """Run the pipeline once into ``run_dir`` and check its report."""
    config = build_pipeline_config(mapping, run_dir)
    op = Op()
    clock = StageClock()
    with clock.attached():
        start = time.perf_counter()
        try:
            pipeline.run_pipeline(config)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
            return op
        op.wall_s = time.perf_counter() - start
    ends = [clock.round_ends.get(r) for r in range(config.rounds + 1)]
    if None in ends:
        missing = [r for r, end in enumerate(ends) if end is None]
        op.problems.append(f"no record from the pipeline logger that round(s) {missing} ended")
    else:
        op.stage1_s = ends[0] - start
        op.round_s = [b - a for a, b in zip(ends, ends[1:])]
    op.report = (run_dir / "report.json").read_bytes()
    op.problems.extend(check_report(op.report, config.rounds))
    return op


def check_report(blob: bytes, rounds: int) -> list[str]:
    """Problems with one report.json: wrong row count, or a score that is
    missing, non-finite or outside [0, 1]."""
    try:
        report = json.loads(blob)
        rows = report["rounds"]
        systems = report["final_scoring"]["systems"]
        values = [
            (f"rounds[{i}].{key}", value)
            for i, row in enumerate(rows)
            for key, value in sorted(row.items())
            if key.startswith(("nmi_", "eer_")) and value is not None
        ]
        values += [
            (f"{name}.{key}", system[key])
            for name, system in sorted(systems.items())
            for key in ("eer", "min_dcf", "eer_norm", "min_dcf_norm")
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report.json: {exc!r}"]
    problems = []
    if len(rows) != rounds + 1:
        problems.append(f"report.json has {len(rows)} round rows, expected {rounds + 1}")
    for name, value in values:
        if not isinstance(value, (int, float)) or not math.isfinite(value) or not 0 <= value <= 1:
            problems.append(f"{name} = {value!r} is not a finite value in [0, 1]")
    return problems


def quality(blob: bytes) -> dict:
    """The end-to-end quality metrics of one checked report.json."""
    report = json.loads(blob)
    last = report["rounds"][-1]
    fusion = report["final_scoring"]["systems"]["fusion"]
    return {
        "nmi_fused": last["nmi_fused"],
        "nmi_audio": last["nmi_audio"],
        "eer_fusion_norm": fusion["eer_norm"],
        "min_dcf_fusion_norm": fusion["min_dcf_norm"],
    }
