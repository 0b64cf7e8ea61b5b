"""Two-stage pipeline: contrastive pretraining, then iterated
train / cluster / fuse rounds, with file-backed artifacts and resume.

Every round writes a self-contained directory (checkpoints, embeddings,
assignments, scores, metrics). Downstream computations always consume the
written files, never in-memory intermediates, so re-running metrics on a
stored round reproduces its report byte for byte, and a resumed run is
indistinguishable from an uninterrupted one. The ``corpus/``, round and
``final/`` directories and the run-level files (``run_config.json``,
``trials.txt``, ``cohort_ids.txt``, ``report.json``) are written under a
staging name and renamed into place only when complete, so a crash during
any of these writes leaves either the whole directory or file or none, and
a re-run leaves no file of an earlier run's ``final/``. Hence a ``corpus/``
or ``round_*`` directory exists only when complete: a resume skips a round
without building anything, and a round damaged by hand is a ``DataError``.

A run is opened once (``open_run``): the run directory is locked against
other processes, the fingerprint is checked, the corpus, trial list and
cohort ids are staged where missing and read back, and every stage then
takes the opened ``Run``. The calling process writes every file of a run.

The reader of each per-sample file checks it against the corpus on every
path, resume included: ``read_assignment`` takes the corpus ids, which the
file must list in order, and ``read_embeddings`` the corpus's row count.
No caller compares ids or row counts itself.

Stage 1 and the supervised rounds are one routine, ``_run_round``; each
passes only what it trains and how it makes K and the labels.

Ground-truth identity labels are read only by evaluation steps (trial
generation, NMI); the training path sees feature matrices and pseudo-labels
only.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ensemble, scoring, synthdata
from ._parallel import ordered_map
from ._textio import make_dir, read_columns, write_json, write_rows
from .clustering import (
    ClusterSettings,
    elbow_grid,
    kmeans,
    read_assignment,
    select_k_elbow,
    sweep_k,
    write_assignment,
    write_wss_curve,
)
from .encoder import (
    ClassifierConfig,
    ContrastiveConfig,
    embed,
    train_classifier,
    train_contrastive,
    write_checkpoint,
    write_train_log,
)
from .errors import ConfigError, DataError, RunLockedError
from .metrics import DcfParams, eer, nmi, verification_metrics
from .scoring import Cohort, Trials, as_norm, cosine_score, fuse_scores
from .synthdata import MultiModalCorpus, SynthConfig

logger = logging.getLogger(__name__)

_MODALITIES = ("audio", "visual")

# Version of the program's results, part of the fingerprint, so a resume
# never mixes rounds of two programs: raise it in any change after which
# ``scripts/workload_tree.py`` at ``tiny``, ``fixed_k`` or ``default`` writes
# a tree that ``diff -rq`` finds changed. A new file format changes that
# tree, and so does a change to a constant such as ``clustering.MAX_ITERS``
# that alters results, so this one version covers both.
RESULTS_VERSION = 3


@dataclass(frozen=True)
class EvalSettings:
    cohort_size: int = 50
    top_n: int = 50
    target_trials: int = 500
    nontarget_trials: int = 500

    def __post_init__(self):
        if self.cohort_size < 2:
            raise ConfigError("cohort_size must be >= 2")
        if not 1 <= self.top_n <= self.cohort_size:
            raise ConfigError("top_n must lie in [1, cohort_size]")
        if self.target_trials < 1 or self.nontarget_trials < 1:
            raise ConfigError("trial counts must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: Path
    seed: int = 1234
    rounds: int = 3
    corpus_path: Path | None = None
    synth: SynthConfig = field(default_factory=SynthConfig)
    k_grid: tuple[int, ...] = (100, 150, 200, 250, 300, 400)
    fixed_k: int | None = None
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    cluster: ClusterSettings = field(default_factory=ClusterSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    dcf: DcfParams = field(default_factory=DcfParams)

    def __post_init__(self):
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.corpus_path is not None:
            object.__setattr__(self, "corpus_path", Path(self.corpus_path))
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.fixed_k is None:
            object.__setattr__(self, "k_grid", elbow_grid(self.k_grid))
        elif self.fixed_k < 1:
            raise ConfigError("fixed_k must be >= 1")

    def fingerprint(self) -> str:
        """Hash of the settings that shape the run's files and of
        ``RESULTS_VERSION``, so a run directory resumes only under the
        settings and the program version that made it. ``rounds`` is out, so
        raising it extends a finished run."""
        payload = asdict(self)
        payload.pop("output_dir")
        payload.pop("rounds")
        payload["results_version"] = RESULTS_VERSION
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RoundArtifacts:
    """Handle on one completed round directory."""

    index: int
    path: Path
    k: int
    metrics: dict


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _read_json(path: Path, what: str, key: str, kind):
    """The JSON object in ``path`` and its ``key`` as ``kind``. A file that
    cannot be read, parsed or converted is a DataError naming it."""
    try:
        obj = json.loads(path.read_text())
        return obj, kind(obj[key])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def _load_round(path: Path, index: int) -> RoundArtifacts:
    metrics, k = _read_json(path / "metrics.json", "round metrics", "k", int)
    return RoundArtifacts(index=index, path=path, k=k, metrics=metrics)


# ---------------------------------------------------------------------------
# opening a run: fingerprint, corpus, trials, cohort
# ---------------------------------------------------------------------------


# (pid, run directory) -> the read-only fd of the directory whose flock
# holds it; a forked child finds none of its own
_locks: dict[tuple[int, Path], int] = {}


def _lock(out: Path) -> None:
    """Lock the run directory for this process, unless it holds the lock."""
    key = (os.getpid(), out.resolve())
    if key in _locks:
        return
    fd = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise RunLockedError(f"run directory {out} is in use by another process") from None
    _locks[key] = fd


def _unlock(out: Path) -> None:
    fd = _locks.pop((os.getpid(), out.resolve()), None)
    if fd is not None:
        os.close(fd)


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


@contextmanager
def _staged(path: Path):
    """Yield a staging path beside ``path``, where nothing exists yet.

    The block writes a file or a directory there. When it completes, the
    staging path is renamed over ``path``; when it raises, the staging path
    is removed, so a failed write leaves nothing at ``path``. After a hard
    crash, the next ``open_run`` removes it.
    """
    tmp = path.with_name(f".tmp_{path.name}")
    _remove(tmp)
    try:
        yield tmp
        if path.is_dir():
            shutil.rmtree(path)
        tmp.replace(path)
    finally:
        _remove(tmp)


def _make_eval_material(config: PipelineConfig, corpus: MultiModalCorpus):
    """Deterministically pick a cohort slice and build balanced trials.

    Evaluation-only: this is the one place outside metrics where hidden
    identity labels are read. Trial samples are disjoint from the cohort
    slice. A target trial is two distinct samples of a uniform identity
    with at least two pool samples; a non-target trial is one uniform
    sample of each of two distinct such identities. Each draw is one array
    call over all trials.
    """
    ev = config.eval
    n = len(corpus)
    if ev.cohort_size >= n:
        raise ConfigError("cohort_size must be smaller than the corpus")
    rng = np.random.default_rng([config.seed, 7001])
    perm = rng.permutation(n)
    cohort_idx = np.sort(perm[: ev.cohort_size])
    pool = np.sort(perm[ev.cohort_size :])

    # the pool grouped by identity: identity e's members are
    # pool[start[e] : start[e] + count[e]]
    pool = pool[np.argsort(corpus.identity_gt[pool], kind="stable")]
    _, start, count = np.unique(corpus.identity_gt[pool], return_index=True, return_counts=True)
    eligible = count >= 2
    start, count = start[eligible], count[eligible]
    if start.size < 2:
        raise ConfigError("corpus too small to build verification trials")

    def distinct_pair(bound):
        # two distinct uniform draws below each entry of ``bound``
        i = rng.integers(bound)
        j = rng.integers(bound - 1)
        return i, j + (j >= i)

    ident = rng.integers(start.size, size=ev.target_trials)
    a, b = distinct_pair(count[ident])
    target = (pool[start[ident] + a], pool[start[ident] + b])
    ia, ib = distinct_pair(np.full(ev.nontarget_trials, start.size))
    nontarget = (
        pool[start[ia] + rng.integers(count[ia])],
        pool[start[ib] + rng.integers(count[ib])],
    )
    trials = Trials(
        ids=corpus.sample_ids,
        enroll=np.concatenate([target[0], nontarget[0]]),
        test=np.concatenate([target[1], nontarget[1]]),
        is_target=np.repeat([True, False], [ev.target_trials, ev.nontarget_trials]),
    )
    cohort_ids = [corpus.sample_ids[int(i)] for i in cohort_idx]
    return trials, cohort_ids


class Run(NamedTuple):
    """An opened run directory: its config, and its corpus, trial list (as
    rows of the corpus) and cohort ids, each read back from the run's files."""

    config: PipelineConfig
    corpus: MultiModalCorpus
    trials: Trials
    cohort_ids: list[str]


def open_run(config: PipelineConfig) -> Run:
    """Open the run in ``config.output_dir``: lock it, pin the config
    fingerprint, stage the corpus, ``trials.txt`` and ``cohort_ids.txt``
    where missing, and read each back once.

    The lock is an exclusive ``flock`` on the directory itself, taken before
    any staging leftover is removed; a directory another process holds is a
    RunLockedError (exit 5). This process keeps the lock until
    ``run_pipeline`` returns or the process ends, and opening the run again
    meanwhile reuses it. A directory made under another config or program
    version is a ConfigError, raised before anything else is read or
    written, since resuming it would mix two experiments."""
    out = make_dir(config.output_dir)
    _lock(out)
    for stale in out.glob(".tmp_*"):
        _remove(stale)
    marker = out / "run_config.json"
    fingerprint = config.fingerprint()
    if marker.exists():
        _, stored = _read_json(marker, "run config", "fingerprint", str)
        if stored != fingerprint:
            raise ConfigError(
                f"output directory {out} was produced by a different configuration or "
                "program version; use a fresh directory or delete the old run"
            )
    else:
        with _staged(marker) as tmp:
            write_json(tmp, {"fingerprint": fingerprint})

    corpus_dir = out / "corpus"
    if not corpus_dir.is_dir():
        if config.corpus_path is not None:
            corpus = synthdata.read_corpus(config.corpus_path)
        else:
            logger.info("generating synthetic corpus (%d samples)", config.synth.num_samples)
            corpus = synthdata.generate_corpus(config.synth)
        with _staged(corpus_dir) as tmp:
            synthdata.write_corpus(corpus, tmp)
    # always work on the file-backed copies
    corpus = synthdata.read_corpus(corpus_dir)

    trials_path = out / "trials.txt"
    cohort_path = out / "cohort_ids.txt"
    if not (trials_path.is_file() and cohort_path.is_file()):
        trials, cohort_ids = _make_eval_material(config, corpus)
        with _staged(trials_path) as tmp:
            scoring.write_trials(tmp, trials)
        with _staged(cohort_path) as tmp:
            write_rows(tmp, "%s", (cohort_ids,))
    trials = scoring.read_trials(trials_path, corpus.sample_ids)
    cohort_ids, = read_columns(cohort_path, "cohort", (str,))
    return Run(config, corpus, trials, cohort_ids)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def compute_round_metrics(round_path, corpus: MultiModalCorpus, trials, k: int, round_index: int) -> dict:
    """Recompute a round's metrics purely from its stored artifacts."""
    round_path = Path(round_path)
    truth = corpus.identity_gt
    report: dict = {"round": round_index, "k": k}
    for name in ("audio", "visual", "joint", "fused"):
        path = round_path / f"assign_{name}.tsv"
        report[f"nmi_{name}"] = (nmi(read_assignment(path, corpus.sample_ids, k=k).labels, truth)
                                 if path.is_file() else None)
    for modality in _MODALITIES:
        path = round_path / f"scores_{modality}.tsv"
        report[f"eer_{modality}"] = (eer(scoring.read_scores(path, trials))[0]
                                     if path.is_file() else None)
    return report


def _run_round(run: Run, index: int, train, make_labels) -> RoundArtifacts:
    """Build round ``index`` unless its directory exists, and load it.

    ``train(corpus)`` returns ``{modality: (params, head, log)}``;
    ``make_labels(tmp, corpus, z)`` writes the round's assignments from the
    read-back embeddings ``z`` and returns K. Everything else a round holds
    (checkpoints, logs, embeddings, scores, metrics) is written here, into
    the opened run's directory, from the corpus and trial list ``open_run``
    read. A round whose directory exists returns its stored K and metrics
    and builds nothing.
    """
    corpus, trials = run.corpus, run.trials
    path = run.config.output_dir / f"round_{index:03d}"
    if path.is_dir():
        logger.info("round %d already complete, skipping", index)
        return _load_round(path, index)
    trained = train(corpus)
    with _staged(path) as tmp:
        tmp.mkdir()
        z = {}
        for modality, (params, head, log) in trained.items():
            write_checkpoint(tmp / f"encoder_{modality}.enc", params, head)
            write_train_log(tmp / f"train_log_{modality}.tsv", log)
            emb = embed(params, corpus.features(modality))
            emb_path = tmp / f"{modality}.emb"
            synthdata.write_embeddings(emb_path, emb)
            # read back: all downstream math runs on the stored float32 values
            z[modality] = synthdata.read_embeddings(emb_path, len(corpus))
        k = make_labels(tmp, corpus, z)
        for modality in z:
            scoring.write_scores(tmp / f"scores_{modality}.tsv", cosine_score(trials, z[modality]))
        report = compute_round_metrics(tmp, corpus, trials, k, index)
        write_json(tmp / "metrics.json", report)
    art = _load_round(path, index)
    logger.info("round %d done: %s", index, _metrics_brief(art.metrics))
    return art


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def run_stage1(run: Run) -> RoundArtifacts:
    """Contrastive pretraining plus the initial clustering round (round 0)."""
    config = run.config

    def train(corpus):
        logger.info("round 0: contrastive pretraining (%d epochs)", config.contrastive.epochs)
        params, log = train_contrastive(
            corpus.features("audio"),
            config.contrastive,
            _derive_seed(config.seed, 0, 1),
        )
        return {"audio": (params, None, log)}

    def make_labels(tmp, corpus, z):
        if config.fixed_k is not None:
            k = config.fixed_k
        else:
            logger.info("round 0: sweeping K over %s", list(config.k_grid))
            curve = sweep_k(z["audio"], config.k_grid, seed=[config.seed, 0, 2])
            write_wss_curve(tmp / "wss_curve.tsv", curve)
            k, _ = select_k_elbow(curve)
        logger.info("round 0: clustering audio embeddings at K=%d", k)
        _, assign_audio, _ = kmeans(
            z["audio"], k, restarts=config.cluster.restarts, seed=[config.seed, 0, 3]
        )
        write_assignment(tmp / "assign_audio.tsv", corpus.sample_ids, assign_audio)
        return k

    return _run_round(run, 0, train, make_labels)


def run_round(run: Run, round_index: int, previous: RoundArtifacts) -> RoundArtifacts:
    """One supervised round: train both encoders on the previous labels,
    re-cluster each modality and the joint space, fuse by voting."""
    if round_index < 1:
        raise ConfigError("round_index must be >= 1")
    config = run.config
    label_name = "audio" if previous.index == 0 else "fused"
    k = previous.k

    def train(corpus):
        labels = read_assignment(previous.path / f"assign_{label_name}.tsv", corpus.sample_ids, k=k)
        logger.info(
            "round %d: training the audio and visual classifiers on %s labels (K=%d)",
            round_index, label_name, k,
        )
        # separate seed streams, so the two can train in separate processes
        calls = [
            (
                corpus.features(modality),
                labels.labels,
                k,
                config.classifier,
                _derive_seed(config.seed, round_index, stream),
            )
            for stream, modality in enumerate(_MODALITIES, start=4)
        ]
        trained = ordered_map(train_classifier, calls, rows=len(corpus))
        return dict(zip(_MODALITIES, trained))

    def make_labels(tmp, corpus, z):
        fused_set = ensemble.fuse_pseudo_labels(
            z["audio"],
            z["visual"],
            k,
            restarts=config.cluster.restarts,
            seed=[config.seed, round_index, 6],
        )
        ensemble.write_fusion(tmp, corpus.sample_ids, fused_set)
        return k

    return _run_round(run, round_index, train, make_labels)


def _metrics_brief(m: dict) -> str:
    keys = ("nmi_audio", "nmi_visual", "nmi_fused", "eer_audio", "eer_visual")
    return " ".join(f"{key}={m[key]:.4f}" for key in keys if m.get(key) is not None)


# ---------------------------------------------------------------------------
# final scoring and the aggregate report
# ---------------------------------------------------------------------------


def _final_scoring(run: Run, last: RoundArtifacts) -> dict:
    """Per system, EER, minDCF and its threshold on raw scores, plus EER and
    minDCF after AS-Norm. The modalities' raw scores are the last round's
    files; every other score set is written to ``final/`` and read back, and
    the fusion fuses the read-back sets."""
    config, corpus, trials, cohort_ids = run
    modalities = ["audio"] if last.index == 0 else list(_MODALITIES)
    weights = [1.0 / len(modalities)] * len(modalities)
    cohort_rows = scoring.rows_of(cohort_ids, corpus.sample_ids, "cohort")
    stored, out = {}, {}  # stored: file stem -> score set read from that file
    with _staged(config.output_dir / "final") as final_dir:
        final_dir.mkdir()
        for system in modalities + ["fusion"] * (len(modalities) > 1):
            if system == "fusion":
                to_write = {
                    f"fusion{suffix}": fuse_scores([stored[m + suffix] for m in modalities], weights)
                    for suffix in ("", "_norm")
                }
            else:
                z = synthdata.read_embeddings(last.path / f"{system}.emb", len(corpus))
                stored[system] = scoring.read_scores(last.path / f"scores_{system}.tsv", trials)
                cohort = Cohort(z[cohort_rows])
                to_write = {f"{system}_norm": as_norm(stored[system], z, cohort, config.eval.top_n)}
            for stem, score_set in to_write.items():
                scoring.write_scores(final_dir / f"scores_{stem}.tsv", score_set)
                stored[stem] = scoring.read_scores(final_dir / f"scores_{stem}.tsv", trials)
            out[system] = verification_metrics(stored[system], config.dcf)
            after = verification_metrics(stored[f"{system}_norm"], config.dcf)
            out[system].update(eer_norm=after["eer"], min_dcf_norm=after["min_dcf"])
    return out


def run_pipeline(config: PipelineConfig) -> dict:
    """Run (or resume) the full pipeline and return the final report dict.
    The run directory stays locked until it returns, so the removal of
    later rounds runs under the lock too."""
    try:
        run = open_run(config)
        rounds = [run_stage1(run)]
        for r in range(1, config.rounds + 1):
            rounds.append(run_round(run, r, rounds[-1]))

        report = {
            "fingerprint": config.fingerprint(),
            "k": rounds[0].k,
            "num_rounds": config.rounds,
            "rounds": [r.metrics for r in rounds],
            "final_scoring": {
                "cohort_size": len(run.cohort_ids),
                "top_n": config.eval.top_n,
                "systems": _final_scoring(run, rounds[-1]),
            },
        }
        kept = {r.path.name for r in rounds}  # a lower ``rounds`` leaves no later round
        for path in config.output_dir.glob("round_*"):
            if path.name[6:].isdigit() and path.name not in kept:
                _remove(path)
        report_path = config.output_dir / "report.json"
        with _staged(report_path) as tmp:
            write_json(tmp, report)
        logger.info("pipeline finished; report at %s", report_path)
        return report
    finally:
        _unlock(config.output_dir)
