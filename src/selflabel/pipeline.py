"""Two-stage pipeline: contrastive pretraining, then iterated
train / cluster / fuse rounds, with file-backed artifacts and resume.

Every round writes a self-contained directory (checkpoints, embeddings,
assignments, scores, metrics). Downstream computations always consume the
written files, never in-memory intermediates, so re-running metrics on a
stored round reproduces its report byte for byte, and a resumed run is
indistinguishable from an uninterrupted one. The ``corpus/`` and round
directories and the run-level files (``run_config.json``, ``trials.txt``,
``cohort_ids.txt``, ``report.json``) are written under a staging name and
renamed into place only when complete, so a crash during any of these
writes leaves either the whole directory or file or none.

Ground-truth identity labels are read only by evaluation steps (trial
generation, NMI); the training path sees feature matrices and pseudo-labels
only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ensemble, scoring, synthdata
from ._parallel import ordered_map
from ._textio import read_rows
from .clustering import (
    Assignment,
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
    CLASSIFIER_AUGMENTATION_PROB,
    TrainConfig,
    embed,
    train_classifier,
    train_contrastive,
    write_checkpoint,
    write_train_log,
)
from .errors import ConfigError, DataError
from .metrics import DcfParams, eer, min_dcf, nmi
from .scoring import Cohort, ScoreSet, Trial, as_norm, cosine_score, fuse_scores
from .synthdata import MultiModalCorpus, SynthConfig

logger = logging.getLogger(__name__)

_MODALITIES = ("audio", "visual")

# Version of the run directory's file formats, part of the fingerprint;
# raise it whenever a file that a resume reads or keeps changes format.
ARTIFACT_FORMAT = 2


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
    contrastive: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            optimizer="adam", learning_rate=0.003, epochs=8, batch_size=128
        )
    )
    classifier: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            optimizer="sgd", learning_rate=0.5, epochs=40, batch_size=128
        )
    )
    # the supervised stage perturbs inputs harder than the contrastive one
    # (range extended at the noisy end), applied per sample at this rate
    classifier_augmentation: tuple[float, float] = (1.0, 2.4)
    classifier_augmentation_prob: float = CLASSIFIER_AUGMENTATION_PROB
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
        low, high = self.classifier_augmentation
        if low < 0 or high < low:
            raise ConfigError("classifier_augmentation must satisfy 0 <= low <= high")
        if not 0 <= self.classifier_augmentation_prob <= 1:
            raise ConfigError("classifier_augmentation_prob must lie in [0, 1]")
        object.__setattr__(self, "classifier_augmentation", (float(low), float(high)))

    def fingerprint(self) -> str:
        """Hash of the settings that shape the run's files. ``rounds`` is out,
        so raising it extends a finished run, and so is ``cluster.workers``:
        every result is bitwise the same for every worker count."""
        payload = asdict(self)
        payload.pop("output_dir")
        payload.pop("rounds")
        payload["cluster"].pop("workers")
        payload["artifact_format"] = ARTIFACT_FORMAT
        payload["corpus_path"] = (
            str(self.corpus_path) if self.corpus_path is not None else None
        )
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RoundArtifacts:
    """Handle on one completed round directory."""

    index: int
    path: Path
    k: int
    metrics: dict

    def assignment(self, name: str) -> Assignment:
        _, assign = read_assignment(self.path / f"assign_{name}.tsv", k=self.k)
        return assign

    def embeddings(self, modality: str) -> np.ndarray:
        return synthdata.read_embeddings(self.path / f"{modality}.emb")


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _round_dir(config: PipelineConfig, index: int) -> Path:
    return config.output_dir / f"round_{index:03d}"


def _required_files(index: int) -> list[str]:
    if index == 0:
        return [
            "encoder_audio.enc",
            "audio.emb",
            "assign_audio.tsv",
            "scores_audio.tsv",
            "metrics.json",
        ]
    return [
        "encoder_audio.enc",
        "encoder_visual.enc",
        "audio.emb",
        "visual.emb",
        "assign_audio.tsv",
        "assign_visual.tsv",
        "assign_joint.tsv",
        "assign_fused.tsv",
        "scores_audio.tsv",
        "scores_visual.tsv",
        "fusion_report.json",
        "metrics.json",
    ]


def _round_complete(config: PipelineConfig, index: int) -> bool:
    path = _round_dir(config, index)
    return path.is_dir() and all((path / f).is_file() for f in _required_files(index))


def _load_round(config: PipelineConfig, index: int) -> RoundArtifacts:
    path = _round_dir(config, index)
    metrics = json.loads((path / "metrics.json").read_text())
    return RoundArtifacts(index=index, path=path, k=int(metrics["k"]), metrics=metrics)


# ---------------------------------------------------------------------------
# run preparation: corpus, trials, cohort
# ---------------------------------------------------------------------------


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
    crash, the next ``_prepare_run`` removes it.
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


def _prepare_run(config: PipelineConfig) -> None:
    """Create the output directory and pin the config fingerprint.

    A second run over the same directory must use an identical config;
    anything else would silently mix artifacts from different experiments.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob(".tmp_*"):
        _remove(stale)
    marker = out / "run_config.json"
    payload = {"fingerprint": config.fingerprint()}
    if marker.exists():
        stored = json.loads(marker.read_text())
        if stored.get("fingerprint") != payload["fingerprint"]:
            raise ConfigError(
                f"output directory {out} was produced by a different configuration; "
                "use a fresh directory or delete the old run"
            )
    else:
        with _staged(marker) as tmp:
            tmp.write_text(json.dumps(payload, indent=2) + "\n")


def _ensure_corpus(config: PipelineConfig) -> MultiModalCorpus:
    stored = config.output_dir / "corpus"
    if (stored / "meta.tsv").is_file():
        return synthdata.read_corpus(stored)
    if config.corpus_path is not None:
        corpus = synthdata.read_corpus(config.corpus_path)
    else:
        logger.info("generating synthetic corpus (%d samples)", config.synth.num_samples)
        corpus = synthdata.generate_corpus(config.synth)
    with _staged(stored) as tmp:
        synthdata.write_corpus(corpus, tmp)
    # always hand back the file-backed copy
    return synthdata.read_corpus(stored)


def _make_eval_material(config: PipelineConfig, corpus: MultiModalCorpus):
    """Deterministically pick a cohort slice and build balanced trials.

    Evaluation-only: this is the one place outside metrics where hidden
    identity labels are read. Trial samples are disjoint from the cohort
    slice.
    """
    ev = config.eval
    n = len(corpus)
    if ev.cohort_size >= n:
        raise ConfigError("cohort_size must be smaller than the corpus")
    rng = np.random.default_rng([config.seed, 7001])
    perm = rng.permutation(n)
    cohort_idx = np.sort(perm[: ev.cohort_size])
    pool = np.sort(perm[ev.cohort_size :])

    idents = corpus.identity_gt[pool]
    by_identity: dict[int, np.ndarray] = {}
    for ident in np.unique(idents):
        members = pool[idents == ident]
        if members.size >= 2:
            by_identity[int(ident)] = members
    eligible = sorted(by_identity)
    if len(eligible) < 2:
        raise ConfigError("corpus too small to build verification trials")

    trials: list[Trial] = []
    for _ in range(ev.target_trials):
        ident = eligible[int(rng.integers(len(eligible)))]
        a, b = rng.choice(by_identity[ident], size=2, replace=False)
        trials.append(Trial(corpus.sample_ids[int(a)], corpus.sample_ids[int(b)], True))
    for _ in range(ev.nontarget_trials):
        ia, ib = rng.choice(len(eligible), size=2, replace=False)
        a = rng.choice(by_identity[eligible[int(ia)]])
        b = rng.choice(by_identity[eligible[int(ib)]])
        trials.append(Trial(corpus.sample_ids[int(a)], corpus.sample_ids[int(b)], False))
    cohort_ids = [corpus.sample_ids[int(i)] for i in cohort_idx]
    return trials, cohort_ids


def _ensure_eval_material(config: PipelineConfig, corpus: MultiModalCorpus):
    trials_path = config.output_dir / "trials.txt"
    cohort_path = config.output_dir / "cohort_ids.txt"
    if trials_path.is_file() and cohort_path.is_file():
        trials = scoring.read_trials(trials_path)
        cohort_ids = [cid for cid, in read_rows(cohort_path, "cohort", (str,))]
        return trials, cohort_ids
    trials, cohort_ids = _make_eval_material(config, corpus)
    with _staged(trials_path) as tmp:
        scoring.write_trials(tmp, trials)
    with _staged(cohort_path) as tmp:
        tmp.write_text("\n".join(cohort_ids) + "\n")
    return trials, cohort_ids


# ---------------------------------------------------------------------------
# per-round helpers
# ---------------------------------------------------------------------------


def _embeddings_by_id(corpus: MultiModalCorpus, matrix: np.ndarray) -> dict[str, np.ndarray]:
    return {sid: matrix[i] for i, sid in enumerate(corpus.sample_ids)}


def _write_round_embeddings(tmp: Path, modality: str, params, corpus) -> np.ndarray:
    z = embed(params, corpus.features(modality).astype(np.float64))
    synthdata.write_embeddings(tmp / f"{modality}.emb", z)
    # read back: all downstream math runs on the stored float32 values
    return synthdata.read_embeddings(tmp / f"{modality}.emb").astype(np.float64)


def _score_and_write(tmp: Path, modality: str, corpus, z, trials) -> None:
    raw = cosine_score(trials, _embeddings_by_id(corpus, z))
    scoring.write_scores(tmp / f"scores_{modality}.tsv", raw)


def compute_round_metrics(round_path, corpus: MultiModalCorpus, trials, k: int, round_index: int) -> dict:
    """Recompute a round's metrics purely from its stored artifacts."""
    round_path = Path(round_path)
    truth = corpus.identity_gt
    report: dict = {"round": round_index, "k": k}
    for name in ("audio", "visual", "joint", "fused"):
        path = round_path / f"assign_{name}.tsv"
        if path.is_file():
            ids, assign = read_assignment(path, k=k)
            if ids != corpus.sample_ids:
                raise DataError(f"{path} does not cover the corpus sample ids in order")
            report[f"nmi_{name}"] = nmi(assign.labels, truth)
        else:
            report[f"nmi_{name}"] = None
    for modality in _MODALITIES:
        path = round_path / f"scores_{modality}.tsv"
        if path.is_file():
            ss = scoring.read_scores(path, trials)
            value, _ = eer(ss)
            report[f"eer_{modality}"] = value
        else:
            report[f"eer_{modality}"] = None
    return report


def _write_metrics(tmp: Path, report: dict) -> None:
    (tmp / "metrics.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def run_stage1(config: PipelineConfig) -> RoundArtifacts:
    """Contrastive pretraining plus the initial clustering round (round 0)."""
    _prepare_run(config)
    corpus = _ensure_corpus(config)
    trials, _ = _ensure_eval_material(config, corpus)
    if _round_complete(config, 0):
        logger.info("round 0 already complete, skipping")
        return _load_round(config, 0)

    with _staged(_round_dir(config, 0)) as tmp:
        tmp.mkdir()
        aug_range = (corpus.config or config.synth).augmentation_noise_range
        train_cfg = replace(config.contrastive, seed=_derive_seed(config.seed, 0, 1))
        logger.info("round 0: contrastive pretraining (%d epochs)", train_cfg.epochs)
        params, log = train_contrastive(
            corpus.features("audio").astype(np.float64), train_cfg, aug_range
        )
        write_checkpoint(tmp / "encoder_audio.enc", params)
        write_train_log(tmp / "train_log_audio.tsv", log)

        z_audio = _write_round_embeddings(tmp, "audio", params, corpus)

        cl = config.cluster
        if config.fixed_k is not None:
            k = config.fixed_k
        else:
            logger.info("round 0: sweeping K over %s", list(config.k_grid))
            curve = sweep_k(
                z_audio,
                config.k_grid,
                restarts=cl.sweep_restarts,
                seed=[config.seed, 0, 2],
                max_iters=cl.max_iters,
                workers=cl.workers,
            )
            write_wss_curve(tmp / "wss_curve.tsv", curve)
            k, _ = select_k_elbow(curve)
        logger.info("round 0: clustering audio embeddings at K=%d", k)
        _, assign_audio, _ = kmeans(
            z_audio,
            k,
            restarts=cl.restarts,
            max_iters=cl.max_iters,
            seed=[config.seed, 0, 3],
            workers=cl.workers,
        )
        write_assignment(tmp / "assign_audio.tsv", corpus.sample_ids, assign_audio)
        _score_and_write(tmp, "audio", corpus, z_audio, trials)
        report = compute_round_metrics(tmp, corpus, trials, k, 0)
        _write_metrics(tmp, report)
    art = _load_round(config, 0)
    logger.info("round 0 done: %s", _metrics_brief(art.metrics))
    return art


def run_round(config: PipelineConfig, round_index: int, previous: RoundArtifacts) -> RoundArtifacts:
    """One supervised round: train both encoders on the previous labels,
    re-cluster each modality and the joint space, fuse by voting."""
    if round_index < 1:
        raise ConfigError("round_index must be >= 1")
    if _round_complete(config, round_index):
        logger.info("round %d already complete, skipping", round_index)
        return _load_round(config, round_index)
    corpus = _ensure_corpus(config)
    trials, _ = _ensure_eval_material(config, corpus)
    label_name = "audio" if previous.index == 0 else "fused"
    labels = previous.assignment(label_name)
    k = previous.k

    with _staged(_round_dir(config, round_index)) as tmp:
        tmp.mkdir()
        logger.info(
            "round %d: training the audio and visual classifiers on %s labels (K=%d)",
            round_index, label_name, k,
        )
        # separate seed streams, so the two can train in separate processes
        calls = [
            (
                corpus.features(modality).astype(np.float64),
                labels.labels,
                k,
                replace(config.classifier, seed=_derive_seed(config.seed, round_index, stream)),
                config.classifier_augmentation,
                config.classifier_augmentation_prob,
            )
            for stream, modality in enumerate(_MODALITIES, start=4)
        ]
        cl = config.cluster
        trained = ordered_map(train_classifier, calls, cl.workers, rows=len(corpus))
        z = {}
        for modality, (params, head, log) in zip(_MODALITIES, trained):
            write_checkpoint(tmp / f"encoder_{modality}.enc", params, head)
            write_train_log(tmp / f"train_log_{modality}.tsv", log)
            z[modality] = _write_round_embeddings(tmp, modality, params, corpus)

        fused_set = ensemble.fuse_pseudo_labels(
            z["audio"],
            z["visual"],
            k,
            restarts=cl.restarts,
            max_iters=cl.max_iters,
            seed=[config.seed, round_index, 6],
            workers=cl.workers,
        )
        ensemble.write_fusion(tmp, corpus.sample_ids, fused_set)
        for modality in _MODALITIES:
            _score_and_write(tmp, modality, corpus, z[modality], trials)
        report = compute_round_metrics(tmp, corpus, trials, k, round_index)
        _write_metrics(tmp, report)
    art = _load_round(config, round_index)
    logger.info("round %d done: %s", round_index, _metrics_brief(art.metrics))
    return art


def _metrics_brief(m: dict) -> str:
    parts = []
    for key in ("nmi_audio", "nmi_visual", "nmi_fused", "eer_audio", "eer_visual"):
        if m.get(key) is not None:
            parts.append(f"{key}={m[key]:.4f}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# final scoring and the aggregate report
# ---------------------------------------------------------------------------


def _system_metrics(raw: ScoreSet, normed: ScoreSet, dcf: DcfParams) -> dict:
    """EER, minDCF and its threshold on raw scores, plus EER and minDCF
    after AS-Norm."""
    eer_value, _ = eer(raw)
    dcf_value, threshold = min_dcf(raw, dcf)
    out = {"eer": eer_value, "min_dcf": dcf_value, "threshold": threshold}
    out["eer_norm"], _ = eer(normed)
    out["min_dcf_norm"], _ = min_dcf(normed, dcf)
    return out


def _final_scoring(config: PipelineConfig, corpus, trials, cohort_ids, last: RoundArtifacts) -> dict:
    """Normalized and fused verification metrics from the last round's
    stored embeddings and score files."""
    final_dir = config.output_dir / "final"
    final_dir.mkdir(exist_ok=True)
    systems = ["audio"] if last.index == 0 else ["audio", "visual"]
    raw_sets, norm_sets = {}, {}
    for modality in systems:
        z = last.embeddings(modality).astype(np.float64)
        by_id = _embeddings_by_id(corpus, z)
        raw = scoring.read_scores(last.path / f"scores_{modality}.tsv", trials)
        cohort = Cohort(np.stack([by_id[cid] for cid in cohort_ids]))
        normed = as_norm(raw, by_id, cohort, config.eval.top_n)
        scoring.write_scores(final_dir / f"scores_{modality}_norm.tsv", normed)
        raw_sets[modality] = raw
        norm_sets[modality] = scoring.read_scores(
            final_dir / f"scores_{modality}_norm.tsv", trials
        )

    out = {
        modality: _system_metrics(raw_sets[modality], norm_sets[modality], config.dcf)
        for modality in systems
    }
    if len(systems) > 1:
        weights = [1.0 / len(systems)] * len(systems)
        fused_raw = fuse_scores([raw_sets[m] for m in systems], weights)
        fused_norm = fuse_scores([norm_sets[m] for m in systems], weights)
        scoring.write_scores(final_dir / "scores_fusion.tsv", fused_raw)
        scoring.write_scores(final_dir / "scores_fusion_norm.tsv", fused_norm)
        fused_raw = scoring.read_scores(final_dir / "scores_fusion.tsv", trials)
        fused_norm = scoring.read_scores(final_dir / "scores_fusion_norm.tsv", trials)
        out["fusion"] = _system_metrics(fused_raw, fused_norm, config.dcf)
    return out


def run_pipeline(config: PipelineConfig) -> dict:
    """Run (or resume) the full pipeline and return the final report dict."""
    art = run_stage1(config)
    rounds = [art]
    for r in range(1, config.rounds + 1):
        art = run_round(config, r, rounds[-1])
        rounds.append(art)

    corpus = _ensure_corpus(config)
    trials, cohort_ids = _ensure_eval_material(config, corpus)
    report = {
        "fingerprint": config.fingerprint(),
        "k": rounds[0].k,
        "num_rounds": config.rounds,
        "rounds": [r.metrics for r in rounds],
        "final_scoring": {
            "cohort_size": len(cohort_ids),
            "top_n": config.eval.top_n,
            "systems": _final_scoring(config, corpus, trials, cohort_ids, rounds[-1]),
        },
    }
    report_path = config.output_dir / "report.json"
    with _staged(report_path) as tmp:
        tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    logger.info("pipeline finished; report at %s", report_path)
    return report
