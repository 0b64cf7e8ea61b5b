"""Trial scoring: cosine similarity, adaptive symmetric normalization, fusion.

A trial is an (enroll, test) pair; its key says whether the two samples share
an identity. Raw scores are cosines of the two embeddings. AS-Norm
z-normalizes a raw score against each side's top-N cohort scores and averages
the two normalized values:

    s' = 0.5 * [ (s - mu_e) / sigma_e + (s - mu_t) / sigma_t ]

where mu/sigma are the mean and population standard deviation of the top-N
largest cosine scores of that side against the cohort.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._textio import read_rows
from .errors import ConfigError, DataError, NumericError


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    is_target: bool


@dataclass(frozen=True)
class ScoreSet:
    """Per-trial scores, in trial order."""

    trials: tuple[Trial, ...]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "trials", tuple(self.trials))
        if scores.shape != (len(self.trials),):
            raise ConfigError("scores and trials differ in length")
        if not np.all(np.isfinite(scores)):
            raise NumericError("scores contain non-finite values")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.trials)

    @property
    def is_target(self) -> np.ndarray:
        return np.asarray([t.is_target for t in self.trials], dtype=bool)


@dataclass(frozen=True)
class Cohort:
    """Impostor embeddings used for score-normalization statistics."""

    embeddings: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 2:
            raise ConfigError("cohort needs a matrix of at least 2 embeddings")
        if not np.all(np.isfinite(emb)):
            raise NumericError("cohort embeddings contain non-finite values")
        object.__setattr__(self, "embeddings", emb)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


def _unit(vec: np.ndarray, label: str) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise NumericError(f"zero-norm embedding for {label}")
    return vec / norm


def cosine_score(trials: Sequence[Trial], embeddings_by_id: Mapping[str, np.ndarray]) -> ScoreSet:
    """Cosine similarity of enroll and test embeddings per trial."""
    units: dict[str, np.ndarray] = {}

    def lookup(sample_id: str) -> np.ndarray:
        if sample_id not in units:
            if sample_id not in embeddings_by_id:
                raise DataError(f"unknown id in trial list: {sample_id!r}")
            units[sample_id] = _unit(
                np.asarray(embeddings_by_id[sample_id], dtype=np.float64), sample_id
            )
        return units[sample_id]

    scores = np.empty(len(trials), dtype=np.float64)
    for i, trial in enumerate(trials):
        scores[i] = float(lookup(trial.enroll_id) @ lookup(trial.test_id))
    return ScoreSet(trials=tuple(trials), scores=scores)


# Rows sorted at a time for top-N statistics: bounds the sort's temporary
# (the pipeline's 40k-trial runs score about 6000 samples against the cohort).
_STATS_ROWS = 512


def _topn_stats(cohort_scores: np.ndarray, top_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row: mean and population standard deviation of the top-N scores."""
    mu = np.empty(cohort_scores.shape[0])
    sigma = np.empty(cohort_scores.shape[0])
    for start in range(0, cohort_scores.shape[0], _STATS_ROWS):
        rows = slice(start, start + _STATS_ROWS)
        top = np.sort(cohort_scores[rows], axis=1)[:, -top_n:]
        mu[rows] = top.mean(axis=1)
        sigma[rows] = np.sqrt(np.mean((top - mu[rows, None]) ** 2, axis=1))
    return mu, sigma


def as_norm_scores(
    raw: np.ndarray,
    cohort_scores: np.ndarray,
    enroll_idx: np.ndarray,
    test_idx: np.ndarray,
    top_n: int,
) -> np.ndarray:
    """AS-Norm of raw trial scores from per-sample cohort score rows.

    ``cohort_scores[m]`` holds sample m's scores against every cohort member;
    trial i normalizes ``raw[i]`` with the top-N statistics of rows
    ``enroll_idx[i]`` and ``test_idx[i]``. Statistics are computed once per
    row, never per trial. Raises a degenerate-cohort error naming the first
    trial and side whose top-N scores have zero spread.
    """
    raw = np.asarray(raw, dtype=np.float64)
    cohort_scores = np.asarray(cohort_scores, dtype=np.float64)
    enroll_idx = np.asarray(enroll_idx, dtype=np.int64)
    test_idx = np.asarray(test_idx, dtype=np.int64)
    if raw.ndim != 1 or not raw.shape == enroll_idx.shape == test_idx.shape:
        raise ConfigError("raw scores and both index vectors must be equal-length 1-d arrays")
    if cohort_scores.ndim != 2:
        raise ConfigError("cohort scores must be a (samples, cohort) matrix")
    size = cohort_scores.shape[1]
    if not 1 <= top_n <= size:
        raise ConfigError(f"top_n must lie in [1, {size}], got {top_n}")
    mu, sigma = _topn_stats(cohort_scores, top_n)
    degenerate = sigma == 0
    bad = np.nonzero(degenerate[enroll_idx] | degenerate[test_idx])[0]
    if bad.size:
        i = int(bad[0])
        side = "enroll" if degenerate[enroll_idx[i]] else "test"
        raise NumericError(f"degenerate cohort: zero top-n variance on {side} side of trial {i}")
    # in place, with at most two trial-length temporaries alive: final
    # scoring runs close to the pipeline's peak memory
    out = raw - mu[enroll_idx]
    out /= sigma[enroll_idx]
    test_side = raw - mu[test_idx]
    test_side /= sigma[test_idx]
    out += test_side
    out *= 0.5
    return out


def as_norm(
    raw: ScoreSet,
    embeddings_by_id: Mapping[str, np.ndarray],
    cohort: Cohort,
    top_n: int,
) -> ScoreSet:
    """Adaptive symmetric score normalization of a raw score set.

    Trial order is preserved. Each trial sample's cosine scores against the
    cohort are computed once and normalized by :func:`as_norm_scores`.
    """
    cohort_units = cohort.embeddings / np.linalg.norm(cohort.embeddings, axis=1)[:, None]
    if not np.all(np.isfinite(cohort_units)):
        raise NumericError("zero-norm embedding in cohort")

    rows: dict[str, int] = {}
    for trial in raw.trials:
        for sample_id in (trial.enroll_id, trial.test_id):
            if sample_id not in rows:
                if sample_id not in embeddings_by_id:
                    raise DataError(f"unknown id in trial list: {sample_id!r}")
                rows[sample_id] = len(rows)
    cohort_scores = np.empty((len(rows), cohort.size), dtype=np.float64)
    for sample_id, row in rows.items():
        unit = _unit(np.asarray(embeddings_by_id[sample_id], dtype=np.float64), sample_id)
        cohort_scores[row] = cohort_units @ unit
    enroll_idx = np.fromiter((rows[t.enroll_id] for t in raw.trials), np.int64, len(raw))
    test_idx = np.fromiter((rows[t.test_id] for t in raw.trials), np.int64, len(raw))
    out = as_norm_scores(raw.scores, cohort_scores, enroll_idx, test_idx, top_n)
    return ScoreSet(trials=raw.trials, scores=out)


def fuse_scores(score_sets: Sequence[ScoreSet], weights: Sequence[float]) -> ScoreSet:
    """Per-trial weighted mean of several score sets over identical trials."""
    if not score_sets:
        raise ConfigError("need at least one score set")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(score_sets),):
        raise ConfigError("one weight per score set required")
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"weights must be finite, got {w.tolist()!r}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ConfigError(f"weights must sum to 1, got {w.sum()!r}")
    first = score_sets[0]
    for other in score_sets[1:]:
        if other.trials != first.trials:
            raise ConfigError("score sets cover different trial lists")
    fused = np.zeros(len(first), dtype=np.float64)
    for weight, ss in zip(w, score_sets):
        fused += weight * ss.scores
    return ScoreSet(trials=first.trials, scores=fused)


# ---------------------------------------------------------------------------
# trial / score files
# ---------------------------------------------------------------------------


def write_trials(path, trials: Sequence[Trial]) -> None:
    lines = [f"{t.enroll_id} {t.test_id} {1 if t.is_target else 0}" for t in trials]
    Path(path).write_text("\n".join(lines) + "\n")


def _target_flag(field: str) -> bool:
    if field not in ("0", "1"):
        raise ValueError(f"target flag {field!r}")
    return field == "1"


def read_trials(path) -> list[Trial]:
    trials = [Trial(*row) for row in read_rows(path, "trial", (str, str, _target_flag))]
    if not trials:
        raise DataError(f"trial file {path} is empty")
    return trials


def write_scores(path, score_set: ScoreSet) -> None:
    lines = [
        f"{t.enroll_id} {t.test_id} {s:.6f}" for t, s in zip(score_set.trials, score_set.scores)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path, trials: Sequence[Trial]) -> ScoreSet:
    """Read a score file and bind it to a trial list (ids must match in order)."""
    rows = read_rows(path, "score", (str, str, float))
    scores = []
    for trial, (enroll_id, test_id, score) in zip(trials, rows):
        if enroll_id != trial.enroll_id or test_id != trial.test_id:
            raise DataError(
                f"score row {len(scores)} of {path} names trial ({enroll_id}, {test_id}) but "
                f"the trial list has ({trial.enroll_id}, {trial.test_id})"
            )
        scores.append(score)
    count = len(scores) + sum(1 for _ in rows)
    if count != len(trials):
        raise DataError(f"score file {path} has {count} rows but trial list has {len(trials)}")
    return ScoreSet(trials=tuple(trials), scores=scores)
