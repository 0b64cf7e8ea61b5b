"""Trial scoring: cosine similarity, adaptive symmetric normalization, fusion.

A trial is an (enroll, test) pair; its key says whether the two samples share
an identity. A trial list (``Trials``) holds the pairs as row indices into one
id list, and scoring gathers rows of one embedding matrix. Raw scores are
cosines of the two embeddings, whose rows :func:`unit_rows` scales to unit
length; the fusion's joint view scales its rows there too. AS-Norm
z-normalizes a raw score against each side's top-N cohort scores and averages
the two normalized values:

    s' = 0.5 * [ (s - mu_e) / sigma_e + (s - mu_t) / sigma_t ]

where mu/sigma are the mean and population standard deviation of the top-N
largest cosine scores of that side against the cohort. Trial and score files
go through ``_textio``, in blocks of rows; row i of a score file is trial i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from ._textio import read_blocks, read_columns, write_rows
from .errors import ConfigError, DataError, NumericError


def rows_of(names: Sequence[str], ids: Sequence[str], what: str) -> np.ndarray:
    """The row of each of ``names`` in ``ids``; a name that ``ids`` lacks
    raises DataError naming ``what``."""
    row = {sid: i for i, sid in enumerate(ids)}
    try:
        return np.fromiter(map(row.__getitem__, names), np.int64, len(names))
    except KeyError as exc:
        raise DataError(f"unknown id in {what}: {exc.args[0]!r}") from None


@dataclass(frozen=True, eq=False)
class Trials:
    """A trial list as row indices into an id list.

    Trial i pairs ``ids[enroll[i]]`` with ``ids[test[i]]``, and
    ``is_target[i]`` says whether the two share an identity. An embedding
    matrix scored over the trials holds one row per entry of ``ids``.
    """

    ids: tuple[str, ...]
    enroll: np.ndarray
    test: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name, dtype in (("enroll", np.int64), ("test", np.int64), ("is_target", bool)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        shape = self.enroll.shape
        if len(shape) != 1 or not shape == self.test.shape == self.is_target.shape:
            raise ConfigError("enroll, test and is_target must be equal-length 1-d arrays")
        rows = np.concatenate([self.enroll, self.test])
        if rows.size and not (rows.min() >= 0 and rows.max() < len(self.ids)):
            raise ConfigError(f"trial indices must lie in [0, {len(self.ids)})")

    def __len__(self) -> int:
        return self.enroll.size

    def __reduce__(self):
        # unpickled through __post_init__, so the arrays stay read-only
        return Trials, (self.ids, self.enroll, self.test, self.is_target)

    def __eq__(self, other) -> bool:
        return isinstance(other, Trials) and self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("enroll", "test", "is_target")
        )

    @cached_property
    def _pair_names(self) -> tuple[list[str], list[str]]:
        """The enroll and test id of every trial, as two lists in trial
        order; computed once per trial list, and not to be modified."""
        ids = self.ids
        return [ids[i] for i in self.enroll.tolist()], [ids[i] for i in self.test.tolist()]


@dataclass(frozen=True)
class ScoreSet:
    """Per-trial scores, in trial order."""

    trials: Trials
    scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)  # a copy: the caller's stays writable
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
        return self.trials.is_target


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


def unit_rows(x, where) -> np.ndarray:
    """The rows of matrix ``x`` scaled to unit L2 norm, in float64. A zero
    row raises NumericError ``zero-norm embedding <where(i)>``, for the first
    such row i."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise NumericError(f"zero-norm embedding {where(int(zero[0]))}")
    return x / norms[:, None]


def _unit_rows(trials: Trials, embeddings) -> np.ndarray:
    """The embedding matrix with each row that a trial uses scaled to unit
    norm, once; rows no trial uses are zero."""
    emb = np.asarray(embeddings)
    if emb.ndim != 2 or emb.shape[0] != len(trials.ids):
        raise ConfigError(
            f"need one embedding row per trial id ({len(trials.ids)}), got shape {emb.shape}"
        )
    used = np.zeros(len(trials.ids), dtype=bool)
    used[trials.enroll] = True
    used[trials.test] = True
    rows = np.flatnonzero(used)
    units = np.zeros(emb.shape)
    units[rows] = unit_rows(emb[rows], lambda i: f"for {trials.ids[rows[i]]}")
    return units


# Trials scored per gather: bounds the two gathered row blocks, so scoring
# 40k trials allocates no trial-length matrix.
_GATHER_ROWS = 4096


def cosine_score(trials: Trials, embeddings) -> ScoreSet:
    """Cosine similarity of the enroll and test embeddings of each trial.

    ``embeddings`` holds one row per entry of ``trials.ids``.
    """
    units = _unit_rows(trials, embeddings)
    scores = np.empty(len(trials), dtype=np.float64)
    for start in range(0, len(trials), _GATHER_ROWS):
        part = slice(start, start + _GATHER_ROWS)
        scores[part] = np.einsum(
            "ij,ij->i", units[trials.enroll[part]], units[trials.test[part]]
        )
    return ScoreSet(trials=trials, scores=scores)


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


def as_norm(raw: ScoreSet, embeddings, cohort: Cohort, top_n: int) -> ScoreSet:
    """Adaptive symmetric score normalization of a raw score set.

    ``embeddings`` holds one row per entry of ``raw.trials.ids``. Trial
    order is preserved. The cosine scores of every trial row against the
    cohort come from one matrix product and are normalized by
    :func:`as_norm_scores`.
    """
    cohort_units = unit_rows(cohort.embeddings, lambda i: "in cohort")
    trials = raw.trials
    cohort_scores = _unit_rows(trials, embeddings) @ cohort_units.T
    out = as_norm_scores(raw.scores, cohort_scores, trials.enroll, trials.test, top_n)
    return ScoreSet(trials=trials, scores=out)


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


def write_trials(path, trials: Trials) -> None:
    enroll, test = trials._pair_names
    write_rows(path, "%s %s %d", (enroll, test, trials.is_target.astype(int).tolist()))


def read_trials(path, ids: Sequence[str] | None = None) -> Trials:
    """Read a trial file as row indices into ``ids`` (a corpus's sample
    ids, say); without ``ids``, the file's ids are numbered in the order
    they first appear. An id that ``ids`` lacks is a DataError."""
    # ("0", "1").index reads a target flag, and raises ValueError for any other
    enroll, test, is_target = read_columns(path, "trial", (str, str, ("0", "1").index))
    if not enroll:
        raise DataError(f"trial file {path} is empty")
    names = list(chain.from_iterable(zip(enroll, test)))
    if ids is None:
        ids = dict.fromkeys(names)
    rows = rows_of(names, ids, "trial list")
    return Trials(ids, rows[0::2], rows[1::2], is_target)


def write_scores(path, score_set: ScoreSet) -> None:
    enroll, test = score_set.trials._pair_names
    write_rows(path, "%s %s %.6f", (enroll, test, score_set.scores.tolist()))


def read_scores(path, trials: Trials) -> ScoreSet:
    """Read a score file and bind it to a trial list: row i must name the
    enroll and test ids of trial i. Each block of rows is checked against
    its slice of the trial list, and only its scores are kept; in a block
    with both, a malformed line is named before a mismatched one."""
    enroll, test = trials._pair_names
    parts, done = [np.empty(0)], 0
    for enroll_ids, test_ids, scores in read_blocks(path, "score", (str, str, float)):
        end = done + len(scores)
        want_enroll, want_test = enroll[done:end], test[done:end]
        if enroll_ids != want_enroll or test_ids != want_test:
            # the first row that names another trial; past the end of the
            # trial list there is none, and the row count fails below
            rows = zip(enroll_ids, test_ids, want_enroll, want_test)
            for i, (e, t, want_e, want_t) in enumerate(rows):
                if (e, t) != (want_e, want_t):
                    raise DataError(f"score row {done + i} of {path} names trial ({e}, {t}) "
                                    f"but the trial list has ({want_e}, {want_t})")
        parts.append(np.array(scores))
        done = end
    if done != len(enroll):
        raise DataError(f"score file {path} has {done} rows but trial list has {len(enroll)}")
    scores = np.concatenate(parts)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise DataError(f"score row {bad[0]} of {path} is not finite: {scores[bad[0]]}")
    return ScoreSet(trials=trials, scores=scores)
