"""Multi-modal pseudo-label fusion.

Cluster ids coming out of independent k-means runs are arbitrary, so fusion
first aligns each clustering to a reference through the contingency matrix
and an exact Hungarian matching, then takes a per-sample majority vote. The
joint-representation clustering acts as the reference and also breaks
all-distinct ties.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from ._kernels import hungarian_min_cost
from ._parallel import ordered_map
from ._textio import write_json
from .clustering import Assignment, ClusterSettings, _seed_list, kmeans, write_assignment
from .errors import ConfigError
from .scoring import unit_rows


class Correspondence(NamedTuple):
    """Bijective cluster relabeling: ``mapping[current_label] = reference_label``."""

    mapping: np.ndarray
    objective: int


class FusedLabels(NamedTuple):
    """All assignments produced by one fusion pass, in a common label space."""

    fused: Assignment
    audio: Assignment
    visual: Assignment
    joint: Assignment


def write_fusion(out_dir: Path, sample_ids: Sequence[str], fused_set: FusedLabels) -> dict:
    """Write the four ``assign_<name>.tsv`` files and ``fusion_report.json``
    (the vote breakdown) into ``out_dir``; returns the breakdown."""
    for name, assign in fused_set._asdict().items():
        write_assignment(out_dir / f"assign_{name}.tsv", sample_ids, assign)
    breakdown = vote_breakdown(fused_set.joint, fused_set.audio, fused_set.visual)
    write_json(out_dir / "fusion_report.json", breakdown)
    return breakdown


def contingency(ref: Assignment, cur: Assignment) -> np.ndarray:
    """K x K co-occurrence counts; entry (l, l') counts samples with
    reference label l and current label l'."""
    if ref.k != cur.k:
        raise ConfigError(f"cluster counts differ: {ref.k} vs {cur.k}")
    if len(ref) != len(cur):
        raise ConfigError("assignments differ in length")
    flat = ref.labels * ref.k + cur.labels
    counts = np.bincount(flat, minlength=ref.k * ref.k)
    return counts.reshape(ref.k, ref.k).astype(np.int64)


def correspond(omega: np.ndarray) -> Correspondence:
    """Optimal cluster correspondence for a contingency matrix.

    Solves the assignment problem maximizing total co-occurrence (Hungarian
    on the negated counts, exact integer arithmetic). The returned objective
    is the maximal total co-occurrence, kept for auditing.
    """
    omega = np.asarray(omega)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ConfigError("contingency matrix must be square")
    if np.any(omega < 0):
        raise ConfigError("contingency entries must be nonnegative")
    cost = -omega.astype(np.int64)
    row_for_col = hungarian_min_cost(np.ascontiguousarray(cost))
    mapping = np.asarray(row_for_col, dtype=np.int64)
    objective = int(omega[mapping, np.arange(omega.shape[0])].sum())
    return Correspondence(mapping=mapping, objective=objective)


def relabel(cur: Assignment, theta: Correspondence) -> Assignment:
    """Rename cluster ids through a correspondence; the partition itself is
    unchanged."""
    mapping = np.asarray(theta.mapping, dtype=np.int64)
    if mapping.shape != (cur.k,):
        raise ConfigError("correspondence does not cover the assignment's clusters")
    if not np.array_equal(np.sort(mapping), np.arange(cur.k)):
        raise ConfigError("correspondence is not a permutation")
    return Assignment(labels=mapping[cur.labels], k=cur.k)


def joint_embeddings(za: np.ndarray, zv: np.ndarray) -> np.ndarray:
    """Concatenate the two modality embeddings, audio block first.

    Each row is length-normalized per modality before concatenation so
    neither modality dominates the joint clustering by scale.
    """
    za, zv = np.asarray(za), np.asarray(zv)
    if za.ndim != 2 or zv.ndim != 2 or za.shape[0] != zv.shape[0]:
        raise ConfigError("modality embeddings must be matrices with equal row counts")
    return np.hstack([unit_rows(block, lambda i: f"row {i}") for block in (za, zv)])


def majority_vote(ref: Assignment, a: Assignment, b: Assignment) -> Assignment:
    """Per-sample consensus over three aligned assignments.

    A label carried by at least two of the three wins; when all three
    disagree the reference label wins.
    """
    if not (len(ref) == len(a) == len(b)):
        raise ConfigError("assignments differ in length")
    if not (ref.k == a.k == b.k):
        raise ConfigError("assignments differ in cluster count")
    # If a and b agree, that label has >= 2 votes; any other majority must
    # include the reference, so the reference label covers every other case.
    fused = np.where(a.labels == b.labels, a.labels, ref.labels)
    return Assignment(labels=fused, k=ref.k)


def vote_breakdown(ref: Assignment, a: Assignment, b: Assignment) -> dict:
    """Counts of unanimous / two-against-one / all-distinct samples."""
    ra = ref.labels == a.labels
    rb = ref.labels == b.labels
    ab = a.labels == b.labels
    unanimous = int(np.sum(ra & rb))
    distinct = int(np.sum(~ra & ~rb & ~ab))
    return {
        "unanimous": unanimous,
        "majority_2_1": len(ref) - unanimous - distinct,
        "all_distinct": distinct,
    }


def fuse_pseudo_labels(
    za: np.ndarray,
    zv: np.ndarray,
    k: int,
    restarts: int = ClusterSettings.restarts,
    seed=0,
) -> FusedLabels:
    """Cluster both modalities and their joint representation at the same K,
    each with ``kmeans`` at ``restarts`` restarts, align audio and visual to
    the joint reference, and vote.

    The three ``kmeans`` calls, and then the two Hungarian ``correspond``
    calls, run side by side through ``_parallel.ordered_map``, which changes
    no result. Returns all four assignments (audio and visual already
    relabeled into the joint label space) so per-round quality can be
    reported for each.
    """
    prefix = _seed_list(seed)
    zj = joint_embeddings(za, zv)
    views = [(z, k, restarts, prefix + [i]) for i, z in enumerate((za, zv, zj), start=1)]
    audio, visual, joint = (run[1] for run in ordered_map(kmeans, views, rows=zj.shape[0]))
    pairs = [(contingency(joint, audio),), (contingency(joint, visual),)]
    to_audio, to_visual = ordered_map(correspond, pairs, rows=zj.shape[0])
    audio_aligned, visual_aligned = relabel(audio, to_audio), relabel(visual, to_visual)
    fused = majority_vote(joint, audio_aligned, visual_aligned)
    return FusedLabels(fused=fused, audio=audio_aligned, visual=visual_aligned, joint=joint)
