"""Clustering-quality and verification metrics: NMI, EER, minDCF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scoring import ScoreSet


@dataclass(frozen=True)
class DcfParams:
    """Detection-cost parameters; defaults follow common challenge settings."""

    p_target: float = 0.05
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0 < self.p_target < 1:
            raise ConfigError("p_target must lie strictly between 0 and 1")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ConfigError("costs must be positive")


def _sorted_sum(terms: np.ndarray) -> float:
    # Summing in sorted order makes the result invariant to how the terms
    # were enumerated (transposed contingency, permuted labels).
    return float(np.sort(terms).sum())


def nmi(a, b) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    Natural logarithms; returns MI / mean(H(a), H(b)) in [0, 1]. Two constant
    labelings are defined to agree perfectly (1.0). Exactly symmetric and
    invariant under relabeling permutations of either argument.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("nmi expects two equal-length label vectors")
    if a.size == 0:
        raise ConfigError("nmi expects nonempty label vectors")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka = int(ai.max()) + 1
    kb = int(bi.max()) + 1
    counts = np.bincount(ai * kb + bi, minlength=ka * kb).reshape(ka, kb)
    pij = counts / n
    # marginals from integer counts: exact, so label permutations cannot
    # perturb them through float summation order
    pa = counts.sum(axis=1) / n
    pb = counts.sum(axis=0) / n
    h_a = _sorted_sum(-pa[pa > 0] * np.log(pa[pa > 0]))
    h_b = _sorted_sum(-pb[pb > 0] * np.log(pb[pb > 0]))
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    nz = pij > 0
    log_pij = np.log(pij[nz])
    log_pa = np.log(pa)[np.nonzero(nz)[0]]
    log_pb = np.log(pb)[np.nonzero(nz)[1]]
    # grouping the marginal logs keeps the expression symmetric in (a, b)
    # down to the last bit
    mi = _sorted_sum(pij[nz] * (log_pij - (log_pa + log_pb)))
    value = mi / ((h_a + h_b) / 2.0)
    return float(min(max(value, 0.0), 1.0))


def _operating_points(scores: np.ndarray, is_target: np.ndarray):
    """FAR/FRR at every distinct threshold plus the reject-all point.

    Acceptance rule is score >= threshold; trials tied at a score share one
    operating point.
    """
    tgt = np.sort(scores[is_target])
    non = np.sort(scores[~is_target])
    if tgt.size == 0 or non.size == 0:
        raise ConfigError("need at least one target and one nontarget trial")
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    far = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    frr = np.searchsorted(tgt, thresholds, side="left") / tgt.size
    return thresholds, far, frr


def eer(score_set: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Sweeps all distinct thresholds; when FAR and FRR do not meet exactly at
    an operating point, both rates (and the threshold) are linearly
    interpolated between the two adjacent points where their difference
    changes sign.
    """
    thresholds, far, frr = _operating_points(score_set.scores, score_set.is_target)
    diff = far - frr  # non-increasing, from +1 territory down to -1
    below = np.nonzero(diff <= 0)[0]
    i = int(below[0])
    if diff[i] == 0:
        return float(far[i]), float(thresholds[i])
    j = i - 1  # diff[j] > 0 is guaranteed: FAR starts at 1 with FRR at 0
    alpha = diff[j] / (diff[j] - diff[i])
    value = far[j] + alpha * (far[i] - far[j])
    threshold = thresholds[j] + alpha * (thresholds[i] - thresholds[j])
    return float(value), float(threshold)


def min_dcf(score_set: ScoreSet, params: DcfParams = DcfParams()) -> tuple[float, float]:
    """Minimum normalized detection cost over all thresholds.

    Cost at a threshold is (c_miss p_t P_miss + c_fa (1-p_t) P_fa) divided by
    min(c_miss p_t, c_fa (1-p_t)). The accept-all and reject-all operating
    points are always included, so the result never exceeds 1.
    """
    thresholds, far, frr = _operating_points(score_set.scores, score_set.is_target)
    miss_cost = params.c_miss * params.p_target
    fa_cost = params.c_fa * (1.0 - params.p_target)
    dcf = (miss_cost * frr + fa_cost * far) / min(miss_cost, fa_cost)
    i = int(np.argmin(dcf))
    return float(dcf[i]), float(thresholds[i])


def verification_metrics(score_set: ScoreSet, params: DcfParams = DcfParams()) -> dict:
    """EER, minDCF and minDCF's threshold, ready for JSON: the threshold of
    the reject-all point is infinite, and is reported as None."""
    eer_value, _ = eer(score_set)
    dcf_value, threshold = min_dcf(score_set, params)
    return {
        "eer": eer_value,
        "min_dcf": dcf_value,
        "threshold": threshold if np.isfinite(threshold) else None,
    }
