"""k-means with k-means++ seeding, WSS, K sweeps and elbow selection.

``kmeans`` computes the row norms ``x_sq = (x * x).sum(axis=1)`` once and
reuses them in every seeding step and assignment pass, where squared
distances are ``x_sq + c.c - 2 x.c`` around one GEMV or GEMM. Seeding snaps
distances within rounding of 0 to exactly 0 (see ``_kmeanspp_init``), so it
picks the rows the direct ``((x - c) ** 2).sum()`` form picks. The
assignment passes run in float32, on float32 copies of ``x`` and the
centroids, with ``x_sq`` the float64 row norms rounded once to float32.
Seeding, the centroid sums, the returned centroids and W stay float64.

The restarts run in forked processes, up to one per usable CPU
(``_parallel.ordered_map``), and the best is chosen in restart order, so
every result is bitwise independent of the process count. ``kmeans`` runs
one restart by default (see ``ClusterSettings``); the K sweep runs
``SWEEP_RESTARTS`` per K, all (K, restart) pairs in one map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import assign_points, sq_residuals
from ._parallel import ordered_map
from ._textio import read_columns, write_rows
from .errors import ConfigError, DataError

# Assignment runs over row chunks of this height; see _chunk_slices.
_CHUNK_ROWS = 2048
# Restarts per candidate K in a K sweep, in the pipeline and the CLI alike.
SWEEP_RESTARTS = 4
# Lloyd stops at convergence or after this many iterations.
MAX_ITERS = 100


@dataclass(frozen=True)
class ClusterSettings:
    """k-means settings; ``restarts`` is the library's default for
    ``kmeans`` and for each of the three views of ``fuse_pseudo_labels``.
    One k-means++ seeding is already O(log k)-competitive, and 10 restarts
    moved neither the fused NMI nor the fusion EER/minDCF past the seed
    spread. The sweep's restart count and the iteration cap are the
    constants ``SWEEP_RESTARTS`` and ``MAX_ITERS``, and ``_parallel.CPUS``
    sets the process count, which changes no result."""

    restarts: int = 1

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")


@dataclass(frozen=True)
class Assignment:
    """Cluster label per sample, bound to the corpus ordinal order."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)  # a copy: the caller's stays writable
        if labels.ndim != 1:
            raise ConfigError("assignment labels must be a 1-d integer vector")
        if self.k < 1:
            raise ConfigError("assignment needs k >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ConfigError(
                f"labels must lie in [0, {self.k}), found range "
                f"[{labels.min()}, {labels.max()}]"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.size

    def __reduce__(self):
        # unpickled through __post_init__, so the labels stay read-only
        return Assignment, (self.labels, self.k)


@dataclass(frozen=True)
class WssCurve:
    """Within-cluster sum of squares per candidate cluster count."""

    ks: np.ndarray
    wss: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=np.int64)
        wss = np.asarray(self.wss, dtype=np.float64)
        if ks.ndim != 1 or wss.shape != ks.shape:
            raise ConfigError("curve requires matching 1-d ks and wss vectors")
        if ks.size and np.any(np.diff(ks) <= 0):
            raise ConfigError("ks must be strictly ascending")
        if not np.all(wss >= 0):
            raise ConfigError("wss values must be finite and nonnegative")
        ks.setflags(write=False)
        wss.setflags(write=False)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "wss", wss)

    def __len__(self) -> int:
        return self.ks.size


def _seed_list(seed) -> list[int]:
    parts = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    if any(part < 0 for part in parts):
        raise ConfigError("seed must be nonnegative")
    return parts


def _chunk_slices(n: int) -> list[slice]:
    # A one-row remainder joins the chunk before it: numpy hands a one-row
    # product to GEMV, which rounds differently from the GEMM of the others.
    bounds = list(range(0, max(n - 1, 1), _CHUNK_ROWS)) + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _assign(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [assign_points(x[s], centroids, x_sq[s]) for s in _chunk_slices(x.shape[0])]
    )


def _update_centroids(x: np.ndarray, labels: np.ndarray, k: int, c_old: np.ndarray) -> np.ndarray:
    counts = np.bincount(labels, minlength=k)
    c = np.empty_like(c_old)
    for j in range(x.shape[1]):
        c[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    nonempty = counts > 0
    c[nonempty] /= counts[nonempty, None]
    empty = np.nonzero(~nonempty)[0]
    if empty.size:
        # Empty-cluster repair: hand the centroid to the point farthest from
        # its (freshly updated) assigned centroid, one empty cluster at a
        # time in ascending cluster order. Keeps K fixed.
        c[empty] = c_old[empty]
        residuals = sq_residuals(x, c, labels)
        for e in empty:
            far = int(np.argmax(residuals))
            c[e] = x[far]
            residuals[far] = 0.0
    return c


def _kmeanspp_init(x: np.ndarray, k: int, rng, x_sq: np.ndarray) -> np.ndarray:
    """Row indices of k distinct seeds picked by k-means++ (Arthur &
    Vassilvitskii, "k-means++: the advantages of careful seeding", SODA 2007).

    Each step's squared distance to the new seed c is one GEMV on the cached
    row norms, ``x_sq + c.c - 2 x.c``, built in a preallocated buffer. Its
    rounding error is below ``(d + 2) * eps * (x_sq + c.c)``, so every entry
    at or below that bound is set to exactly 0: a row equal to a seed weighs
    0, as it does under the direct ``((x - c) ** 2).sum(axis=1)``, it is never
    drawn, and data with fewer distinct rows than k still reaches the
    uniform fallback. The draw is the arithmetic ``rng.choice(n, p=d2 /
    total)`` performs (cumsum, normalize, one ``random()`` double,
    right-sided searchsorted) without its validation passes, so it takes
    the same numbers from the stream. Elsewhere the distances differ from
    the direct form in the last bits only; a pick could move only if the
    uniform double fell that close to a cdf step, so the picks, and every
    output after them, are those of the direct form.
    """
    n, d = x.shape
    picks = np.empty(k, dtype=np.int64)
    chosen = np.zeros(n, dtype=bool)
    tol = (d + 2) * np.finfo(np.float64).eps
    d2 = np.full(n, np.inf)
    dist = np.empty(n)
    bound = np.empty(n)
    idx = int(rng.integers(n))
    for j in range(k):
        if j:
            total = d2.sum()
            if total > 0:
                np.divide(d2, total, out=dist)
                cdf = dist.cumsum()
                cdf /= cdf[-1]
                idx = int(cdf.searchsorted(rng.random(), side="right"))
            else:
                remaining = np.nonzero(~chosen)[0]
                idx = int(remaining[rng.integers(remaining.size)])
        picks[j] = idx
        chosen[idx] = True
        np.dot(x, x[idx], out=dist)
        dist *= -2.0
        dist += x_sq
        dist += x_sq[idx]
        np.add(x_sq, x_sq[idx], out=bound)
        bound *= tol
        dist[dist <= bound] = 0.0
        np.minimum(d2, dist, out=d2)
    return picks


def _restart(x, x_sq, x32, x_sq32, k, seed, return_history):
    """One k-means++ seeding and Lloyd run from the stream ``seed``; the
    assignment passes read ``x32`` and ``x_sq32``, the float32 copies of
    ``x`` and ``x_sq``."""
    c = x[_kmeanspp_init(x, k, np.random.default_rng(seed), x_sq)]
    labels = None
    history = []
    for _ in range(MAX_ITERS):
        new_labels = _assign(x32, x_sq32, c.astype(np.float32))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        c = _update_centroids(x, labels, k, c)
        if return_history:
            history.append(float(sq_residuals(x, c, labels).sum()))
    else:
        labels = _assign(x32, x_sq32, c.astype(np.float32))
    w = float(sq_residuals(x, c, labels).sum())
    return c, labels, w, history


def _prepared(x: np.ndarray, ks: Sequence[int], restarts: int):
    """``x`` as contiguous float64 after the checks every k-means call makes
    (each K in ``ks`` lies in [1, n]), and what every restart reads: the row
    norms ``x_sq`` and the float32 copies of ``x`` and ``x_sq``."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("kmeans expects a nonempty 2-d matrix")
    if not np.all(np.isfinite(x)):
        raise ConfigError("kmeans input contains non-finite values")
    for k in ks:
        if k < 1 or k > x.shape[0]:
            raise ConfigError(f"k must be in [1, {x.shape[0]}], got {k}")
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    x_sq = (x * x).sum(axis=1)
    return x, x_sq, x.astype(np.float32), x_sq.astype(np.float32)


def _best(runs: list):
    # min() keeps the first of equal values: first restart wins ties
    return min(runs, key=lambda run: run[2])


def kmeans(
    x: np.ndarray,
    k: int,
    restarts: int = ClusterSettings.restarts,
    seed=0,
    return_history: bool = False,
):
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding; each
    restart stops at convergence or after ``MAX_ITERS`` iterations.

    Returns ``(centroids, assignment, w)`` where ``centroids`` has shape
    (k, d) and ``w`` is the chosen restart's final W, the sum of
    ``_kernels.sq_residuals(x, centroids, assignment.labels)``. With
    ``return_history=True`` a fourth element is appended: one list of
    per-iteration WSS values per restart, each recorded after the
    assignment+update step.

    Restart r uses its own deterministic stream derived from (seed, r); the
    best restart is the one with the smallest final W (first wins ties).
    The restarts run in up to ``_parallel.CPUS`` processes, which changes
    no result.
    The assignment passes run in float32; the centroids and W are float64.
    """
    prepared = _prepared(x, [k], restarts)
    prefix = _seed_list(seed)
    calls = [(*prepared, k, prefix + [r], return_history) for r in range(restarts)]
    runs = ordered_map(_restart, calls, rows=prepared[0].shape[0])
    centroids, labels, w, _ = _best(runs)
    assignment = Assignment(labels=labels, k=k)
    if return_history:
        return centroids, assignment, w, [run[3] for run in runs]
    return centroids, assignment, w


def sweep_k(
    x: np.ndarray,
    k_grid: Sequence[int],
    restarts: int = SWEEP_RESTARTS,
    seed=0,
) -> WssCurve:
    """Best-of-restarts WSS for each candidate K, in ascending K order; the
    pipeline and ``selflabel cluster --k-grid`` both run ``SWEEP_RESTARTS``
    restarts per K.

    K's W is that of ``kmeans(x, K, restarts, seed + [K])``: every (K,
    restart) pair runs through one ``ordered_map``, and each K keeps its
    best restart in restart order."""
    ks = [int(k) for k in k_grid]
    if not ks:
        raise ConfigError("k_grid must be nonempty")
    if sorted(set(ks)) != ks:
        raise ConfigError("k_grid must be strictly ascending")
    prefix = _seed_list(seed)
    prepared = _prepared(x, ks, restarts)
    calls = [(*prepared, k, prefix + [k, r], False) for k in ks for r in range(restarts)]
    runs = ordered_map(_restart, calls, rows=prepared[0].shape[0])
    values = [_best(runs[i : i + restarts])[2] for i in range(0, len(runs), restarts)]
    return WssCurve(ks=np.asarray(ks), wss=np.asarray(values))


def elbow_grid(k_grid: Sequence[int], name: str = "k_grid") -> tuple[int, ...]:
    """``k_grid`` as ints, checked to be strictly ascending and long enough
    for :func:`select_k_elbow`; errors name the setting ``name``."""
    try:
        ks = tuple(int(k) for k in k_grid)
    except (TypeError, ValueError):
        raise ConfigError(f"{name!r} must be a list of integers, got {k_grid!r}") from None
    if len(ks) < 3:
        raise ConfigError(f"{name!r} needs at least 3 values for the elbow, got {list(ks)}")
    if sorted(set(ks)) != list(ks):
        raise ConfigError(f"{name!r} must be strictly ascending")
    return ks


def select_k_elbow(curve: WssCurve) -> tuple[int, np.ndarray]:
    """Pick the K at the knee of a WSS-vs-K curve.

    Both axes are min-max normalized, then each point is scored by its
    perpendicular distance to the chord joining the curve's endpoints. The K
    with the highest score wins; exact ties go to the smallest K.
    """
    if len(curve) < 3:
        raise ConfigError("elbow selection needs a curve with at least 3 points")
    ks = curve.ks.astype(np.float64)
    ws = curve.wss.astype(np.float64)

    def _minmax(v):
        span = v.max() - v.min()
        if span == 0:
            return np.zeros_like(v)
        return (v - v.min()) / span

    u = _minmax(ks)
    v = _minmax(ws)
    sx, sy = u[0], v[0]
    ex, ey = u[-1], v[-1]
    chord = np.hypot(ex - sx, ey - sy)
    if chord == 0:
        scores = np.zeros_like(u)
    else:
        cross = (ex - sx) * (sy - v) - (sx - u) * (ey - sy)
        scores = np.abs(cross) / chord
    # scores within rounding noise of the maximum count as tied; the
    # smallest K among them wins (an exactly linear curve ties everywhere)
    tied = scores >= scores.max() - 1e-12
    best = int(np.argmax(tied))
    return int(curve.ks[best]), scores


# ---------------------------------------------------------------------------
# assignment / curve files
# ---------------------------------------------------------------------------


def write_assignment(path, sample_ids: Sequence[str], assignment: Assignment) -> None:
    if len(sample_ids) != len(assignment):
        raise ConfigError("sample id list and assignment differ in length")
    write_rows(path, "%s\t%d", (sample_ids, assignment.labels.tolist()))


def read_assignment(path, sample_ids: list[str], k: int | None = None) -> Assignment:
    """Read an assignment TSV whose id column must be ``sample_ids`` in
    order and whose labels lie in [0, k); ``k`` defaults to max label + 1."""
    if k is not None and k < 1:
        raise ConfigError(f"assignment needs k >= 1, got {k}")
    ids, labels = read_columns(path, "assignment", (str, int), "\t")
    if not labels:
        raise DataError(f"assignment file {path} is empty")
    if ids != sample_ids:
        raise DataError(f"{path} does not cover the corpus sample ids in order")
    arr = np.asarray(labels, dtype=np.int64)
    k = int(arr.max()) + 1 if k is None else k
    outside = np.flatnonzero((arr < 0) | (arr >= k))
    if outside.size:
        i = outside[0]
        raise DataError(f"{path}: label {arr[i]} of sample {ids[i]} lies outside [0, {k})")
    return Assignment(labels=arr, k=k)


def write_wss_curve(path, curve: WssCurve) -> None:
    write_rows(path, "%d\t%r", (curve.ks.tolist(), curve.wss.tolist()))


def read_wss_curve(path) -> WssCurve:
    ks, ws = read_columns(path, "curve", (int, float), "\t")
    try:
        return WssCurve(ks=np.asarray(ks), wss=np.asarray(ws))
    except ConfigError as exc:
        raise DataError(f"curve file {path}: {exc}") from None
