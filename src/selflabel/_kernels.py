"""Hot numeric kernels: nearest-centroid assignment, per-row residuals and
the Hungarian algorithm, in numpy.
"""

from __future__ import annotations

import numpy as np

_INT_INF = np.iinfo(np.int64).max // 4


def active_backend() -> str:
    """Name of the kernel implementation; recorded in benchmark provenance."""
    return "numpy"


# ---------------------------------------------------------------------------
# nearest-centroid assignment (the k-means inner loop)
# ---------------------------------------------------------------------------


def assign_points(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """Nearest centroid per row of ``x``, given the squared row norms ``x_sq``
    of ``x``. Ties go to the lowest centroid index.

    The arithmetic runs in the inputs' dtype: ``kmeans`` passes float32 ``x``
    and centroids, with ``x_sq`` the float64 norms rounded to float32.
    """
    # ||x||^2 - 2 x.c + ||c||^2 built in the GEMM's output buffer. Scaling by
    # -2 is exact and a - b == a + (-b), so the values are bitwise those of
    # the textbook expression.
    d2 = x @ centroids.T
    d2 *= -2.0
    d2 += x_sq[:, None]
    d2 += (centroids * centroids).sum(axis=1)
    return np.argmin(d2, axis=1).astype(np.int64, copy=False)


def sq_residuals(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray):
    """Per-row squared distance to the assigned centroid."""
    diff = x - centroids[labels]
    return (diff * diff).sum(axis=1)


# ---------------------------------------------------------------------------
# Hungarian algorithm, square integer min-cost assignment, O(n^3)
# ---------------------------------------------------------------------------


def hungarian_min_cost(cost: np.ndarray) -> np.ndarray:
    """Solve the square min-cost assignment problem exactly.

    ``cost`` must be an int64 matrix. Returns ``row_for_col`` with
    ``row_for_col[j] = i`` meaning row i is matched to column j. Uses the
    classic potentials-and-slack formulation; all arithmetic is integer, so
    results are exact. Inner slack updates are vectorized over columns.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j] = row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, _INT_INF, dtype=np.int64)
        used = np.zeros(n + 1, dtype=np.bool_)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            free_idx = np.nonzero(free)[0]
            j1 = int(free_idx[np.argmin(minv[1:][free_idx])]) + 1
            delta = minv[j1]
            # rows touched so far are distinct, so fancy-index += is safe
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    return p[1:] - 1
