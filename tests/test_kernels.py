"""The hot kernels against brute-force oracles."""

import numpy as np
import pytest

from selflabel import _kernels


def _assign_points_oracle(x, c):
    """The assignment kernel's earlier expression, kept as the reference
    whose labels the in-place form must reproduce exactly."""
    d2 = (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * (x @ c.T)
        + (c * c).sum(axis=1)[None, :]
    )
    return np.argmin(d2, axis=1).astype(np.int64)


class TestAssignPoints:
    def test_numpy_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        c = rng.standard_normal((7, 4))
        labels = _kernels.assign_points(x, c, (x * x).sum(axis=1))
        for i in range(50):
            dists = ((x[i] - c) ** 2).sum(axis=1)
            assert labels[i] == int(np.argmin(dists))

    @pytest.mark.parametrize("d", [3, 16, 32])
    def test_bitwise_equal_to_oracle(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((2000, d))
        x[1000:1300] = x[:300]  # duplicated rows, whose distances cancel
        c = np.concatenate([x[:50], rng.standard_normal((50, d))])
        got = _kernels.assign_points(x, c, (x * x).sum(axis=1))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _assign_points_oracle(x, c))

    def test_row_slices_of_cached_norms(self):
        # k-means caches the norms once and hands each chunk its slice
        rng = np.random.default_rng(5)
        x = rng.standard_normal((700, 16))
        c = rng.standard_normal((40, 16))
        x_sq = (x * x).sum(axis=1)
        for s in (slice(0, 256), slice(256, 512), slice(512, 700)):
            got = _kernels.assign_points(x[s], c, x_sq[s])
            np.testing.assert_array_equal(got, _assign_points_oracle(x[s], c))


class TestHungarian:
    def test_numpy_trivial_cases(self):
        assert _kernels.hungarian_min_cost(np.array([[3]], dtype=np.int64))[0] == 0
        # min-cost on a diagonal-cheap matrix is the identity
        cost = np.array([[0, 9], [9, 0]], dtype=np.int64)
        np.testing.assert_array_equal(_kernels.hungarian_min_cost(cost), [0, 1])

    def test_large_instance_objective_vs_greedy_bound(self):
        rng = np.random.default_rng(4)
        n = 60
        cost = rng.integers(0, 1000, size=(n, n)).astype(np.int64)
        sol = _kernels.hungarian_min_cost(cost)
        value = sum(cost[sol[j], j] for j in range(n))
        greedy = 0
        taken = set()
        for j in range(n):
            order = np.argsort(cost[:, j])
            for r in order:
                if int(r) not in taken:
                    taken.add(int(r))
                    greedy += int(cost[r, j])
                    break
        assert value <= greedy
