"""The hot kernels against brute-force oracles."""

import numpy as np
import pytest

from selflabel import _kernels


class TestAssignPoints:
    def test_numpy_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        c = rng.standard_normal((7, 4))
        labels, mind2 = _kernels.assign_points(x, c)
        for i in range(50):
            dists = ((x[i] - c) ** 2).sum(axis=1)
            assert labels[i] == int(np.argmin(dists))
            assert mind2[i] == pytest.approx(dists.min(), rel=1e-10)


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
