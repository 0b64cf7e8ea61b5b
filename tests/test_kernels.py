"""The hot kernels against brute-force oracles."""

import numpy as np
import pytest

from selflabel import _kernels


def _assign_points_oracle(x, c):
    """The assignment kernel's earlier expression, kept as the reference
    the in-place form must reproduce bit for bit."""
    d2 = (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * (x @ c.T)
        + (c * c).sum(axis=1)[None, :]
    )
    labels = np.argmin(d2, axis=1).astype(np.int64)
    mind2 = np.maximum(d2[np.arange(x.shape[0]), labels], 0.0)
    return labels, mind2


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

    @pytest.mark.parametrize("d", [3, 16, 32])
    def test_bitwise_equal_to_oracle(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((2000, d))
        x[1000:1300] = x[:300]  # duplicated rows, whose distances cancel
        c = np.concatenate([x[:50], rng.standard_normal((50, d))])
        x_sq = (x * x).sum(axis=1)
        want_labels, want_mind2 = _assign_points_oracle(x, c)
        for got_labels, got_mind2 in (
            _kernels.assign_points(x, c),
            _kernels.assign_points(x, c, x_sq),
        ):
            assert got_labels.dtype == np.int64
            np.testing.assert_array_equal(got_labels, want_labels)
            assert got_mind2.tobytes() == want_mind2.tobytes()

    def test_row_slices_of_cached_norms(self):
        # k-means caches the norms once and hands each chunk its slice
        rng = np.random.default_rng(5)
        x = rng.standard_normal((700, 16))
        c = rng.standard_normal((40, 16))
        x_sq = (x * x).sum(axis=1)
        for s in (slice(0, 256), slice(256, 512), slice(512, 700)):
            want_labels, want_mind2 = _assign_points_oracle(x[s], c)
            got_labels, got_mind2 = _kernels.assign_points(x[s], c, x_sq[s])
            np.testing.assert_array_equal(got_labels, want_labels)
            assert got_mind2.tobytes() == want_mind2.tobytes()


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
