"""k-means, WSS, K sweeps, and elbow selection."""

import inspect
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selflabel import _parallel, clustering
from selflabel._kernels import assign_points, sq_residuals
from selflabel.clustering import (
    Assignment,
    ClusterSettings,
    WssCurve,
    kmeans,
    read_assignment,
    read_wss_curve,
    select_k_elbow,
    sweep_k,
    write_assignment,
    write_wss_curve,
)
from selflabel.ensemble import fuse_pseudo_labels
from selflabel.errors import ConfigError, DataError

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def blobs(n_clusters, per_cluster, dim, spread, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, dim)) * 6.0
    x = np.repeat(centers, per_cluster, axis=0) + spread * rng.standard_normal(
        (n_clusters * per_cluster, dim)
    )
    labels = np.repeat(np.arange(n_clusters), per_cluster)
    return x, labels


class TestKmeansWorkedExamples:
    def test_single_centroid_is_mean(self):
        c, a, w = kmeans(FOUR_POINTS, 1, restarts=3, seed=0)
        np.testing.assert_allclose(c, [[5.0, 0.5]])
        assert w == pytest.approx(101.0)

    def test_two_clusters_exhaustive_oracle(self):
        # oracle: brute force over all 2^4 assignments, best W with optimal centroids
        best = np.inf
        for labels in itertools.product([0, 1], repeat=4):
            labels = np.asarray(labels)
            total = 0.0
            for k in (0, 1):
                pts = FOUR_POINTS[labels == k]
                if len(pts):
                    total += ((pts - pts.mean(axis=0)) ** 2).sum()
            best = min(best, total)
        assert best == pytest.approx(1.0)

        c, a, w = kmeans(FOUR_POINTS, 2, restarts=10, seed=0)
        assert w == pytest.approx(best)
        sorted_c = c[np.argsort(c[:, 0])]
        np.testing.assert_allclose(sorted_c, [[0.0, 0.5], [10.0, 0.5]])

    def test_k_equals_n_zero_wss(self):
        _, _, w = kmeans(FOUR_POINTS, 4, restarts=5, seed=0)
        assert w == 0.0

    def test_k_above_n_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(FOUR_POINTS, 5, seed=0)


class TestKmeansContracts:
    def test_lloyd_monotone_wss(self):
        x, _ = blobs(6, 40, 5, 2.5, seed=3)
        _, _, _, histories = kmeans(x, 6, restarts=5, seed=4, return_history=True)
        for history in histories:
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier * (1.0 + 1e-9)

    def test_returned_w_equals_wss_recomputation(self):
        x, _ = blobs(5, 30, 4, 1.5, seed=9)
        c, a, w = kmeans(x, 5, restarts=4, seed=2)
        assert w == float(sq_residuals(x, c, a.labels).sum())

    def test_float32_assignment_keeps_float64_centroids_and_w(self):
        # the assignment passes run in float32; the outputs are float64 and
        # the labels are those of a float64 pass over the final centroids
        x, _ = blobs(6, 400, 16, 1.0, seed=12)  # two assignment chunks
        c, a, w = kmeans(x, 6, restarts=2, seed=5)
        assert c.dtype == np.float64
        assert w == float(sq_residuals(x, c, a.labels).sum())
        labels64 = assign_points(x, c, (x * x).sum(axis=1))
        np.testing.assert_array_equal(a.labels, labels64)

    def test_worker_count_invariance_bitwise(self, monkeypatch):
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        x, _ = blobs(7, 500, 8, 2.0, seed=5)  # several chunks worth of rows
        results = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(_parallel, "CPUS", cpus)
            results.append(kmeans(x, 7, restarts=3, seed=6))
        for c, a, w in results[1:]:
            np.testing.assert_array_equal(c, results[0][0])
            np.testing.assert_array_equal(a.labels, results[0][1].labels)
            assert w == results[0][2]

    def test_determinism(self):
        x, _ = blobs(4, 25, 3, 1.0, seed=1)
        r1 = kmeans(x, 4, restarts=6, seed=11)
        r2 = kmeans(x, 4, restarts=6, seed=11)
        np.testing.assert_array_equal(r1[0], r2[0])
        np.testing.assert_array_equal(r1[1].labels, r2[1].labels)
        assert r1[2] == r2[2]

    def test_row_permutation_induces_same_partition(self):
        x, _ = blobs(4, 25, 3, 1.0, seed=8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(x))
        _, a, _ = kmeans(x, 4, restarts=8, seed=3)
        _, a_perm, _ = kmeans(x[perm], 4, restarts=8, seed=3)
        # compare partitions as sets of frozensets of row indices
        def partition(labels, order):
            groups = {}
            for row, lab in zip(order, labels):
                groups.setdefault(lab, set()).add(row)
            return frozenset(frozenset(g) for g in groups.values())

        assert partition(a.labels, range(len(x))) == partition(a_perm.labels, perm)

    def test_empty_cluster_repair_keeps_k(self):
        # two far blobs but K=4: two centroids must be repaired onto points
        x = np.vstack([np.zeros((20, 2)), np.ones((20, 2)) * 50.0])
        c, a, w = kmeans(x, 4, restarts=3, seed=0)
        assert a.k == 4
        assert c.shape == (4, 2)
        assert np.all(np.isfinite(c))


def _kmeanspp_oracle(x, k, rng):
    """k-means++ picks by the direct distance form and ``rng.choice``: the
    earlier seeding code, kept as the reference the GEMV form must match."""
    n = x.shape[0]
    idx = int(rng.integers(n))
    picks = [idx]
    chosen = np.zeros(n, dtype=bool)
    chosen[idx] = True
    diff = x - x[idx]
    d2 = (diff * diff).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.nonzero(~chosen)[0]
            idx = int(remaining[rng.integers(remaining.size)])
        picks.append(idx)
        chosen[idx] = True
        diff = x - x[idx]
        np.minimum(d2, (diff * diff).sum(axis=1), out=d2)
    return np.asarray(picks)


def _seed_picks(x, k, seed):
    x_sq = (x * x).sum(axis=1)
    return clustering._kmeanspp_init(x, k, np.random.default_rng([seed]), x_sq)


class TestKmeansppSeeding:
    @pytest.mark.parametrize("d", [16, 32])
    def test_picks_match_direct_form(self, d):
        x, _ = blobs(100, 20, d, 1.0, seed=d)
        for seed in range(10):
            want = _kmeanspp_oracle(x, 100, np.random.default_rng([seed]))
            np.testing.assert_array_equal(_seed_picks(x, 100, seed), want)

    def test_duplicate_rows_match_and_are_never_repicked(self):
        # 5 distinct rows x 6 copies and k=8: copies of a seed weigh exactly
        # 0, and after 5 picks the uniform fallback takes over
        rng = np.random.default_rng(12)
        x = np.repeat(rng.standard_normal((5, 16)) * 3.0, 6, axis=0)
        for seed in range(50):
            picks = _seed_picks(x, 8, seed)
            np.testing.assert_array_equal(
                picks, _kmeanspp_oracle(x, 8, np.random.default_rng([seed]))
            )
            assert len(set(picks.tolist())) == 8
            assert len({x[i].tobytes() for i in picks[:5]}) == 5

    def test_history_is_optional_and_changes_nothing(self):
        x, _ = blobs(6, 40, 5, 2.5, seed=3)
        c, a, w = kmeans(x, 6, restarts=3, seed=4)
        c_h, a_h, w_h, histories = kmeans(x, 6, restarts=3, seed=4, return_history=True)
        assert c.tobytes() == c_h.tobytes()
        np.testing.assert_array_equal(a.labels, a_h.labels)
        assert w == w_h
        assert len(histories) == 3 and all(histories)


@st.composite
def _matrices_with_duplicates(draw):
    """A small matrix whose rows are drawn, with repeats, from a few distinct
    rows, and a k no larger than its row count."""
    d = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, 8))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    base = np.asarray(draw(st.lists(values, min_size=distinct * d, max_size=distinct * d)))
    rows = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=40))
    x = base.reshape(distinct, d)[rows]
    k = draw(st.integers(1, len(rows)))
    return x, k


class TestKmeansProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=_matrices_with_duplicates(), seed=st.integers(0, 2**16))
    # 9 identical rows: under 4-row chunks the ninth row used to be a chunk
    # of its own, whose GEMV product rounds unlike the GEMM of the others
    @example(data=(np.tile([0, 0, 1.6720408417777435, 609.9014010058743], (9, 1)), 2), seed=0)
    def test_labels_wss_and_worker_invariance(self, data, seed):
        x, k = data
        c, a, w = kmeans(x, k, restarts=2, seed=seed)
        assert a.labels.min() >= 0 and a.labels.max() < k
        assert w == float(sq_residuals(x, c, a.labels).sum())
        assert w >= 0.0
        # chunks of 4 rows, and forked restarts at any row count, so the two
        # processes really split the restarts over chunked assignments
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "_CHUNK_ROWS", 4)
            mp.setattr(_parallel, "FORK_MIN_ROWS", 0)
            mp.setattr(_parallel, "CPUS", 1)
            chunked = kmeans(x, k, restarts=2, seed=seed)
            mp.setattr(_parallel, "CPUS", 2)
            pooled = kmeans(x, k, restarts=2, seed=seed)
        for got in (chunked, pooled):
            assert got[0].tobytes() == c.tobytes()
            np.testing.assert_array_equal(got[1].labels, a.labels)
            assert got[2] == w


def test_capped_lloyd_returns_the_assignment_of_its_centroids(monkeypatch):
    # at a cap of one iteration no restart converges, so each ends in the
    # for-else branch, which assigns the points to the updated centroids
    x, _ = blobs(6, 40, 5, 2.5, seed=3)
    _, _, converged_w = kmeans(x, 6, restarts=3, seed=4)
    monkeypatch.setattr(clustering, "MAX_ITERS", 1)
    monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(_parallel, "CPUS", cpus)
        runs.append(kmeans(x, 6, restarts=3, seed=4))
    c, a, w = runs[0]
    nearest = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    np.testing.assert_array_equal(a.labels, nearest)
    assert w == float(sq_residuals(x, c, a.labels).sum())
    assert w > converged_w
    pooled_c, pooled_a, pooled_w = runs[1]
    assert pooled_c.tobytes() == c.tobytes()
    np.testing.assert_array_equal(pooled_a.labels, a.labels)
    assert pooled_w == w


def test_library_defaults_come_from_cluster_settings():
    # kmeans and fusion default to the setting, the sweep to its constant;
    # neither the sweep's count nor the iteration cap is a parameter
    for fn in (kmeans, fuse_pseudo_labels):
        assert inspect.signature(fn).parameters["restarts"].default == ClusterSettings().restarts
    assert inspect.signature(sweep_k).parameters["restarts"].default == clustering.SWEEP_RESTARTS
    for fn in (kmeans, sweep_k, fuse_pseudo_labels):
        assert "max_iters" not in inspect.signature(fn).parameters, fn


class TestWss:
    """The squared residuals whose sum is k-means' W."""

    def test_exact_points_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert sq_residuals(x, x.copy(), np.array([0, 1])).sum() == 0.0

    def test_single_offset_point(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        c = np.array([[0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(sq_residuals(x, c, np.array([0, 1])), [0.0, 4.0])

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 3))
        c = rng.standard_normal((5, 3))
        labels = rng.integers(0, 5, size=40)
        naive = 0.0
        for i in range(40):
            for j in range(3):
                naive += (x[i, j] - c[labels[i], j]) ** 2
        assert sq_residuals(x, c, labels).sum() == pytest.approx(naive, rel=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Assignment(labels=np.array([0, 5]), k=2)

    def test_callers_labels_stay_writable(self):
        caller = np.array([0, 1, 1])
        a = Assignment(caller, 2)
        assert caller.flags.writeable
        assert not a.labels.flags.writeable
        caller[0] = 1
        np.testing.assert_array_equal(a.labels, [0, 1, 1])

    def test_pickle_round_trip_keeps_labels_read_only(self):
        # as an assignment comes back from a forked k-means restart
        a = Assignment(labels=np.array([0, 2, 1, 2]), k=3)
        back = pickle.loads(pickle.dumps(a))
        np.testing.assert_array_equal(back.labels, a.labels)
        assert back.k == 3
        assert not back.labels.flags.writeable


class TestSweepAndElbow:
    def test_grid_of_n_gives_zero(self):
        x, _ = blobs(3, 4, 2, 0.5, seed=2)
        curve = sweep_k(x, [len(x)], restarts=2, seed=0)
        assert curve.wss[0] == 0.0

    def test_wss_non_increasing_on_separated_blobs(self):
        x, _ = blobs(5, 30, 4, 0.3, seed=6)
        curve = sweep_k(x, list(range(2, 11)), restarts=10, seed=1)
        for earlier, later in zip(curve.wss, curve.wss[1:]):
            assert later <= earlier * (1.0 + 1e-9)

    def test_sweep_determinism(self):
        x, _ = blobs(4, 20, 3, 0.5, seed=7)
        c1 = sweep_k(x, [2, 4, 6], restarts=3, seed=5)
        c2 = sweep_k(x, [2, 4, 6], restarts=3, seed=5)
        np.testing.assert_array_equal(c1.wss, c2.wss)

    def test_each_k_matches_its_own_kmeans(self, monkeypatch):
        # the sweep runs every (K, restart) pair in one map; each K's W is
        # still that of kmeans at the seed the sweep gives that K
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        x, _ = blobs(6, 40, 3, 1.0, seed=9)
        ks = [2, 3, 5, 8]
        curve = sweep_k(x, ks, restarts=3, seed=[4, 1])
        for k, w in zip(ks, curve.wss):
            assert w == kmeans(x, k, 3, seed=[4, 1, k])[2]

    def test_bad_k_rejected_before_any_restart(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a restart ran")

        monkeypatch.setattr(clustering, "_restart", fail)
        x, _ = blobs(2, 5, 2, 0.5, seed=3)
        with pytest.raises(ConfigError, match=r"k must be in \[1, 10\], got 11"):
            sweep_k(x, [2, 11])

    def test_elbow_worked_example(self):
        # oracle: hand evaluation of the normalized chord-distance formula
        curve = WssCurve(ks=np.arange(1, 8), wss=np.array([100.0, 60, 30, 10, 9, 8, 7]))
        k, scores = select_k_elbow(curve)
        assert k == 4
        u = (curve.ks - 1) / 6.0
        v = (curve.wss - 7.0) / 93.0
        expected = np.abs(u + v - 1.0) / np.sqrt(2.0)
        np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_linear_curve_returns_smallest_k(self):
        curve = WssCurve(ks=np.array([2, 4, 6, 8]), wss=np.array([80.0, 60.0, 40.0, 20.0]))
        k, scores = select_k_elbow(curve)
        assert k == 2
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)

    def test_planted_knee_recovered(self):
        # criterion: 20 synthetic knee curves, selection within one grid step
        rng = np.random.default_rng(42)
        hits = 0
        ks = np.arange(2, 22)
        for trial in range(20):
            knee_idx = int(rng.integers(3, 16))
            steep = rng.uniform(20.0, 40.0)
            shallow = rng.uniform(0.2, 1.0)
            drops = np.where(np.arange(len(ks) - 1) < knee_idx, steep, shallow)
            noise = rng.uniform(0.0, 0.05, size=len(ks) - 1)
            w = 1000.0 - np.concatenate([[0.0], np.cumsum(drops + noise)])
            k_sel, _ = select_k_elbow(WssCurve(ks=ks, wss=w))
            if abs(int(np.nonzero(ks == k_sel)[0][0]) - knee_idx) <= 1:
                hits += 1
        assert hits >= 18

    def test_short_curve_rejected(self):
        with pytest.raises(ConfigError):
            select_k_elbow(WssCurve(ks=np.array([1, 2]), wss=np.array([2.0, 1.0])))


class TestAssignmentFiles:
    def test_round_trip(self, tmp_path):
        ids = [f"s{i}" for i in range(6)]
        a = Assignment(labels=np.array([0, 1, 2, 1, 0, 2]), k=3)
        write_assignment(tmp_path / "a.tsv", ids, a)
        a2 = read_assignment(tmp_path / "a.tsv", ids, k=3)
        np.testing.assert_array_equal(a2.labels, a.labels)
        assert a2.k == 3
        # the file must list the given ids, in their order
        with pytest.raises(DataError, match="does not cover the corpus sample ids in order"):
            read_assignment(tmp_path / "a.tsv", ids[::-1], k=3)

    def test_curve_round_trip(self, tmp_path):
        curve = WssCurve(ks=np.array([2, 3, 5]), wss=np.array([10.5, 7.25, 1.125]))
        write_wss_curve(tmp_path / "w.tsv", curve)
        again = read_wss_curve(tmp_path / "w.tsv")
        np.testing.assert_array_equal(again.ks, curve.ks)
        np.testing.assert_array_equal(again.wss, curve.wss)
