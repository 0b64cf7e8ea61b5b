"""Contingency, Hungarian correspondence, relabeling, voting."""

import itertools

import numpy as np
import pytest

from selflabel import _parallel
from selflabel.clustering import Assignment
from selflabel.ensemble import (
    Correspondence,
    FusedLabels,
    contingency,
    correspond,
    fuse_pseudo_labels,
    joint_embeddings,
    majority_vote,
    relabel,
    vote_breakdown,
)
from selflabel.errors import ConfigError, NumericError
from selflabel.metrics import nmi


def assign(labels, k=None):
    labels = np.asarray(labels)
    return Assignment(labels=labels, k=k if k is not None else int(labels.max()) + 1)


def best_permutation_oracle(omega):
    """Exhaustive search over all permutations of the columns."""
    k = omega.shape[0]
    best_value, best_perm = -1, None
    for perm in itertools.permutations(range(k)):
        value = sum(omega[perm[j], j] for j in range(k))
        if value > best_value:
            best_value, best_perm = value, perm
    return best_value, best_perm


class TestContingency:
    def test_self_contingency_is_diagonal(self):
        a = assign([0, 0, 1, 2, 2, 2])
        omega = contingency(a, a)
        assert np.all(omega == np.diag([2, 1, 3]))

    def test_worked_example(self):
        ref = assign([0, 0, 1], k=2)
        cur = assign([1, 1, 0], k=2)
        np.testing.assert_array_equal(contingency(ref, cur), [[0, 2], [1, 0]])

    def test_matches_naive_counter(self):
        rng = np.random.default_rng(3)
        ref = assign(rng.integers(0, 8, size=1000), k=8)
        cur = assign(rng.integers(0, 8, size=1000), k=8)
        omega = contingency(ref, cur)
        naive = np.zeros((8, 8), dtype=np.int64)
        for r, c in zip(ref.labels, cur.labels):
            naive[r, c] += 1
        np.testing.assert_array_equal(omega, naive)
        assert omega.sum() == 1000

    def test_k_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            contingency(assign([0, 1], k=2), assign([0, 1, 2], k=3))


class TestCorrespond:
    def test_identity_preferred(self):
        corr = correspond(np.array([[5, 1], [2, 7]]))
        np.testing.assert_array_equal(corr.mapping, [0, 1])
        assert corr.objective == 12

    def test_swap_preferred(self):
        corr = correspond(np.array([[1, 5], [7, 2]]))
        np.testing.assert_array_equal(corr.mapping, [1, 0])
        assert corr.objective == 12

    def test_scaled_identity_any_k(self):
        for k in (1, 2, 5, 9):
            corr = correspond(7 * np.eye(k, dtype=np.int64))
            np.testing.assert_array_equal(corr.mapping, np.arange(k))

    def test_exhaustive_oracle_small_k(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            omega = rng.integers(0, 50, size=(k, k))
            corr = correspond(omega)
            oracle_value, _ = best_permutation_oracle(omega)
            achieved = sum(omega[corr.mapping[j], j] for j in range(k))
            assert achieved == corr.objective == oracle_value
            assert sorted(corr.mapping) == list(range(k))


class TestRelabel:
    def test_identity_mapping_is_noop(self):
        a = assign([0, 1, 0, 2])
        out = relabel(a, Correspondence(mapping=np.arange(3), objective=0))
        np.testing.assert_array_equal(out.labels, a.labels)

    def test_swap(self):
        a = assign([0, 1, 0], k=2)
        out = relabel(a, Correspondence(mapping=np.array([1, 0]), objective=0))
        np.testing.assert_array_equal(out.labels, [1, 0, 1])

    def test_partition_preserved_under_random_permutations(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            labels = rng.integers(0, k, size=200)
            perm = rng.permutation(k)
            out = relabel(assign(labels, k=k), Correspondence(mapping=perm, objective=0))
            assert nmi(out.labels, labels) == 1.0

    def test_non_permutation_rejected(self):
        with pytest.raises(ConfigError):
            relabel(assign([0, 1], k=2), Correspondence(mapping=np.array([0, 0]), objective=0))


class TestJointEmbeddings:
    def test_unit_rows_concatenate(self):
        za = np.array([[1.0, 0.0]])
        zv = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(joint_embeddings(za, zv), [[1.0, 0.0, 0.0, 1.0]])

    def test_per_modality_scale_removed(self):
        za = np.array([[2.0, 0.0]])
        zv = np.array([[0.0, 2.0]])
        np.testing.assert_allclose(joint_embeddings(za, zv), [[1.0, 0.0, 0.0, 1.0]])

    def test_rows_have_squared_norm_two(self):
        rng = np.random.default_rng(9)
        zj = joint_embeddings(rng.standard_normal((3, 4)), rng.standard_normal((3, 6)))
        np.testing.assert_allclose((zj**2).sum(axis=1), 2.0, atol=1e-12)

    def test_zero_norm_row_rejected_with_row_index(self):
        za = np.ones((3, 2))
        za[1] = 0.0
        with pytest.raises(NumericError, match="^zero-norm embedding row 1$"):
            joint_embeddings(za, np.ones((3, 2)))
        # the visual block names its row the same way
        with pytest.raises(NumericError, match="^zero-norm embedding row 1$"):
            joint_embeddings(np.ones((3, 2)), za)


class TestMajorityVote:
    def test_two_against_one(self):
        out = majority_vote(assign([5], k=6), assign([2], k=6), assign([2], k=6))
        assert out.labels[0] == 2

    def test_all_distinct_reference_wins(self):
        out = majority_vote(assign([1], k=4), assign([2], k=4), assign([3], k=4))
        assert out.labels[0] == 1

    def test_unanimity(self):
        a = assign([0, 1, 2, 1])
        out = majority_vote(a, a, a)
        np.testing.assert_array_equal(out.labels, a.labels)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        ref = assign(rng.integers(0, 5, 100), k=5)
        a = assign(rng.integers(0, 5, 100), k=5)
        b = assign(rng.integers(0, 5, 100), k=5)
        f = majority_vote(ref, a, b)
        again = majority_vote(f, f, f)
        np.testing.assert_array_equal(again.labels, f.labels)

    def test_output_labels_subset_of_inputs(self):
        rng = np.random.default_rng(2)
        ref = assign(rng.integers(0, 6, 300), k=6)
        a = assign(rng.integers(0, 6, 300), k=6)
        b = assign(rng.integers(0, 6, 300), k=6)
        f = majority_vote(ref, a, b)
        pool = set(ref.labels) | set(a.labels) | set(b.labels)
        assert set(f.labels.tolist()) <= pool

    def test_breakdown_counts(self):
        ref = assign([0, 0, 0, 1], k=4)
        a = assign([0, 0, 2, 2], k=4)
        b = assign([0, 1, 2, 3], k=4)
        counts = vote_breakdown(ref, a, b)
        assert counts == {"unanimous": 1, "majority_2_1": 2, "all_distinct": 1}
        assert sum(counts.values()) == 4


def separated_embeddings(n_clusters, per_cluster, dim, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, dim)) * 8.0
    x = np.repeat(centers, per_cluster, axis=0) + noise * rng.standard_normal(
        (n_clusters * per_cluster, dim)
    )
    return x, np.repeat(np.arange(n_clusters), per_cluster)


class TestFusePseudoLabels:
    def test_identical_modalities_agree_everywhere(self):
        za, truth = separated_embeddings(6, 20, 4, seed=3)
        result = fuse_pseudo_labels(za, za.copy(), 6, restarts=8, seed=1)
        assert nmi(result.fused.labels, result.audio.labels) == 1.0
        assert nmi(result.fused.labels, result.joint.labels) == 1.0
        assert nmi(result.fused.labels, truth) == 1.0

    def test_noise_modality_does_not_drag_fusion_below_itself(self):
        za, truth = separated_embeddings(5, 25, 4, seed=7)
        rng = np.random.default_rng(8)
        zv = rng.standard_normal(za.shape)  # pure noise modality
        result = fuse_pseudo_labels(za, zv, 5, restarts=8, seed=2)
        noise_nmi = nmi(result.visual.labels, truth)
        fused_nmi = nmi(result.fused.labels, truth)
        assert fused_nmi >= noise_nmi

    def test_determinism(self):
        za, _ = separated_embeddings(4, 15, 3, seed=9)
        zv, _ = separated_embeddings(4, 15, 3, seed=10)
        r1 = fuse_pseudo_labels(za, zv, 4, restarts=5, seed=11)
        r2 = fuse_pseudo_labels(za, zv, 4, restarts=5, seed=11)
        np.testing.assert_array_equal(r1.fused.labels, r2.fused.labels)
        np.testing.assert_array_equal(r1.joint.labels, r2.joint.labels)

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_views_side_by_side_equal_serial(self, monkeypatch, restarts):
        # at 3 restarts a view's kmeans forks again inside its ordered_map share
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        za, _ = separated_embeddings(6, 20, 4, seed=12)
        zv, _ = separated_embeddings(6, 20, 3, seed=13)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(_parallel, "CPUS", cpus)
            results.append(fuse_pseudo_labels(za, zv, 6, restarts=restarts, seed=14))
        serial, forked = results
        for name in FusedLabels._fields:
            a, b = getattr(serial, name), getattr(forked, name)
            assert a.k == b.k and a.labels.tobytes() == b.labels.tobytes(), name
            assert not b.labels.flags.writeable, name
