"""Encoder forward pass, losses, gradients, and training loops."""

import math

import numpy as np
import pytest

from selflabel.clustering import kmeans
from selflabel.encoder import (
    ClassifierHead,
    ClassifierConfig,
    ContrastiveConfig,
    EncoderParams,
    _classifier_step,
    _contrastive_step,
    _flat,
    _NtXent,
    _smoothed_ce,
    add_noise,
    classifier_loss,
    contrastive_loss,
    embed,
    grad_check,
    init_encoder,
    init_head,
    pack_params,
    read_checkpoint,
    train_classifier,
    train_contrastive,
    unpack_params,
    write_checkpoint,
)
from selflabel.errors import ConfigError, NumericError, TrainingError
from selflabel.metrics import nmi
from selflabel.synthdata import SynthConfig, generate_corpus


def softmax_oracle(logits):
    e = [math.exp(v) for v in logits]
    s = sum(e)
    return [v / s for v in e]


def posteriors(head, z):
    """Softmax posteriors of ``head`` at embedding ``z``, read off
    classifier_loss: for a batch of B rows the gradient is
    (posterior - target) / B, and with epsilon 0 the target is one-hot."""
    logits = np.atleast_2d(z) @ head.w.T + head.b
    _, grad = classifier_loss(logits, np.zeros(len(logits), dtype=np.int64), 0.0)
    p = grad * len(logits)
    p[:, 0] += 1.0
    return p[0]


def smoothed_target(label, k, epsilon):
    """The target distribution classifier_loss trains one row towards.

    At zero logits the posterior is uniform, so the gradient of a one-row
    batch, posterior - target, gives the target back.
    """
    _, grad = classifier_loss(np.zeros((1, k)), np.array([label]), epsilon)
    return np.full(k, 1.0 / k) - grad[0]


def contrastive_oracle(z, tau):
    """Straight nested-loop evaluation of the two-view loss."""
    z = np.asarray(z, dtype=np.float64)
    m = z.shape[0] // 2

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    def row(i, j):  # sample i in [0, m), view j in {0, 1}
        return z[i + m * j]

    total = 0.0
    for i in range(m):
        for j in range(2):
            num = math.exp(cos(row(i, 0), row(i, 1)) / tau)
            den = 0.0
            for k in range(m):
                for l in range(2):
                    if k != i and l != j:
                        den += math.exp(cos(row(i, j), row(k, l)) / tau)
            total += -math.log(num / den)
    return total / (2 * m)


class TestEmbed:
    def test_zero_params_zero_output(self):
        params = EncoderParams(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.zeros(2))
        np.testing.assert_array_equal(embed(params, np.ones(3)), np.zeros(2))

    def test_identity_slices_give_truncated_tanh(self):
        params = EncoderParams(np.eye(5), np.zeros(5), np.eye(3, 5), np.zeros(3))
        x = np.array([0.3, -1.2, 0.8, 2.0, -0.5])
        np.testing.assert_allclose(embed(params, x), np.tanh(x)[:3], atol=1e-15)

    def test_matches_independent_reimplementation(self):
        # oracle: a by-hand two-layer evaluation without shared code
        rng = np.random.default_rng(2)
        params = init_encoder(6, 9, 4, rng)
        x = rng.standard_normal(6)
        by_hand = params.w2 @ np.tanh(params.w1 @ x + params.b1) + params.b2
        np.testing.assert_allclose(embed(params, x), by_hand, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        params = init_encoder(5, 7, 3, rng)
        x = rng.standard_normal((4, 5))
        batch = embed(params, x)
        for i in range(4):
            np.testing.assert_allclose(batch[i], embed(params, x[i]), atol=1e-14)

    def test_non_finite_input_rejected(self):
        params = init_encoder(3, 4, 2, np.random.default_rng(0))
        with pytest.raises(NumericError):
            embed(params, np.array([1.0, np.nan, 0.0]))


class TestContrastiveLoss:
    def test_identical_embeddings_m2_zero_loss(self):
        z = np.tile([0.4, -0.2, 0.9], (4, 1))
        loss, _ = contrastive_loss(z, tau=0.1)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_identical_embeddings_m3_ln2(self):
        for tau in (0.05, 0.1, 1.0):
            z = np.tile([1.0, 2.0], (6, 1))
            loss, _ = contrastive_loss(z, tau=tau)
            assert loss == pytest.approx(math.log(2.0), abs=1e-9)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((8, 6))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        loss, _ = contrastive_loss(z, tau=0.1)
        assert loss == pytest.approx(contrastive_oracle(z, 0.1), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        z0 = rng.standard_normal((8, 5))

        def f(theta):
            loss, grad = contrastive_loss(theta.reshape(8, 5), 0.1)
            return loss, grad.ravel()

        assert grad_check(f, z0.ravel()) < 1e-4

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((10, 4))
        l1, _ = contrastive_loss(z, 0.2)
        l2, _ = contrastive_loss(z * 31.7, 0.2)
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_zero_norm_rejected(self):
        z = np.ones((4, 3))
        z[2] = 0.0
        with pytest.raises(NumericError):
            contrastive_loss(z, 0.1)

    def test_loss_can_be_negative_in_cross_variant(self):
        # positive pair absent from the denominator, so no sign guarantee:
        # two samples with aligned views, orthogonal across samples
        z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        loss, _ = contrastive_loss(z, 0.1)
        assert loss < 0.0


class TestPosteriorsAndTargets:
    def test_zero_head_uniform(self):
        head = ClassifierHead(np.zeros((5, 3)), np.zeros(5))
        p = posteriors(head, np.array([0.3, -0.4, 1.0]))
        np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-15)

    def test_saturated_logit_one_hot(self):
        head = ClassifierHead(np.array([[1000.0], [0.0], [0.0]]), np.zeros(3))
        p = posteriors(head, np.array([1.0]))
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)

    def test_three_logit_worked_example(self):
        # oracle: direct softmax evaluation at high precision
        head = ClassifierHead(np.eye(3), np.zeros(3))
        p = posteriors(head, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(p, softmax_oracle([1.0, 2.0, 3.0]), atol=1e-15)
        np.testing.assert_allclose(p, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(6)
        head = ClassifierHead(rng.standard_normal((7, 4)), rng.standard_normal(7))
        for _ in range(50):
            p = posteriors(head, rng.standard_normal(4) * 10)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_smoothing_worked_example(self):
        q = smoothed_target(3, 10, 0.1)
        assert q[3] == pytest.approx(0.91)
        others = np.delete(q, 3)
        np.testing.assert_allclose(others, 0.01)

    def test_smoothing_zero_epsilon_one_hot(self):
        # a posterior saturated on the label is exactly one-hot, so the
        # gradient vanishes exactly only if the target is exactly one-hot
        loss, grad = classifier_loss(np.array([[0.0, 0.0, 1000.0, 0.0]]), np.array([2]), 0.0)
        np.testing.assert_array_equal(grad, np.zeros((1, 4)))
        assert loss == 0.0

    def test_smoothing_binary_case(self):
        q = smoothed_target(0, 2, 0.5)
        np.testing.assert_allclose(q, [0.75, 0.25])

    def test_smoothing_label_out_of_range(self):
        with pytest.raises(ConfigError):
            classifier_loss(np.zeros((1, 4)), np.array([4]), 0.1)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        logits = np.array([[0.0, 500.0, 0.0]])
        loss, _ = classifier_loss(logits, np.array([1]), 0.0)
        assert loss == 0.0

    def test_uniform_posterior_binary_ln2(self):
        loss, _ = classifier_loss(np.zeros((1, 2)), np.array([0]), 0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_is_posterior_minus_target(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal(5)
        target = np.full(5, 0.1 / 5)
        target[2] += 0.9
        _, grad = classifier_loss(logits[None, :], np.array([2]), 0.1)
        p = softmax_oracle(logits.tolist())
        np.testing.assert_allclose(grad[0], np.array(p) - target, atol=1e-12)

    def test_batch_gradient_is_mean_of_rows(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((4, 6)) * 2.0
        labels = np.array([0, 5, 2, 2])
        loss, grad = classifier_loss(logits, labels, 0.1)
        rows = [classifier_loss(logits[i : i + 1], labels[i : i + 1], 0.1) for i in range(4)]
        assert loss == pytest.approx(np.mean([r[0] for r in rows]), abs=1e-12)
        np.testing.assert_allclose(grad, np.vstack([r[1] for r in rows]) / 4, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        labels = np.array([1, 4, 0])

        def f(theta):
            loss, grad = classifier_loss(theta.reshape(3, 5), labels, 0.1)
            return loss, grad.ravel()

        assert grad_check(f, rng.standard_normal(15)) < 1e-4

    def test_saturated_posterior_never_nan(self):
        logits = np.array([[-1000.0, 1000.0]])
        loss, grad = classifier_loss(logits, np.array([0]), 0.0)
        assert np.isfinite(loss) and loss > 0
        assert np.all(np.isfinite(grad))

    def test_hits_count_rows_whose_label_logit_is_the_max(self):
        def hits(logits, labels):
            n, k = logits.shape
            return _smoothed_ce(logits.T.copy(), labels, 0.1, np.empty((4, n)), np.ones(k))[1]

        rng = np.random.default_rng(18)
        logits = rng.standard_normal((40, 6))
        labels = rng.integers(0, 6, size=40)
        labels[:12] = np.argmax(logits[:12], axis=1)
        assert hits(logits, labels) == np.count_nonzero(np.argmax(logits, axis=1) == labels)
        # row 0's label ties an earlier class at the max, which argmax picks
        tied = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        labels = np.array([2, 0, 0])
        assert np.count_nonzero(np.argmax(tied, axis=1) == labels) == 1
        assert hits(tied, labels) == 2


class TestGradCheckHarness:
    def test_linear_loss_exact(self):
        w = np.array([1.5, -2.0, 0.25])

        def f(theta):
            return float(w @ theta), w

        assert grad_check(f, np.array([0.3, 0.4, -0.1])) < 1e-10

    def test_end_to_end_classifier_gradients(self):
        rng = np.random.default_rng(12)
        in_dim, hidden, embed_dim, k, batch = 4, 5, 3, 3, 6
        x = rng.standard_normal((batch, in_dim))
        labels = rng.integers(0, k, size=batch)

        def f(theta):
            params, head = unpack_params(theta, in_dim, hidden, embed_dim, k)
            hid = np.tanh(x @ params.w1.T + params.b1)
            z = hid @ params.w2.T + params.b2
            logits = z @ head.w.T + head.b
            loss, dlogits = classifier_loss(logits, labels, 0.1)
            dhw = dlogits.T @ z
            dhb = dlogits.sum(0)
            dz = dlogits @ head.w
            dw2 = dz.T @ hid
            db2 = dz.sum(0)
            dh = dz @ params.w2
            dpre = dh * (1 - hid * hid)
            dw1 = dpre.T @ x
            db1 = dpre.sum(0)
            grad = np.concatenate(
                [dw1.ravel(), db1, dw2.ravel(), db2, dhw.ravel(), dhb]
            )
            return loss, grad

        params = init_encoder(in_dim, hidden, embed_dim, rng)
        head = ClassifierHead(rng.standard_normal((k, embed_dim)), rng.standard_normal(k))
        theta = pack_params(params, head)
        assert grad_check(f, theta) < 1e-4

    def test_contrastive_through_encoder(self):
        rng = np.random.default_rng(13)
        in_dim, hidden, embed_dim, m = 4, 5, 3, 3
        x = rng.standard_normal((2 * m, in_dim))

        def f(theta):
            params, _ = unpack_params(theta, in_dim, hidden, embed_dim)
            hid = np.tanh(x @ params.w1.T + params.b1)
            z = hid @ params.w2.T + params.b2
            loss, dz = contrastive_loss(z, 0.2)
            dw2 = dz.T @ hid
            db2 = dz.sum(0)
            dh = dz @ params.w2
            dpre = dh * (1 - hid * hid)
            dw1 = dpre.T @ x
            db1 = dpre.sum(0)
            return loss, np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])

        theta = pack_params(init_encoder(in_dim, hidden, embed_dim, rng))
        assert grad_check(f, theta) < 1e-4

    # The two above are hand-written references; the two below check the
    # step functions the training loops run, on their flat pack_params vector.

    def test_production_classifier_step(self):
        rng = np.random.default_rng(14)
        in_dim, hidden, embed_dim, k, batch = 4, 5, 3, 3, 6
        x = rng.standard_normal((batch, in_dim))
        labels = rng.integers(0, k, size=batch)
        params = init_encoder(in_dim, hidden, embed_dim, rng)
        head = ClassifierHead(rng.standard_normal((k, embed_dim)), rng.standard_normal(k))
        # buffers sized for a larger batch, so this is a trailing partial one
        flat, grad, arrays, grads, bufs = _flat(params, head, batch + 2)
        theta = pack_params(params, head)
        np.testing.assert_array_equal(flat, theta)

        def f(theta):
            flat[:] = theta
            loss, _ = _classifier_step(arrays, grads, bufs, x, labels, 0.1)
            return loss, grad.copy()

        assert grad_check(f, theta) < 1e-4

    def test_classifier_step_in_float32(self):
        # the step classifier training runs: float32 buffers stay float32,
        # and the gradient is the float64 step's to float32 precision
        rng = np.random.default_rng(16)
        in_dim, hidden, embed_dim, k, batch = 6, 8, 4, 5, 12
        x = rng.standard_normal((batch, in_dim))
        labels = rng.integers(0, k, size=batch)
        params = init_encoder(in_dim, hidden, embed_dim, rng)
        head = init_head(k, embed_dim, rng)
        results = {}
        for dtype in (np.float64, np.float32):
            flat, grad, arrays, grads, bufs = _flat(params, head, batch, dtype)
            loss, hits = _classifier_step(arrays, grads, bufs, x.astype(dtype), labels, 0.1)
            for a in [flat, grad] + arrays + grads + bufs:
                assert a.dtype == dtype
            results[dtype] = loss, hits, grad
        loss64, hits64, grad64 = results[np.float64]
        loss32, hits32, grad32 = results[np.float32]
        assert hits32 == hits64
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        scale = np.abs(grad64).max()
        np.testing.assert_allclose(grad32, grad64, rtol=0, atol=scale * 1e-5)

    def test_contrastive_step_in_float32(self):
        # the step contrastive training runs: float32 buffers stay float32,
        # and the gradient is the float64 step's to float32 precision
        rng = np.random.default_rng(17)
        in_dim, hidden, embed_dim, m = 6, 8, 4, 6
        x = rng.standard_normal((2 * m, in_dim))
        params = init_encoder(in_dim, hidden, embed_dim, rng)
        results = {}
        for dtype in (np.float64, np.float32):
            flat, grad, arrays, grads, bufs = _flat(params, None, 2 * m, dtype)
            loss_fn = _NtXent(m, embed_dim, 0.2, dtype)
            loss = _contrastive_step(arrays, grads, bufs, x.astype(dtype), loss_fn)
            for a in [flat, grad] + arrays + grads + bufs:
                assert a.dtype == dtype
            results[dtype] = loss, grad
        loss64, grad64 = results[np.float64]
        loss32, grad32 = results[np.float32]
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        scale = np.abs(grad64).max()
        np.testing.assert_allclose(grad32, grad64, rtol=0, atol=scale * 1e-5)

    def test_production_contrastive_step(self):
        rng = np.random.default_rng(15)
        in_dim, hidden, embed_dim, m = 4, 5, 3, 3
        x = rng.standard_normal((2 * m, in_dim))
        params = init_encoder(in_dim, hidden, embed_dim, rng)
        flat, grad, arrays, grads, bufs = _flat(params, None, 2 * m)
        theta = pack_params(params)
        np.testing.assert_array_equal(flat, theta)
        loss_fn = _NtXent(m, embed_dim, 0.2)

        def f(theta):
            flat[:] = theta
            return _contrastive_step(arrays, grads, bufs, x, loss_fn), grad.copy()

        assert grad_check(f, theta) < 1e-4


def tiny_corpus():
    return generate_corpus(
        SynthConfig(
            num_identities=8,
            groups_per_identity=2,
            segments_per_group=5,
            audio_dim=6,
            visual_dim=6,
            within_identity_spread=1.6,
            observation_noise=0.2,
            seed=5,
        )
    )


def two_views(x, low, high, rng):
    """The two noisy views of the rows of ``x``, built as train_contrastive
    builds each batch's."""
    views = np.empty((2 * len(x), x.shape[1]))
    for view in (views[: len(x)], views[len(x) :]):
        add_noise(x, low, high, rng, out=view)
    return views[: len(x)], views[len(x) :]


class TestContrastiveViews:
    def test_zero_noise_returns_clean_vector(self):
        x = tiny_corpus().features("audio")[3:4]
        rng = np.random.default_rng(5)
        v1, v2 = two_views(x, 0.0, 0.0, rng)
        np.testing.assert_array_equal(v1, x.astype(np.float64))
        np.testing.assert_array_equal(v2, x.astype(np.float64))

    def test_same_rng_state_reproduces_views(self):
        x = tiny_corpus().features("visual")[0:1]
        a = two_views(x, 0.1, 0.4, np.random.default_rng(9))
        b = two_views(x, 0.1, 0.4, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_view_mean_matches_clean_vector(self):
        # oracle: Monte-Carlo mean over 10^4 draws, 3 sigma / sqrt(n) band
        x = np.array([[0.5, -1.0, 2.0]])
        rng = np.random.default_rng(123)
        n = 10_000
        acc = np.zeros(3)
        for _ in range(n):
            v1, _ = two_views(x, 0.1, 0.1, rng)
            acc += v1[0]
        tol = 3.0 * 0.1 / np.sqrt(n)
        assert np.all(np.abs(acc / n - x[0]) < tol)


class TestTrainContrastive:
    def test_zero_epochs_returns_initialization(self):
        corpus = tiny_corpus()
        cfg = ContrastiveConfig(epochs=0, batch_size=16)
        params, log = train_contrastive(corpus.audio.astype(np.float64), cfg, 3)
        expected = init_encoder(6, cfg.hidden_dim, cfg.embed_dim, np.random.default_rng([3, 101]))
        np.testing.assert_array_equal(params.w1, expected.w1)
        np.testing.assert_array_equal(params.b2, expected.b2)
        assert log == []

    def test_determinism_bitwise(self):
        corpus = tiny_corpus()
        cfg = ContrastiveConfig(
            epochs=3, batch_size=16, learning_rate=0.003,
            aug_low=0.2, aug_high=0.6,
        )
        x = corpus.audio.astype(np.float64)
        p1, _ = train_contrastive(x, cfg, 9)
        p2, _ = train_contrastive(x, cfg, 9)
        for a, b in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_batch_size_above_corpus_rejected(self):
        corpus = tiny_corpus()
        cfg = ContrastiveConfig(epochs=1, batch_size=1000)
        with pytest.raises(ConfigError):
            train_contrastive(corpus.audio.astype(np.float64), cfg, 0)

    def test_augmentation_range_validated(self):
        for low, high in ((0.5, 0.1), (-0.1, 0.5)):
            for cls in (ContrastiveConfig, ClassifierConfig):
                with pytest.raises(ConfigError, match="augmentation range"):
                    cls(epochs=1, batch_size=16, aug_low=low, aug_high=high)

    def test_negative_seed_rejected(self):
        x = tiny_corpus().audio.astype(np.float64)
        cfg = ContrastiveConfig(epochs=1, batch_size=16)
        with pytest.raises(ConfigError, match="seed"):
            train_contrastive(x, cfg, -1)
        with pytest.raises(ConfigError, match="seed"):
            train_classifier(x, np.arange(len(x)) % 4, 4, ClassifierConfig(epochs=1), -1)


@pytest.mark.slow
class TestContrastiveBeatsRawBaseline:
    def test_learned_embeddings_cluster_no_worse_than_raw(self):
        # oracle: identical k-means run on raw features as the baseline
        corpus = generate_corpus(SynthConfig())
        x = corpus.audio.astype(np.float64)
        truth = corpus.identity_gt
        k = SynthConfig().num_identities
        _, raw_assign, _ = kmeans(x, k, restarts=10, seed=1)
        raw_nmi = nmi(raw_assign.labels, truth)

        cfg = ContrastiveConfig(
            learning_rate=0.003, epochs=20, batch_size=128,
            temperature=0.1,
        )
        params, _ = train_contrastive(x, cfg, 0)
        z = embed(params, x)
        _, learned_assign, _ = kmeans(z, k, restarts=10, seed=1)
        learned_nmi = nmi(learned_assign.labels, truth)
        assert learned_nmi >= raw_nmi


class TestTrainClassifier:
    def test_separable_classes_reach_high_accuracy(self):
        # oracle: least-squares linear probe verifies the two blobs separate
        rng = np.random.default_rng(21)
        a = rng.standard_normal((60, 5)) * 0.3 + np.array([3.0, 0, 0, 0, 0])
        b = rng.standard_normal((60, 5)) * 0.3 - np.array([3.0, 0, 0, 0, 0])
        x = np.vstack([a, b])
        y = np.repeat([0, 1], 60)
        design = np.hstack([x, np.ones((120, 1))])
        coef, *_ = np.linalg.lstsq(design, 2.0 * y - 1.0, rcond=None)
        probe_acc = ((design @ coef > 0).astype(int) == y).mean()
        assert probe_acc == 1.0

        cfg = ClassifierConfig(
            epochs=50, batch_size=20, learning_rate=0.5, aug_prob=0.0
        )
        _, _, log = train_classifier(x, y, 2, cfg, 4)
        assert log[-1][2] >= 0.99

    def test_zero_epochs_returns_initialization(self):
        corpus = tiny_corpus()
        x = corpus.audio.astype(np.float64)
        labels = np.arange(len(x)) % 4
        cfg = ClassifierConfig(epochs=0, batch_size=16)
        params, head, log = train_classifier(x, labels, 4, cfg, 2)
        rng = np.random.default_rng([2, 201])
        expected = init_encoder(6, cfg.hidden_dim, cfg.embed_dim, rng)
        np.testing.assert_array_equal(params.w1, expected.w1)
        assert log == []

    def test_smoothing_forbids_zero_loss(self):
        # floor: entropy of the smoothed target, computable analytically
        rng = np.random.default_rng(22)
        a = rng.standard_normal((40, 4)) * 0.1 + np.array([4.0, 0, 0, 0])
        b = rng.standard_normal((40, 4)) * 0.1 - np.array([4.0, 0, 0, 0])
        x = np.vstack([a, b])
        y = np.repeat([0, 1], 40)
        eps, k = 0.1, 2
        q = np.array([1.0 - eps + eps / k, eps / k])
        floor = float(-(q * np.log(q)).sum())
        assert floor > 0

        cfg = ClassifierConfig(
            epochs=60, batch_size=20, learning_rate=0.5,
            epsilon_smooth=eps, aug_prob=0.0,
        )
        _, _, log = train_classifier(x, y, k, cfg, 4)
        assert log[-1][2] == 1.0  # perfect training accuracy
        assert log[-1][1] >= floor

    def test_label_out_of_range_rejected(self):
        corpus = tiny_corpus()
        x = corpus.audio.astype(np.float64)
        labels = np.full(len(x), 7)
        with pytest.raises(ConfigError):
            train_classifier(x, labels, 4, ClassifierConfig(epochs=1, batch_size=16), 0)

    def test_determinism_bitwise(self):
        corpus = tiny_corpus()
        x = corpus.audio.astype(np.float64)
        labels = np.arange(len(x)) % 5
        cfg = ClassifierConfig(
            epochs=3, batch_size=16, learning_rate=0.2, aug_low=0.0, aug_high=0.5
        )
        p1, h1, _ = train_classifier(x, labels, 5, cfg, 6)
        p2, h2, _ = train_classifier(x, labels, 5, cfg, 6)
        for a, b in zip(p1.arrays() + h1.arrays(), p2.arrays() + h2.arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_training_error(self):
        corpus = tiny_corpus()
        x = corpus.audio.astype(np.float64)
        labels = np.arange(len(x)) % 4
        cfg = ClassifierConfig(
            epochs=20, batch_size=16, learning_rate=1e18, aug_prob=0.0
        )
        with pytest.raises(TrainingError) as excinfo:
            train_classifier(x, labels, 4, cfg, 0)
        assert excinfo.value.epoch >= 0


class TestNonFiniteFeatures:
    """A non-finite feature is a data fault, reported before training starts."""

    def bad_features(self):
        x = tiny_corpus().audio.astype(np.float64)
        x[41, 2] = np.nan
        x[50, 0] = np.inf
        return x

    def test_classifier_names_first_bad_row(self):
        labels = np.arange(80) % 4
        cfg = ClassifierConfig(epochs=1, batch_size=16)
        with pytest.raises(NumericError, match="row 41") as excinfo:
            train_classifier(self.bad_features(), labels, 4, cfg, 0)
        assert not isinstance(excinfo.value, TrainingError)

    def test_contrastive_names_first_bad_row(self):
        cfg = ContrastiveConfig(epochs=1, batch_size=16, aug_low=0.2, aug_high=0.6)
        with pytest.raises(NumericError, match="row 41") as excinfo:
            train_contrastive(self.bad_features(), cfg, 0)
        assert not isinstance(excinfo.value, TrainingError)


class TestGradientFuzz:
    def test_contrastive_and_smoothed_ce_over_many_instances(self):
        # 50 random instances per loss, analytic vs central differences
        rng = np.random.default_rng(100)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            z = rng.standard_normal((2 * m, d)) * rng.uniform(0.5, 2.0)

            def fc(theta, m=m, d=d):
                loss, grad = contrastive_loss(theta.reshape(2 * m, d), 0.15)
                return loss, grad.ravel()

            assert grad_check(fc, z.ravel()) < 1e-4

        for _ in range(50):
            k = int(rng.integers(2, 8))
            label = np.array([rng.integers(k)])

            def fe(theta, label=label):
                loss, grad = classifier_loss(theta[None, :], label, 0.1)
                return loss, grad[0]

            assert grad_check(fe, rng.standard_normal(k) * 2.0) < 1e-4


class TestCheckpoints:
    def test_encoder_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        params = init_encoder(5, 6, 3, rng)
        write_checkpoint(tmp_path / "enc.enc", params)
        back, head = read_checkpoint(tmp_path / "enc.enc")
        assert head is None
        np.testing.assert_allclose(back.w1, params.w1, atol=1e-6)
        assert back.in_dim == 5 and back.hidden_dim == 6 and back.embed_dim == 3

    def test_classifier_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        params = init_encoder(4, 5, 3, rng)
        head = ClassifierHead(rng.standard_normal((7, 3)), rng.standard_normal(7))
        write_checkpoint(tmp_path / "cls.enc", params, head)
        back_p, back_h = read_checkpoint(tmp_path / "cls.enc")
        assert back_h.num_classes == 7
        np.testing.assert_allclose(back_h.w, head.w, atol=1e-6)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        params = init_encoder(3, 4, 2, np.random.default_rng(0))
        write_checkpoint(tmp_path / "enc.enc", params)
        blob = (tmp_path / "enc.enc").read_bytes()
        (tmp_path / "enc.enc").write_bytes(blob[:-5])
        from selflabel.errors import DataError

        with pytest.raises(DataError, match="truncated"):
            read_checkpoint(tmp_path / "enc.enc")
