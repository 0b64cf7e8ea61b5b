"""The training loops against a reference copy of the per-array formulation.

The reference below builds fresh arrays in each step: `_backward` returns a
list of gradients and the optimizers loop over the arrays one by one. Both
loops run in float32, their initialization and noise drawn in float64 and
rounded once. The classifier reference draws each epoch's permutation,
then which rows are perturbed, their magnitudes and their noise, and takes
batches as slices of the permuted epoch; its loss works on class-major
(K, B) logits with one exp. The contrastive reference loss works on the
cross-view block of the cosine matrix only: one (M, M) block, its
transpose, and one (M, M) sensitivity block. The production loops must
reproduce the references' parameters, head and per-epoch logs bit for bit,
and `contrastive_loss` must reproduce the reference loss and gradient bit
for bit on every call of a grid of batch sizes, widths, temperatures and
row scales, where the textbook (2M, 2M) masked formulation must agree with
both to 1e-12 relative (the gradient relative to its largest entry).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from selflabel.encoder import (
    ClassifierConfig,
    ClassifierHead,
    ContrastiveConfig,
    EncoderParams,
    init_encoder,
    init_head,
    contrastive_loss,
    train_classifier,
    train_contrastive,
)

# ---------------------------------------------------------------------------
# reference implementation
# ---------------------------------------------------------------------------


def ref_forward(params, x2d):
    hidden = np.tanh(x2d @ params.w1.T + params.b1)
    z = hidden @ params.w2.T + params.b2
    return hidden, z


def ref_backward(params, x2d, hidden, dz):
    dw2 = dz.T @ hidden
    db2 = dz.sum(axis=0)
    dhidden = dz @ params.w2
    dpre = dhidden * (1.0 - hidden * hidden)
    dw1 = dpre.T @ x2d
    db1 = dpre.sum(axis=0)
    return [dw1, db1, dw2, db2]


def ref_perturb_two_views(x, low, high, rng):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    views = []
    for _ in range(2):
        mag = rng.uniform(low, high, size=(x.shape[0], 1))
        views.append(x + mag * rng.standard_normal(x.shape))
    return views[0], views[1]


def ref_contrastive_loss(z, tau):
    """The cross-view formulation: one (M, M) cosine block ``c`` and its
    transpose, a (2M, M) softmax stack and one (M, M) sensitivity block."""
    n2 = z.shape[0]
    m = n2 // 2
    norms = np.linalg.norm(z, axis=1)
    u = z / norms[:, None]
    c = u[:m] @ u[m:].T
    s = np.concatenate([c / tau, c.T / tau])
    rows = np.arange(n2)
    pos = rows % m
    s_pos = s[rows, pos]
    s_masked = s.copy()
    s_masked[rows, pos] = -np.inf
    row_max = s_masked.max(axis=1)
    expo = np.exp(s_masked - row_max[:, None])
    denom = expo.sum(axis=1)
    lse = np.log(denom) + row_max - s_pos
    loss = float(np.mean(lse))
    a_mat = expo / denom[:, None]
    a_mat[rows, pos] -= 1.0
    a_mat /= tau
    g = a_mat[:m] + a_mat[m:].T
    gc = c * g
    row_coef = np.concatenate([gc.sum(axis=1), gc.sum(axis=0)])
    gu = np.concatenate([g @ u[m:], g.T @ u[:m]])
    grad = (gu - u * row_coef[:, None]) / norms[:, None] / n2
    return loss, grad


def textbook_contrastive_loss(z, tau):
    """The (2M, 2M) masked formulation, the loss as it is usually written."""
    n2 = z.shape[0]
    m = n2 // 2
    norms = np.linalg.norm(z, axis=1)
    u = z / norms[:, None]
    cosines = u @ u.T
    s = cosines / tau
    pair = np.concatenate([np.arange(m) + m, np.arange(m)])
    sample = np.concatenate([np.arange(m), np.arange(m)])
    view = np.repeat(np.array([0, 1]), m)
    mask = (sample[:, None] != sample[None, :]) & (view[:, None] != view[None, :])
    s_masked = np.where(mask, s, -np.inf)
    row_max = s_masked.max(axis=1)
    expo = np.exp(s_masked - row_max[:, None])
    denom = expo.sum(axis=1)
    lse = row_max + np.log(denom)
    s_pos = s[np.arange(n2), pair]
    loss = float(np.mean(lse - s_pos))
    a_mat = expo / denom[:, None]
    a_mat[np.arange(n2), pair] -= 1.0
    a_mat /= tau
    g = a_mat + a_mat.T
    row_coef = (g * cosines).sum(axis=1)
    grad = (g @ u - row_coef[:, None] * u) / norms[:, None] / n2
    return loss, grad


def ref_classifier_loss(logits, labels, epsilon):
    """Loss, hit count and gradient of class-major ``logits`` (K, B): the
    column sums are products with a ones vector, and one exp serves both the
    loss and the gradient."""
    k, n = logits.shape
    cols = np.arange(n)
    ones = np.ones(k, dtype=logits.dtype)
    shifted = logits - logits.max(axis=0)
    z_y = shifted[labels, cols]
    hits = int((z_y == 0).sum())
    sum_z = ones @ shifted
    expo = np.exp(shifted)
    sum_exp = ones @ expo
    loss = float(np.mean(np.log(sum_exp) - (1.0 - epsilon) * z_y - (epsilon / k) * sum_z))
    grad = expo / (n * sum_exp) - epsilon / (k * n)
    grad[labels, cols] -= (1.0 - epsilon) / n
    return loss, hits, grad


class RefSgd:
    def __init__(self, arrays):
        self.arrays = arrays

    def step(self, grads, lr):
        for a, g in zip(self.arrays, grads):
            a -= lr * g


class RefAdam:
    def __init__(self, arrays, beta1=0.9, beta2=0.999, eps=1e-8):
        self.arrays = arrays
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            a -= lr * mhat / (np.sqrt(vhat) + self.eps)


def ref_lr_at(config, epoch):
    if config.epochs > 0 and epoch >= (2 * config.epochs) // 3:
        return config.learning_rate * 0.1
    return config.learning_rate


def ref_train_contrastive(x, config, seed):
    n = x.shape[0]
    low, high = config.aug_low, config.aug_high
    init = init_encoder(x.shape[1], config.hidden_dim, config.embed_dim,
                        np.random.default_rng([seed, 101]))
    w1, b1, w2, b2 = (a.astype(np.float32) for a in init.arrays())
    params = SimpleNamespace(w1=w1, b1=b1, w2=w2, b2=b2)
    rng = np.random.default_rng([seed, 102])
    opt = RefAdam([w1, b1, w2, b2])
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = order[start : start + config.batch_size]
            v1, v2 = ref_perturb_two_views(x[idx], low, high, rng)
            batch = np.vstack([v1, v2]).astype(np.float32)
            hidden, z = ref_forward(params, batch)
            loss, dz = ref_contrastive_loss(z, config.temperature)
            grads = ref_backward(params, batch, hidden, dz)
            opt.step(grads, config.learning_rate)
            losses.append(loss)
        log.append((epoch, float(np.mean(losses)), float("nan")))
    return EncoderParams(w1, b1, w2, b2), log


def ref_train_classifier(x, labels, num_classes, config, seed):
    n = x.shape[0]
    x = x.astype(np.float32)
    init_rng = np.random.default_rng([seed, 201])
    init = init_encoder(x.shape[1], config.hidden_dim, config.embed_dim, init_rng)
    init_h = init_head(num_classes, config.embed_dim, init_rng)
    w1, b1, w2, b2, hw, hb = (a.astype(np.float32) for a in init.arrays() + init_h.arrays())
    params = SimpleNamespace(w1=w1, b1=b1, w2=w2, b2=b2)
    rng = np.random.default_rng([seed, 202])
    opt = RefSgd([w1, b1, w2, b2, hw, hb])
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        xe, ye = x[order], labels[order]
        if config.aug_prob > 0:
            rows = np.flatnonzero(rng.random(n) < config.aug_prob)
            mag = rng.uniform(config.aug_low, config.aug_high, size=(len(rows), 1))
            noise = rng.standard_normal((len(rows), x.shape[1]))
            xe[rows] = (xe[rows] + mag * noise).astype(np.float32)
        lr = ref_lr_at(config, epoch)
        loss_sum = 0.0
        hits = 0
        for start in range(0, n, config.batch_size):
            xb, yb = xe[start : start + config.batch_size], ye[start : start + config.batch_size]
            hidden, z = ref_forward(params, xb)
            logits = hw @ z.T + hb[:, None]
            batch_loss, batch_hits, dlogits = ref_classifier_loss(
                logits, yb, config.epsilon_smooth
            )
            dhead_w = dlogits @ z
            dhead_b = dlogits @ np.ones(len(yb), dtype=np.float32)
            dz = dlogits.T @ hw
            enc_grads = ref_backward(params, xb, hidden, dz)
            opt.step(enc_grads + [dhead_w, dhead_b], lr)
            loss_sum += batch_loss * len(yb)
            hits += batch_hits
        log.append((epoch, loss_sum / n, hits / n))
    return EncoderParams(w1, b1, w2, b2), ClassifierHead(hw, hb), log


# ---------------------------------------------------------------------------
# bitwise comparisons
# ---------------------------------------------------------------------------


def assert_bitwise(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_same_log(actual, expected):
    # NaN accuracies compare equal through their bytes
    assert np.array(actual).tobytes() == np.array(expected).tobytes()


def features(n, d, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((7, d)) * 2.0
    return centers[rng.integers(0, 7, size=n)] + rng.standard_normal((n, d)) * 0.7


# Each loop runs at its default rate: the classifier SGD at 0.5, dropping
# 10x for the last third of the epochs, and the contrastive loop Adam at
# 0.003. The ids keep the optimizer each case runs.
CLASSIFIER_CASES = [
    # (n, d, k, batch, epochs, augmentation)
    pytest.param(200, 6, 5, 32, 3, (0.5, 1.2), id="sgd-aug-partial-lrdrop"),
    pytest.param(200, 6, 5, 32, 3, None, id="sgd-noaug-partial-lrdrop"),
    pytest.param(192, 6, 5, 32, 2, (0.5, 1.2), id="sgd-aug-exact-lrdrop"),
    pytest.param(150, 6, 4, 40, 2, None, id="sgd-noaug-partial-batch40"),
    pytest.param(600, 20, 200, 128, 3, (1.0, 2.4), id="pipeline-shapes"),
    pytest.param(600, 20, 400, 128, 3, (1.0, 2.4), id="pipeline-shapes-k400"),
]


@pytest.mark.parametrize("n, d, k, batch, epochs, aug", CLASSIFIER_CASES)
def test_train_classifier_matches_reference(n, d, k, batch, epochs, aug):
    x = features(n, d, seed=n + k)
    labels = np.random.default_rng(k).integers(0, k, size=n)
    aug_settings = {"aug_low": aug[0], "aug_high": aug[1]} if aug else {"aug_prob": 0.0}
    cfg = ClassifierConfig(epochs=epochs, batch_size=batch, **aug_settings)
    params, head, log = train_classifier(x, labels, k, cfg, 17)
    ref_params, ref_head, ref_log = ref_train_classifier(x, labels, k, cfg, 17)
    assert_bitwise(params.arrays() + head.arrays(), ref_params.arrays() + ref_head.arrays())
    assert_same_log(log, ref_log)


CONTRASTIVE_CASES = [
    # (n, d, batch, epochs, temperature)
    pytest.param(100, 6, 16, 2, 0.1, id="adam-cross-dropped-tail"),
    pytest.param(100, 6, 16, 2, 0.5, id="adam-cross-tau0.5"),
    pytest.param(96, 6, 16, 3, 0.1, id="adam-cross-exact"),
    pytest.param(100, 6, 12, 3, 0.1, id="adam-cross-batch12"),
    pytest.param(400, 20, 128, 1, 0.1, id="pipeline-shapes"),
]


@pytest.mark.parametrize("n, d, batch, epochs, tau", CONTRASTIVE_CASES)
def test_train_contrastive_matches_reference(n, d, batch, epochs, tau):
    x = features(n, d, seed=n + d)
    cfg = ContrastiveConfig(
        epochs=epochs, batch_size=batch, temperature=tau, aug_low=0.2, aug_high=0.6
    )
    params, log = train_contrastive(x, cfg, 23)
    ref_params, ref_log = ref_train_contrastive(x, cfg, 23)
    assert_bitwise(params.arrays(), ref_params.arrays())
    assert_same_log(log, ref_log)


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 9, 12, 13, 16, 31, 64, 100, 127, 128, 129])
def test_contrastive_loss_matches_reference_per_call(m):
    # every numpy summation grouping that depends on the batch size, the
    # embedding width or the row scale
    for d in (2, 16, 17, 32):
        for tau in (0.1, 0.5):
            z = np.random.default_rng([m, d]).standard_normal((2 * m, d))
            z[0::3] *= 1e-3
            z[1::3] *= 1e3
            loss, grad = contrastive_loss(z, tau)
            ref_loss, ref_grad = ref_contrastive_loss(z, tau)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes(), (d, tau)
            assert grad.tobytes() == ref_grad.tobytes(), (d, tau)
            # the cross-view blocks are the whole loss: the (2M, 2M) masked
            # formulation agrees to rounding
            book_loss, book_grad = textbook_contrastive_loss(z, tau)
            assert loss == pytest.approx(book_loss, rel=1e-12, abs=0), (d, tau)
            scale = np.abs(book_grad).max()
            assert np.abs(grad - book_grad).max() <= 1e-12 * scale, (d, tau)
