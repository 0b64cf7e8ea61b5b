"""Two-layer embedding networks, losses, analytic gradients, training loops.

The encoder is affine -> tanh -> affine with no output normalization; cosine
geometry is applied by the losses and the scoring stage. Training functions
accept bare feature matrices and integer pseudo-labels only, never corpus
metadata, which keeps ground truth structurally out of the training path.

All gradients are hand-derived and checked against central finite
differences (see :func:`grad_check`).

Contrastive pretraining runs Adam at a flat rate; classifier training runs
SGD whose rate drops 10x for the last third of its epochs. The loops keep
the parameters and their gradient each in one flat vector in
:func:`pack_params` order (``w1, b1, w2, b2`` and, for the classifier,
``head.w, head.b``); every array is a view into it, each update covers the
whole vector in one pass, and activations and loss work arrays are
``(batch_size, ·)`` buffers allocated once per run. Both loops run in
float32, the precision the features, embeddings and checkpoints are stored
in: their initialization and input noise are drawn in float64 and rounded
once. Both draw their input noise through :func:`add_noise`, the contrastive
loop once per view. The step functions and loss cores work in the dtype of
the buffers they are given. The losses :func:`classifier_loss` and
:func:`contrastive_loss` validate their arguments and call the same cores
the loops call, in float64. Classifier training draws each epoch's
permutation, and the noise of the samples it perturbs, at once and takes its
batches as slices of the permuted epoch; its loss works on class-major
(K, B) logits with one ``exp``. The contrastive loss works on the one
cross-view (M, M) block of its cosine matrix, the only part the loss reads.
Every random draw and every elementwise operation has the operands it has
when each step builds fresh arrays, so the trained weights and logs are
bitwise those of that formulation run in the loop's dtype
(``tests/test_encoder_reference.py`` keeps it as the oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._textio import read_container, write_container, write_rows
from .errors import ConfigError, NumericError, TrainingError

_ENC_MAGIC = b"ENC1"


@dataclass(frozen=True)
class EncoderParams:
    """Weights of one modality encoder: z = W2 tanh(W1 x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ConfigError("weight matrices must be 2-d")
        if self.b1.shape != (self.w1.shape[0],) or self.b2.shape != (self.w2.shape[0],):
            raise ConfigError("bias shapes do not match weight matrices")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ConfigError("layer shapes are inconsistent")
        for name in ("w1", "b1", "w2", "b2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"non-finite entries in {name}")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass(frozen=True)
class ClassifierHead:
    """Linear class-score layer on top of an encoder embedding."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ConfigError("classifier head shapes are inconsistent")
        if self.w.shape[0] < 2:
            raise ConfigError("classifier head needs at least 2 classes")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise NumericError("non-finite entries in classifier head")

    @property
    def num_classes(self) -> int:
        return self.w.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [self.w, self.b]


@dataclass(frozen=True, kw_only=True)
class _LoopConfig:
    """Settings both training loops read; the subclasses' defaults are the
    pipeline's. ``aug_low``/``aug_high`` bound the magnitude of the loop's
    input noise. The seed is no setting: each loop takes it as an argument."""

    batch_size: int = 128
    learning_rate: float
    epochs: int
    hidden_dim: int = 64
    embed_dim: int = 16
    aug_low: float = 1.0
    aug_high: float

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("hidden_dim and embed_dim must be >= 1")
        if self.aug_low < 0 or self.aug_high < self.aug_low:
            raise ConfigError("augmentation range must satisfy 0 <= aug_low <= aug_high")


@dataclass(frozen=True, kw_only=True)
class ContrastiveConfig(_LoopConfig):
    """Settings of :func:`train_contrastive`, which runs Adam at the flat
    rate ``learning_rate``."""

    learning_rate: float = 0.003
    epochs: int = 8
    aug_high: float = 1.8
    temperature: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")


@dataclass(frozen=True, kw_only=True)
class ClassifierConfig(_LoopConfig):
    """Settings of :func:`train_classifier`, which runs SGD at
    ``learning_rate`` and at a tenth of it for the last third of the epochs.
    Its input noise reaches further than the contrastive loop's
    (``aug_high`` 2.4, not 1.8), and hits each sample at probability
    ``aug_prob``. The epoch budget is short because the pseudo-labels are
    noisy and a network fits their noise last: in the sweep of ROADMAP item
    18, 15 epochs gave fusion EER and minDCF after AS-Norm no worse than 40
    on either benchmark workload."""

    learning_rate: float = 0.5
    epochs: int = 15
    aug_high: float = 2.4
    epsilon_smooth: float = 0.1
    aug_prob: float = 0.6

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.epsilon_smooth < 1:
            raise ConfigError("epsilon_smooth must lie in [0, 1)")
        if not 0 <= self.aug_prob <= 1:
            raise ConfigError("aug_prob must lie in [0, 1]")


# ---------------------------------------------------------------------------
# initialization / forward / backward
# ---------------------------------------------------------------------------


def init_encoder(in_dim: int, hidden_dim: int, embed_dim: int, rng) -> EncoderParams:
    """Seeded uniform init in +-1/sqrt(fan_in) for weights and biases."""
    b1 = 1.0 / np.sqrt(in_dim)
    b2 = 1.0 / np.sqrt(hidden_dim)
    return EncoderParams(
        w1=rng.uniform(-b1, b1, size=(hidden_dim, in_dim)),
        b1=rng.uniform(-b1, b1, size=hidden_dim),
        w2=rng.uniform(-b2, b2, size=(embed_dim, hidden_dim)),
        b2=rng.uniform(-b2, b2, size=embed_dim),
    )


def init_head(num_classes: int, embed_dim: int, rng) -> ClassifierHead:
    bound = 1.0 / np.sqrt(embed_dim)
    return ClassifierHead(
        w=rng.uniform(-bound, bound, size=(num_classes, embed_dim)),
        b=rng.uniform(-bound, bound, size=num_classes),
    )


def _forward(w1, b1, w2, b2, x2d, hidden, z) -> None:
    """hidden = tanh(x W1^T + b1), z = hidden W2^T + b2, into the given buffers."""
    np.matmul(x2d, w1.T, out=hidden)
    hidden += b1
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, w2.T, out=z)
    z += b2


def _require_finite_rows(x: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite values in {what}, first in row {bad[0]}")


def embed(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Encode one vector or a matrix of row vectors."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    x2d = np.atleast_2d(arr)
    _require_finite_rows(x2d, "encoder input")
    if x2d.shape[1] != params.in_dim:
        raise ConfigError(
            f"input dimension {x2d.shape[1]} does not match encoder ({params.in_dim})"
        )
    n = x2d.shape[0]
    hidden = np.empty((n, params.hidden_dim))
    z = np.empty((n, params.embed_dim))
    _forward(*params.arrays(), x2d, hidden, z)
    return z[0] if single else z


def _backward(w2, x2d, hidden, dz, dhidden, grads) -> None:
    """Encoder gradients for the output sensitivity ``dz``, written into the
    views ``grads`` = [dw1, db1, dw2, db2]. Overwrites ``hidden`` with
    1 - hidden^2 and uses ``dhidden`` as scratch."""
    dw1, db1, dw2, db2 = grads
    np.matmul(dz.T, hidden, out=dw2)
    np.sum(dz, axis=0, out=db2)
    np.matmul(dz, w2, out=dhidden)
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    dhidden *= hidden
    np.matmul(dhidden.T, x2d, out=dw1)
    np.sum(dhidden, axis=0, out=db1)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class _NtXent:
    """Contrastive loss over (2M, d) batches of one shape and dtype.

    Only the cross-view block ``c = u[:M] @ u[M:].T`` of the (2M, 2M) cosine
    matrix enters the loss; the masked same-view blocks contribute exactly
    0, and the other cross-view block is ``c.T``. The softmax runs on one
    (2M, M) stack of ``c`` and ``c.T`` (anchors of the first views, then of
    the second), so anchor r's positive sits in column r mod M. The
    sensitivity ``g = a + a^T`` of the full matrix is one (M, M) block
    ``a[:M] + a[M:].T`` and its transpose, so the gradient takes
    ``g @ u[M:]`` and ``g.T @ u[:M]``, and the per-row coefficients are the
    row and column sums of ``g * c``. The buffers are built once; see
    :func:`contrastive_loss` for the formula.
    """

    def __init__(self, m: int, d: int, tau: float, dtype=np.float64):
        n2 = 2 * m
        self.tau = tau
        self._m = m
        rows = np.arange(n2)
        self._positive = rows * m + rows % m  # flat index of each anchor's positive
        self._norms, self._row_max, self._denom, self._lse, self._s_pos, self._row_coef = (
            np.empty((6, n2), dtype)
        )
        self._u = np.empty((n2, d), dtype)
        self._c, self._g = np.empty((2, m, m), dtype)
        self._live = np.empty((n2, m), dtype)

    def __call__(self, z: np.ndarray, grad: np.ndarray) -> float:
        """Mean per-anchor loss of ``z``; writes d loss / d z into ``grad``."""
        tau, m, n2 = self.tau, self._m, z.shape[0]
        norms, u, c, g, s = self._norms, self._u, self._c, self._g, self._live
        # row norms as np.linalg.norm(z, axis=1) computes them
        np.multiply(z, z, out=u)
        np.add.reduce(u, axis=1, out=norms)
        np.sqrt(norms, out=norms)
        if np.any(norms == 0):
            raise NumericError("zero-norm embedding in contrastive batch")
        np.divide(z, norms[:, None], out=u)
        np.matmul(u[:m], u[m:].T, out=c)
        np.divide(c, tau, out=s[:m])
        np.divide(c.T, tau, out=s[m:])
        s_pos = s.take(self._positive, out=self._s_pos)
        s.put(self._positive, -np.inf)
        # s[M:] is s[:M].T, so each row's max is a column max of the other
        # half, a faster reduction; a max is exact in any order
        row_max = self._row_max
        np.max(s[m:], axis=0, out=row_max[:m])
        np.max(s[:m], axis=0, out=row_max[m:])
        s -= row_max[:, None]
        np.exp(s, out=s)
        denom = np.sum(s, axis=1, out=self._denom)
        lse = np.log(denom, out=self._lse)
        lse += row_max
        lse -= s_pos
        loss = float(np.mean(lse))

        # Sensitivities w.r.t. each cosine, then chain rule through the cosine.
        s /= denom[:, None]
        s.put(self._positive, s.take(self._positive) - 1.0)
        s /= tau
        np.add(s[:m], s[m:].T, out=g)
        np.matmul(g, u[m:], out=grad[:m])
        np.matmul(g.T, u[:m], out=grad[m:])
        c *= g
        row_coef = self._row_coef
        np.sum(c, axis=1, out=row_coef[:m])
        np.sum(c, axis=0, out=row_coef[m:])
        u *= row_coef[:, None]
        grad -= u
        grad /= norms[:, None]
        grad /= n2
        return loss


def contrastive_loss(z: np.ndarray, tau: float):
    """Instance-discrimination loss over a two-view batch, with gradient.

    ``z`` has shape (2M, d): rows 0..M-1 are the first views, rows M..2M-1
    the second views of samples 0..M-1. Per anchor, the positive score is the
    cosine of the sample's two views, and the denominator runs over the
    opposite-view embeddings of the other samples. Returns the mean
    per-anchor loss and its gradient with respect to ``z``. The loss is a
    pure function of pairwise cosines, hence invariant to a common positive
    rescaling of all embeddings, and is not sign-constrained (the positive
    term is absent from its denominator).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] % 2 != 0:
        raise ConfigError("contrastive batch must have shape (2M, d)")
    if not np.all(np.isfinite(z)):
        raise NumericError("contrastive batch contains non-finite values")
    m = z.shape[0] // 2
    if m < 2:
        raise ConfigError("contrastive loss needs at least 2 samples (4 rows)")
    if tau <= 0:
        raise ConfigError("temperature must be positive")
    grad = np.empty_like(z)
    loss = _NtXent(m, z.shape[1], tau)(z, grad)
    return loss, grad


def _smoothed_ce(p, labels, epsilon, cols, ones) -> tuple[float, int]:
    """Core of :func:`classifier_loss` over class-major logits ``p`` (K, B):
    column b holds sample b's logits. Returns the batch's mean loss and its
    count of samples whose label logit equals their highest, and overwrites
    ``p`` with d loss / d logits. ``cols`` (4, B) is scratch and ``ones``
    holds at least K ones.

    With z the logits shifted by their column max, the loss of sample b is
    log sum exp z - (1 - eps) z_y - (eps / K) sum z, and its gradient is
    (softmax - eps / K) / B with (1 - eps) / B subtracted at the label, so
    one ``exp`` serves both.
    """
    k, n = p.shape
    lse, z_y, sum_z, sum_exp = cols
    label_at = labels * n + np.arange(n)  # flat index of each label logit
    np.max(p, axis=0, out=lse)
    p -= lse
    p.take(label_at, out=z_y)
    hits = int(np.count_nonzero(z_y == 0))
    np.matmul(ones[:k], p, out=sum_z)
    np.exp(p, out=p)
    np.matmul(ones[:k], p, out=sum_exp)
    np.log(sum_exp, out=lse)
    z_y *= 1.0 - epsilon
    lse -= z_y
    sum_z *= epsilon / k
    lse -= sum_z
    loss = float(np.mean(lse))
    sum_exp *= n
    p /= sum_exp
    p -= epsilon / (k * n)
    p.put(label_at, p.take(label_at) - (1.0 - epsilon) / n)
    return loss, hits


def classifier_loss(logits: np.ndarray, labels: np.ndarray, epsilon: float):
    """Mean label-smoothed cross entropy over a batch, with its gradient.

    Row i of ``logits`` (shape (B, K)) is scored against the target that puts
    1 - epsilon on ``labels[i]`` plus epsilon / K on every class. The loss is
    taken on the logits through a log-sum-exp, so a saturated posterior never
    produces a NaN. Returns ``(loss, grad)``: the mean loss over the batch
    and its gradient with respect to ``logits``, (posterior - target) / B.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],) or labels.size == 0:
        raise ConfigError("need a nonempty (batch, classes) logit matrix and one label per row")
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ConfigError(f"label out of range [0, {k})")
    if not 0 <= epsilon < 1:
        raise ConfigError("epsilon must lie in [0, 1)")
    p = logits.T.copy()  # class-major, and the core overwrites it
    loss, _ = _smoothed_ce(p, labels, epsilon, np.empty((4, n)), np.ones(k))
    return loss, p.T


# ---------------------------------------------------------------------------
# flat parameter layout and training steps
# ---------------------------------------------------------------------------


def _shapes(in_dim, hidden_dim, embed_dim, num_classes=None) -> list[tuple[int, ...]]:
    """Array shapes in pack_params order."""
    shapes = [(hidden_dim, in_dim), (hidden_dim,), (embed_dim, hidden_dim), (embed_dim,)]
    if num_classes is not None:
        shapes += [(num_classes, embed_dim), (num_classes,)]
    return shapes


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """One view of ``flat`` per shape, laid out back to back."""
    views = []
    pos = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[pos : pos + size].reshape(shape))
        pos += size
    if pos != flat.size:
        raise ConfigError("parameter vector length does not match shapes")
    return views


def _flat(params: EncoderParams, head: ClassifierHead | None, rows: int, dtype=np.float64):
    """The flat parameter vector of ``params`` (and ``head``) in pack_params
    order, rounded to ``dtype``, a gradient vector of its length, one view
    per array of each, and the buffers of the matching step function for up
    to ``rows`` rows, all of ``dtype``: the encoder's four (rows, ·)
    activation buffers and, with a head of K classes, the K * rows logit
    buffer, :func:`_smoothed_ce`'s (4, rows) scratch and max(K, rows) ones."""
    k = head.num_classes if head is not None else None
    h, e = params.hidden_dim, params.embed_dim
    shapes = _shapes(params.in_dim, h, e, k)
    theta = pack_params(params, head).astype(dtype, copy=False)
    grad = np.empty_like(theta)
    bufs = [np.empty((rows, w), dtype) for w in (h, h, e, e)]
    if k is not None:
        bufs += [np.empty(k * rows, dtype), np.empty((4, rows), dtype)]
        bufs.append(np.ones(max(k, rows), dtype))
    return theta, grad, _views(theta, shapes), _views(grad, shapes), bufs


def _classifier_step(arrays, grads, bufs, xb, yb, epsilon) -> tuple[float, int]:
    """One forward and backward pass of encoder + head over the batch ``xb``.

    ``arrays``, ``grads`` and ``bufs`` are from :func:`_flat`, with buffers
    of at least ``len(xb)`` rows. The logits are kept class-major, (K, B).
    Writes the gradient into ``grads`` and returns the batch's mean loss and
    its count of rows whose label logit is their highest.
    """
    m = xb.shape[0]
    hidden, dhidden, z, dz = (b[:m] for b in bufs[:4])
    flat_logits, cols, ones = bufs[4:]
    w1, b1, w2, b2, hw, hb = arrays
    p = flat_logits[: hw.shape[0] * m].reshape(-1, m)
    _forward(w1, b1, w2, b2, xb, hidden, z)
    np.matmul(hw, z.T, out=p)
    p += hb[:, None]
    loss, hits = _smoothed_ce(p, yb, epsilon, cols[:, :m], ones)
    np.matmul(p, z, out=grads[4])
    np.matmul(p, ones[:m], out=grads[5])
    np.matmul(p.T, hw, out=dz)
    _backward(w2, xb, hidden, dz, dhidden, grads[:4])
    return loss, hits


def _contrastive_step(arrays, grads, bufs, batch, loss_fn: _NtXent) -> float:
    """One forward and backward pass of the encoder over a (2M, d) two-view
    ``batch``, with ``_flat``'s views and 2M-row buffers. Writes the gradient
    into ``grads`` and returns the batch's loss."""
    hidden, dhidden, z, dz = bufs
    _forward(*arrays, batch, hidden, z)
    loss = loss_fn(z, dz)
    _backward(arrays[2], batch, hidden, dz, dhidden, grads)
    return loss


class _Adam:
    def __init__(self, theta, beta1=0.9, beta2=0.999, eps=1e-8):
        self.theta = theta
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self._work = np.empty_like(theta)
        self._work2 = np.empty_like(theta)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, grad, lr):
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
        # theta -= lr mhat / (sqrt(vhat) + eps), over the whole vector with
        # each product and quotient taken in the order written here
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v, w, w2 = self.m, self.v, self._work, self._work2
        m *= b1
        m += np.multiply(grad, 1 - b1, out=w)
        v *= b2
        np.multiply(grad, 1 - b2, out=w)
        w *= grad
        v += w
        np.divide(m, 1 - b1**self.t, out=w)  # mhat
        w *= lr
        np.divide(v, 1 - b2**self.t, out=w2)  # vhat
        np.sqrt(w2, out=w2)
        w2 += self.eps
        w /= w2
        self.theta -= w


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def add_noise(x: np.ndarray, low: float, high: float, rng, out: np.ndarray | None = None):
    """``out = x + m * N(0, I)``, the input noise of both training loops.

    One magnitude ``m`` is drawn uniformly from [low, high] per row of the
    matrix ``x``, all of them before the noise, so the expectation of each
    row is the clean row. ``out`` is a float64 array of the shape of ``x``,
    allocated when not given.
    """
    mag = rng.uniform(low, high, size=(x.shape[0], 1))
    if out is None:
        out = np.empty(x.shape)
    rng.standard_normal(out=out)
    out *= mag
    out += x
    return out


def train_contrastive(
    features: np.ndarray, config: ContrastiveConfig, seed: int
) -> tuple[EncoderParams, list[tuple[int, float, float]]]:
    """Instance-discrimination pretraining on a feature matrix.

    Each row's two views take Gaussian noise of magnitude drawn from
    [``config.aug_low``, ``config.aug_high``]. Deterministic given ``seed``
    (nonnegative). Returns the trained parameters and a per-epoch log of
    (epoch, mean_loss, accuracy); accuracy is NaN here because there are no
    labels at this stage. Trailing partial batches are dropped so every
    batch has the full size.

    Training runs in float32: the float64 initialization and each batch's
    float64 views are rounded to float32 once, and parameters, gradients,
    Adam moments and buffers stay float32. At zero epochs the float64
    initialization is returned as drawn.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("features must be a nonempty 2-d matrix")
    n = x.shape[0]
    if config.batch_size > n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds corpus size {n}")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    _require_finite_rows(x, "features")

    params = init_encoder(x.shape[1], config.hidden_dim, config.embed_dim,
                          np.random.default_rng([seed, 101]))
    if config.epochs == 0:
        return params, []
    rng = np.random.default_rng([seed, 102])
    size = config.batch_size
    theta, grad, arrays, grads, bufs = _flat(params, None, 2 * size, np.float32)
    loss_fn = _NtXent(size, params.embed_dim, config.temperature, np.float32)
    opt = _Adam(theta)
    xb = np.empty((size, x.shape[1]))
    noisy = np.empty((2 * size, x.shape[1]))
    batch = np.empty(noisy.shape, np.float32)
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n - size + 1, size):
            np.take(x, order[start : start + size], axis=0, out=xb)
            for view in (noisy[:size], noisy[size:]):
                add_noise(xb, config.aug_low, config.aug_high, rng, out=view)
            batch[...] = noisy  # drawn in float64, rounded once
            loss = _contrastive_step(arrays, grads, bufs, batch, loss_fn)
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                raise TrainingError(f"contrastive training diverged at epoch {epoch}", epoch)
            opt.step(grad, config.learning_rate)
            losses.append(loss)
        log.append((epoch, float(np.mean(losses)), float("nan")))
    return EncoderParams(*arrays), log


def train_classifier(
    features: np.ndarray,
    pseudo_labels: np.ndarray,
    num_classes: int,
    config: ClassifierConfig,
    seed: int,
) -> tuple[EncoderParams, ClassifierHead, list[tuple[int, float, float]]]:
    """Supervised training of encoder + linear head on pseudo-labels,
    deterministic given ``seed`` (nonnegative).

    Targets are label-smoothed with ``config.epsilon_smooth``. In each epoch,
    each sample is perturbed at probability ``config.aug_prob`` with
    Gaussian noise whose magnitude is drawn from [``aug_low``, ``aug_high``];
    combined with the smoothing this is what keeps the network from
    memorizing label noise. Each epoch draws, in its permuted order, which
    samples are perturbed, then their magnitudes, then their noise, and its
    batches are consecutive slices of that order. At ``aug_prob`` 0 nothing
    is drawn for it. Returns the
    trained encoder, the head, and a per-epoch (epoch, mean_loss, accuracy)
    log where accuracy is the training accuracy against the pseudo-labels: a
    sample counts as a hit when its label's logit is its highest, ties
    included.

    Training runs in float32: the features, the float64 initialization and
    each epoch's float64 noise are rounded to float32 once, and parameters,
    gradients and buffers stay float32. At zero epochs the float64
    initialization is returned as drawn.
    """
    x = np.asarray(features)
    labels = np.asarray(pseudo_labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("features must be a nonempty 2-d matrix")
    if labels.shape != (x.shape[0],):
        raise ConfigError("pseudo-labels must cover every sample exactly once")
    if num_classes < 2:
        raise ConfigError("need at least 2 pseudo-classes")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigError(
            f"label index out of range: found {labels.max()}, have {num_classes} classes"
        )
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    _require_finite_rows(x, "features")

    n = x.shape[0]
    init_rng = np.random.default_rng([seed, 201])
    params = init_encoder(x.shape[1], config.hidden_dim, config.embed_dim, init_rng)
    head = init_head(num_classes, config.embed_dim, init_rng)
    if config.epochs == 0:
        return params, head, []
    rng = np.random.default_rng([seed, 202])
    size = config.batch_size
    theta, grad, arrays, grads, bufs = _flat(params, head, size, np.float32)
    step = np.empty_like(theta)
    x = np.asarray(x, dtype=np.float32)
    x_epoch = np.empty_like(x)
    y_epoch = np.empty_like(labels)
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        np.take(x, order, axis=0, out=x_epoch)
        np.take(labels, order, out=y_epoch)
        if config.aug_prob > 0:
            rows = np.flatnonzero(rng.random(n) < config.aug_prob)
            # summed in float64, rounded once
            x_epoch[rows] = add_noise(x_epoch[rows], config.aug_low, config.aug_high, rng)
        last_third = epoch >= (2 * config.epochs) // 3
        lr = config.learning_rate * 0.1 if last_third else config.learning_rate
        loss_sum = 0.0
        hits = 0
        for start in range(0, n, size):
            xb, yb = x_epoch[start : start + size], y_epoch[start : start + size]
            batch_loss, batch_hits = _classifier_step(
                arrays, grads, bufs, xb, yb, config.epsilon_smooth
            )
            if not (np.isfinite(batch_loss) and np.isfinite(grad).all()):
                raise TrainingError(f"classifier training diverged at epoch {epoch}", epoch)
            theta -= np.multiply(grad, lr, out=step)
            loss_sum += batch_loss * len(yb)
            hits += batch_hits
        log.append((epoch, loss_sum / n, hits / n))
    return EncoderParams(*arrays[:4]), ClassifierHead(*arrays[4:]), log


# ---------------------------------------------------------------------------
# parameter packing and gradient checking
# ---------------------------------------------------------------------------


def pack_params(params: EncoderParams, head: ClassifierHead | None = None) -> np.ndarray:
    arrays = params.arrays() + (head.arrays() if head is not None else [])
    return np.concatenate([a.ravel() for a in arrays])


def unpack_params(theta, in_dim, hidden_dim, embed_dim, num_classes=None):
    arrays = _views(
        np.asarray(theta, dtype=np.float64), _shapes(in_dim, hidden_dim, embed_dim, num_classes)
    )
    params = EncoderParams(*arrays[:4])
    head = ClassifierHead(*arrays[4:]) if num_classes is not None else None
    return params, head


def grad_check(loss_function, theta: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_function(theta) -> (loss, grad)``. The per-coordinate relative
    error uses the denominator max(1, |g_a| + |g_n|), so near-zero components
    are compared absolutely.
    """
    theta = np.asarray(theta, dtype=np.float64)
    _, analytic = loss_function(theta)
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        lu, _ = loss_function(up)
        ld, _ = loss_function(down)
        numeric[i] = (lu - ld) / (2.0 * step)
    denom = np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
    return float((np.abs(analytic - numeric) / denom).max())


# ---------------------------------------------------------------------------
# checkpoints and logs
# ---------------------------------------------------------------------------


def write_checkpoint(path, params: EncoderParams, head: ClassifierHead | None = None) -> None:
    """An ENC1 container (``_textio``): dims (in, hidden, embed, classes or 0),
    then the float32 weights in :func:`pack_params` order."""
    k = head.num_classes if head is not None else 0
    dims = (params.in_dim, params.hidden_dim, params.embed_dim, k)
    write_container(path, _ENC_MAGIC, dims, pack_params(params, head))


def read_checkpoint(path) -> tuple[EncoderParams, ClassifierHead | None]:
    def floats(dims):
        return sum(math.prod(s) for s in _shapes(*dims[:3], dims[3] or None))

    (in_dim, hidden, embd, k), theta = read_container(path, "checkpoint", _ENC_MAGIC, 4, floats)
    return unpack_params(theta, in_dim, hidden, embd, k or None)


def write_train_log(path, rows) -> None:
    columns = [[kind(row[i]) for row in rows] for i, kind in enumerate((int, float, float))]
    write_rows(path, "%d\t%r\t%r", columns, header="epoch\tmean_loss\taccuracy")
